import numpy as np
import pytest

from combsync.seeding import check_seed, derive_seed


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(9, 0, 4) == derive_seed(9, 0, 4)
    assert derive_seed(9, 0, 4) != derive_seed(9, 1, 4)
    assert derive_seed(9, 0, 4) != derive_seed(4, 0, 9)
    assert 0 <= derive_seed(2**64 - 1, 2**64 - 1) < 2**64


class Label(int):
    """An int subclass: accepted as a seed, returned as a plain int."""


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(0), np.int64(5), np.uint32(2**32 - 1),
                                  Label(3)])
def test_check_seed_accepts_64_bit_values_as_int(seed):
    checked = check_seed(seed)
    assert type(checked) is int
    assert checked == int(seed)
