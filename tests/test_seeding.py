import numpy as np
import pytest

from combsync.errors import InvalidArgument
from combsync.noisegen import NoiseKind, NoiseSpec
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


@pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-5), Label(-1)])
def test_check_seed_rejects_out_of_range(seed):
    with pytest.raises(InvalidArgument, match="seed must be a 64-bit unsigned integer"):
        check_seed(seed)


@pytest.mark.parametrize("seed", [7.5, 7.0, float("nan"), float("inf"), "7", "12", b"12", True, False,
                                  np.bool_(True), np.float64(3.0), None, [1]])
def test_check_seed_rejects_non_integers_naming_the_value(seed):
    with pytest.raises(InvalidArgument, match="seed must be an integer, got") as info:
        check_seed(seed)
    assert repr(seed) in str(info.value)


def test_fractional_seed_is_not_truncated_by_a_noise_spec():
    with pytest.raises(InvalidArgument, match="7.5"):
        NoiseSpec(NoiseKind.WHITE_FM, 1.0, seed=7.5)
