"""Deterministic derivation of independent random streams.

Every stochastic routine in the toolkit takes an explicit integer seed.
Sub-streams (per noise source, per clock, per trial) are derived by
folding integer labels into a ``SeedSequence`` so that changing one
label never perturbs the others.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument


def derive_seed(*parts: int) -> int:
    """Fold non-negative integer parts into one 64-bit stream seed."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def check_seed(seed: int) -> int:
    """The seed as an int.

    Only a Python or numpy integer in [0, 2**64) is a seed; a bool, a
    float, a string or anything else raises InvalidArgument.
    """
    if type(seed) is not int:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise InvalidArgument(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidArgument(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed
