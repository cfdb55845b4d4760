"""Deterministic derivation of independent random streams.

Every stochastic routine in the toolkit takes an explicit integer seed.
Sub-streams (per noise source, per clock, per trial) are derived by
folding integer labels into a ``SeedSequence`` so that changing one
label never perturbs the others.
"""

from __future__ import annotations

import numpy as np

from .errors import _count


def derive_seed(*parts: int) -> int:
    """Fold non-negative integer parts into one 64-bit stream seed."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def check_seed(seed: int) -> int:
    """The seed as an int: the count rule of ``errors`` from 0 up to 2**64."""
    return _count("seed", seed, 0, 64)
