"""Seed derivation for reproducible, schedule-independent sampling.

Every random draw in the package flows through a Generator built from an
explicit integer entropy tuple, so per-chunk streams are pure functions of
(master seed, stream labels, chunk index) and the order in which units
are drawn cannot change results.
"""

from __future__ import annotations

import numpy as np


def derived_rng(*entropy: int) -> np.random.Generator:
    """Generator for the stream named by an integer tuple."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(e) for e in entropy)))
