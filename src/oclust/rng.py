"""Deterministic seed derivation helpers.

Every random draw in the package flows from a single user seed.  Substreams
are derived with ``numpy.random.SeedSequence`` keyed by integer tags so that
independent pieces of work (restarts, clusters, generated points) get
independent, reproducible streams regardless of execution order.
"""

from __future__ import annotations

import numpy as np


def check_seed(seed: int) -> int:
    """``seed`` itself, or ``ValueError`` naming it when it is negative."""
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of integer tags into a single 64-bit seed."""
    ss = np.random.SeedSequence(list(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def substream(*parts: int) -> np.random.Generator:
    """A fresh generator keyed by the given integer tags."""
    return np.random.default_rng(np.random.SeedSequence(list(int(p) for p in parts)))
