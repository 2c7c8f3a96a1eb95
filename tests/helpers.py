"""Shared helpers for the test suite: seeded random samples and fields.

The standard initial fields (``random_solenoidal``, ``taylor_green``) are the
package's own constructors, re-exported here.
"""

import numpy as np

from lsns.spectral import Grid, SpectralField, forward_transform
from lsns.spectral import random_solenoidal, taylor_green  # noqa: F401


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_vector_samples(grid: Grid, seed: int, amp: float = 1.0) -> np.ndarray:
    m = grid.m
    return amp * rng(seed).standard_normal((3, m, m, m))


def random_scalar_samples(grid: Grid, seed: int, amp: float = 1.0) -> np.ndarray:
    m = grid.m
    return amp * rng(seed).standard_normal((m, m, m))


def random_field(grid: Grid, seed: int, amp: float = 1.0) -> SpectralField:
    return forward_transform(grid, random_vector_samples(grid, seed, amp))

