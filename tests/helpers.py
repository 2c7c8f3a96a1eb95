"""Shared helpers for the test suite: seeded random fields and oracles.

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


def dft_oracle(samples: np.ndarray) -> np.ndarray:
    """Direct O(M^6) DFT sum, the brute-force oracle for forward_transform."""
    m = samples.shape[-1]
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    x1 = np.arange(m) / m
    w = np.exp(-2j * np.pi * np.outer(n1, x1))  # w[n, j] = e^{-2 pi i n x_j}
    return np.einsum("ax,by,cz,...xyz->...abc", w, w, w, samples) / m**3


def convolution_oracle(a_hat: np.ndarray, b_hat: np.ndarray, cutoff: int) -> np.ndarray:
    """Exact convolution of two M-grid spectra restricted to |n_i| <= cutoff."""
    m = a_hat.shape[-1]
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    out = np.zeros_like(a_hat)
    idx = {int(n): i for i, n in enumerate(n1)}
    for na in np.ndindex(m, m, m):
        va = a_hat[na]
        if va == 0.0:
            continue
        pa = (n1[na[0]], n1[na[1]], n1[na[2]])
        for nb in np.ndindex(m, m, m):
            vb = b_hat[nb]
            if vb == 0.0:
                continue
            s = (pa[0] + n1[nb[0]], pa[1] + n1[nb[1]], pa[2] + n1[nb[2]])
            if max(abs(s[0]), abs(s[1]), abs(s[2])) <= cutoff:
                out[idx[s[0]], idx[s[1]], idx[s[2]]] += va * vb
    return out
