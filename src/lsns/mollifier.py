"""Mollification by a radial kernel, implemented as a Fourier multiplier.

On the torus, convolution with the periodization of psi_eps(x) =
eps^{-3} psi(x/eps) multiplies the coefficient of mode n by the continuous
Fourier transform of psi evaluated at q = eps*n (Poisson summation), so a
single radial profile m(q) describes every grid and cutoff.

Two kernel kinds are built in:

* ``paper_bump`` -- the compactly supported bump psi(x) ~ exp(-1/(1-|x|^2))
  on B_1, normalized to unit mass (satisfies 0 <= psi <= 1). Its transform
  is computed by adaptive quadrature. The raw transform oscillates through
  zero beyond its main lobe (first zero near q ~ 1.04); past the point
  where it drops below a small threshold the profile is continued by a
  positive, strictly decreasing exponential tail so that the multiplier is
  positive and monotone for every mode. Inside the main lobe the
  multiplier equals the exact quadrature value.
* ``gaussian`` -- the transform exp(-2 pi^2 sigma^2 |n|^2) of a Gaussian
  with standard deviation sigma = eps/2 (= exp(-pi^2 q^2 / 2) in q).
  Fast and exactly positive/monotone, but the kernel is not compactly
  supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import ConfigurationError, GridMismatchError
from .spectral import Field, Grid

KINDS = ("paper_bump", "gaussian")

# below this value the bump transform is continued by the monotone tail
_BUMP_TAIL_THRESHOLD = 1e-3


def _bump_radial(r: float) -> float:
    if r >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - r * r)))


@lru_cache(maxsize=1)
def bump_mass() -> float:
    """int_{B_1} exp(-1/(1-|x|^2)) dx (the normalizing constant's inverse)."""
    val, _ = quad(lambda r: 4.0 * np.pi * r * r * _bump_radial(r), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def bump_transform_raw(q: float) -> float:
    """Fourier transform of the unit-mass bump at radial frequency q.

    F(q) = (1/mass) * int_0^1 4 pi r^2 psi(r) sinc(2 pi q r) dr; real and
    even because the kernel is radial.
    """
    if q == 0.0:
        return 1.0
    val, _ = quad(
        lambda r: 4.0 * np.pi * r * _bump_radial(r) * np.sin(2.0 * np.pi * q * r)
        / (2.0 * np.pi * q),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    return val / bump_mass()


@lru_cache(maxsize=1)
def _bump_knee() -> tuple[float, float]:
    """(q*, F(q*)) where the raw transform first reaches the tail threshold."""
    lo, hi = 0.0, 1.5
    qs = np.linspace(0.0, hi, 151)
    prev = 1.0
    for q in qs[1:]:
        v = bump_transform_raw(float(q))
        if v <= _BUMP_TAIL_THRESHOLD:
            hi = float(q)
            break
        lo, prev = float(q), v
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bump_transform_raw(mid) <= _BUMP_TAIL_THRESHOLD:
            hi = mid
        else:
            lo = mid
    return lo, bump_transform_raw(lo)


@lru_cache(maxsize=200_000)
def _bump_raw_cached(q_key: float) -> float:
    return bump_transform_raw(q_key)


@lru_cache(maxsize=200_000)
def _bump_multiplier_cached(q_key: float) -> float:
    q_star, v_star = _bump_knee()
    if q_key <= q_star:
        return min(bump_transform_raw(q_key), 1.0)
    return v_star * float(np.exp(-(q_key - q_star)))


def radial_multiplier(kind: str, q: np.ndarray | float, raw: bool = False) -> np.ndarray:
    """Multiplier profile m(q) for |q| = eps * |n|; vectorized over q >= 0.

    With ``raw=True`` the bump profile is the exact transform including its
    oscillating tail (used by the dissipation diagnostics, where fidelity to
    the physical kernel matters); the default profile carries the positive
    monotone tail continuation required of solver mollifiers.
    """
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if kind == "gaussian":
        # kernel std dev sigma = eps/2 => exp(-2 pi^2 (eps/2)^2 |n|^2) with q = eps|n|
        out = np.exp(-0.5 * np.pi**2 * q_arr**2)
    elif kind == "paper_bump":
        fn = _bump_raw_cached if raw else _bump_multiplier_cached
        out = np.array([fn(round(float(v), 12)) for v in q_arr])
    else:
        raise ConfigurationError(f"unknown mollifier kind {kind!r}; choose from {KINDS}")
    if not raw:
        out = np.maximum(out, np.finfo(float).tiny)  # strictly positive past underflow
    return out if np.ndim(q) else float(out[0])


@dataclass(frozen=True)
class Mollifier:
    """Radial smoothing kernel at scale epsilon, realized per-grid."""

    grid: Grid
    epsilon: float
    kind: str
    multiplier: np.ndarray  # (M, M, M) real, in (0, 1]


@lru_cache(maxsize=64)
def _multiplier_array(m: int, cutoff: int, epsilon: float, kind: str) -> np.ndarray:
    arr = multiplier_on_modes(kind, epsilon, Grid(m, cutoff).k2)
    arr.flags.writeable = False
    return arr


def make_mollifier(grid: Grid, epsilon: float, kind: str = "paper_bump") -> Mollifier:
    if epsilon <= 0:
        raise ConfigurationError(f"mollifier scale must be positive, got {epsilon}")
    if kind not in KINDS:
        raise ConfigurationError(f"unknown mollifier kind {kind!r}; choose from {KINDS}")
    arr = _multiplier_array(grid.m, grid.dealias_cutoff, float(epsilon), kind)
    return Mollifier(grid, float(epsilon), kind, arr)


def mollify(f: Field, m: Mollifier) -> Field:
    if f.grid != m.grid:
        raise GridMismatchError("field and mollifier live on different grids")
    return type(f)(f.grid, f.coeffs * m.multiplier)


def multiplier_on_modes(kind: str, epsilon: float, k2: np.ndarray,
                        raw: bool = False) -> np.ndarray:
    """Multiplier values for arbitrary squared wavenumbers (padded grids)."""
    k2int = np.rint(k2).astype(np.int64)
    uniq, inv = np.unique(k2int, return_inverse=True)
    prof = radial_multiplier(kind, epsilon * np.sqrt(uniq.astype(float)), raw=raw)
    return prof[inv].reshape(k2.shape)
