"""Fourier representation of periodic fields on the unit torus T^3.

Conventions (fixed once, used everywhere):

* physical domain is [0,1)^3 with M^3 uniform samples at x_j = j/M;
* modes are integer vectors n with each component in [-M/2, M/2);
* basis functions e_n(x) = exp(2*pi*i n.x), so d/dx_i <-> 2*pi*i*n_i;
* coefficients u_hat[n] = int u(x) e_{-n}(x) dx, i.e. fftn(u)/M^3, and
  Parseval reads  int |u|^2 dx = sum_n |u_hat[n]|^2.

Products of band-limited fields are evaluated pointwise in physical space
and truncated to the dealias cutoff K. The default K satisfies 3K+1 <= M,
so every retained coefficient of a quadratic product is the exact
convolution value (classical 2/3 rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError, GridMismatchError

TWO_PI = 2.0 * np.pi


def default_dealias_cutoff(m: int) -> int:
    """Largest K with 3K+1 <= M (2/3-rule cutoff, alias-free products)."""
    return (m - 1) // 3


@lru_cache(maxsize=None)
def _grid_arrays(m: int, cutoff: int):
    n1 = np.fft.fftfreq(m, d=1.0 / m)  # integer wavenumbers as floats
    nx, ny, nz = np.meshgrid(n1, n1, n1, indexing="ij")
    n = np.stack([nx, ny, nz])
    k2 = nx * nx + ny * ny + nz * nz
    mask = (np.abs(nx) <= cutoff) & (np.abs(ny) <= cutoff) & (np.abs(nz) <= cutoff)
    return n, k2, mask


@lru_cache(maxsize=None)
def _pad_index(m: int, p: int):
    """Index array mapping mode slots of an M-grid onto a P-grid (P >= M)."""
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    return n1 % p


@dataclass(frozen=True)
class Grid:
    """Cubic Fourier grid: M modes per axis on the unit torus."""

    m: int
    dealias_cutoff: int = -1  # -1 resolves to the 2/3-rule default

    def __post_init__(self):
        if self.m <= 0 or self.m % 2 != 0:
            raise ConfigurationError(f"modes_per_axis must be positive even, got {self.m}")
        if self.dealias_cutoff == -1:
            object.__setattr__(self, "dealias_cutoff", default_dealias_cutoff(self.m))
        if not (0 < self.dealias_cutoff <= self.m // 2):
            raise ConfigurationError(
                f"dealias_cutoff must lie in (0, M/2], got {self.dealias_cutoff} for M={self.m}"
            )

    @property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers, shape (3, M, M, M)."""
        return _grid_arrays(self.m, self.dealias_cutoff)[0]

    @property
    def k2(self) -> np.ndarray:
        """|n|^2 per mode, shape (M, M, M)."""
        return _grid_arrays(self.m, self.dealias_cutoff)[1]

    @property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of retained modes |n_i| <= dealias_cutoff."""
        return _grid_arrays(self.m, self.dealias_cutoff)[2]

    def points(self) -> np.ndarray:
        """Physical sample coordinates, shape (3, M, M, M)."""
        x1 = np.arange(self.m) / self.m
        return np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a 3-vector field, shape (3, M, M, M)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        m = self.grid.m
        if self.coeffs.shape != (3, m, m, m):
            raise GridMismatchError(
                f"vector coefficient array has shape {self.coeffs.shape}, want {(3, m, m, m)}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * a)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ScalarField:
    """Fourier coefficients of a scalar field, shape (M, M, M)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        m = self.grid.m
        if self.coeffs.shape != (m, m, m):
            raise GridMismatchError(
                f"scalar coefficient array has shape {self.coeffs.shape}, want {(m, m, m)}"
            )

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * a)

    __rmul__ = __mul__


Field = SpectralField | ScalarField


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


# ---------------------------------------------------------------------------
# transforms


def forward_transform(grid: Grid, samples: np.ndarray) -> Field:
    """Physical samples on the M^3 grid -> Fourier coefficients."""
    m = grid.m
    if samples.shape == (3, m, m, m):
        return SpectralField(grid, sfft.fftn(samples, axes=(-3, -2, -1)) / m**3)
    if samples.shape == (m, m, m):
        return ScalarField(grid, sfft.fftn(samples) / m**3)
    raise GridMismatchError(
        f"sample array shape {samples.shape} matches neither vector nor scalar on M={m}"
    )


def inverse_transform(f: Field) -> np.ndarray:
    """Fourier coefficients -> real physical samples on the native grid."""
    m = f.grid.m
    return sfft.ifftn(f.coeffs * m**3, axes=(-3, -2, -1)).real


def synthesize(f: Field, p: int) -> np.ndarray:
    """Evaluate a field's trigonometric polynomial on a finer P^3 grid.

    Exact for fields whose Nyquist planes are empty (always true for
    dealiased fields and the low-order test functions used here); those
    take the real-to-real route, as every field here is real-valued.
    """
    m = f.grid.m
    if p == m:
        return inverse_transform(f)
    if p < m:
        raise ConfigurationError(f"synthesis grid P={p} finer than source M={m} required")
    c = f.coeffs
    h = m // 2
    if not (c[..., h, :, :].any() or c[..., h, :].any() or c[..., h].any()):
        return _synthesize_real(c, h, p)
    # a populated Nyquist plane: synthesize the full complex spectrum
    idx = _pad_index(m, p)
    if f.coeffs.ndim == 4:
        out = np.zeros((3, p, p, p), dtype=complex)
        out[np.ix_(range(3), idx, idx, idx)] = f.coeffs
    else:
        out = np.zeros((p, p, p), dtype=complex)
        out[np.ix_(idx, idx, idx)] = f.coeffs
    return sfft.ifftn(out * p**3, axes=(-3, -2, -1)).real


def _synthesize_real(c: np.ndarray, h: int, p: int) -> np.ndarray:
    """Real P^3 samples of Hermitian coefficients c (M = 2h per axis) with
    empty Nyquist planes, one axis at a time: the z half-spectrum is
    transformed along y and x only where it is populated, then c2r along z.
    About a third of the work of the padded c2c transform."""
    lead = c.shape[:-3]
    half = c[..., :h]                                   # kz = 0 .. h-1
    a = np.zeros(lead + (2 * h, p, h), dtype=complex)   # pad y to P
    a[..., :h, :] = half[..., :h, :]
    a[..., p - h + 1:, :] = half[..., h + 1:, :]
    a = sfft.ifft(a, axis=-2, norm="forward")
    b = np.zeros(lead + (p, p, h), dtype=complex)       # pad x to P
    b[..., :h, :, :] = a[..., :h, :, :]
    b[..., p - h + 1:, :, :] = a[..., h + 1:, :, :]
    b = sfft.ifft(b, axis=-3, norm="forward", overwrite_x=True)
    return sfft.irfft(b, n=p, axis=-1, norm="forward")


# ---------------------------------------------------------------------------
# differential operators (all per-mode, exact)


def leray_project(u: SpectralField) -> SpectralField:
    """Remove the component parallel to the wavenumber (mean mode untouched).

    Corrections below machine noise are skipped, which makes the projection
    exactly idempotent and leaves already-solenoidal fields bit-identical.
    """
    n = u.grid.wavenumbers
    k2 = u.grid.k2.copy()
    k2[0, 0, 0] = 1.0
    ndotu = np.einsum("ixyz,ixyz->xyz", n, u.coeffs)
    noise = 32 * np.finfo(float).eps * np.sqrt(k2) * np.sqrt(
        np.sum(np.abs(u.coeffs) ** 2, axis=0)
    )
    ndotu = np.where(np.abs(ndotu) > noise, ndotu, 0.0)
    return SpectralField(u.grid, u.coeffs - n * (ndotu / k2))


def divergence(u: SpectralField) -> ScalarField:
    n = u.grid.wavenumbers
    return ScalarField(u.grid, TWO_PI * 1j * np.einsum("ixyz,ixyz->xyz", n, u.coeffs))


def gradient(s: ScalarField) -> SpectralField:
    n = s.grid.wavenumbers
    return SpectralField(s.grid, TWO_PI * 1j * n * s.coeffs[None])


def curl(u: SpectralField) -> SpectralField:
    n = u.grid.wavenumbers
    c = u.coeffs
    w = np.empty_like(c)
    w[0] = n[1] * c[2] - n[2] * c[1]
    w[1] = n[2] * c[0] - n[0] * c[2]
    w[2] = n[0] * c[1] - n[1] * c[0]
    return SpectralField(u.grid, TWO_PI * 1j * w)


def laplacian(f: Field) -> Field:
    k2 = f.grid.k2
    fac = -(TWO_PI**2) * k2
    return type(f)(f.grid, f.coeffs * fac)


def grad_components(u: SpectralField) -> np.ndarray:
    """Coefficients of d u_j / d x_i, shape (3, 3, M, M, M), index [i, j]."""
    n = u.grid.wavenumbers
    return TWO_PI * 1j * n[:, None] * u.coeffs[None, :]


def dealias(f: Field) -> Field:
    return type(f)(f.grid, f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# products and the nonlinear term


def advection_tensor(u: SpectralField, v: SpectralField) -> np.ndarray:
    """Dealiased coefficients of v (x) u, shape (3, 3, M, M, M), index [i, j] = v_i u_j."""
    _require_same_grid(u, v)
    m = u.grid.m
    up = inverse_transform(u)
    vp = inverse_transform(v)
    t = vp[:, None] * up[None, :]
    t_hat = sfft.fftn(t, axes=(-3, -2, -1)) / m**3
    return t_hat * u.grid.dealias_mask


def nonlinear_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """div(v (x) u) with the product dealiased: component j is d_i (v_i u_j)."""
    t_hat = advection_tensor(u, v)
    n = u.grid.wavenumbers
    div = TWO_PI * 1j * np.einsum("ixyz,ijxyz->jxyz", n, t_hat)
    return SpectralField(u.grid, div)


def pressure_from_tensor(grid: Grid, t_hat: np.ndarray) -> ScalarField:
    """p with Delta p = -div div T from tensor coefficients: p_hat = -(n.T n)/|n|^2."""
    n = grid.wavenumbers
    k2 = grid.k2.copy()
    k2[0, 0, 0] = 1.0
    ntn = np.einsum("ixyz,ijxyz,jxyz->xyz", n, t_hat, n)
    p = -ntn / k2
    p[0, 0, 0] = 0.0
    return ScalarField(grid, p)


def solve_pressure(u: SpectralField, advecting: SpectralField | None = None) -> ScalarField:
    """Gradient pressure p = (-Delta)^{-1} div div(v (x) u), v = u by default.

    Passing the mollified velocity as ``advecting`` gives the pressure
    consistent with the Leray-regularized momentum equation.
    """
    v = u if advecting is None else advecting
    return pressure_from_tensor(u.grid, advection_tensor(u, v))


# ---------------------------------------------------------------------------
# norms and diagnostics


def l2_norm(f: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))


def h1_seminorm(f: Field) -> float:
    """L^2 norm of the gradient."""
    k2 = f.grid.k2
    w = (TWO_PI**2) * k2
    if f.coeffs.ndim == 4:
        return float(np.sqrt(np.sum(w * np.sum(np.abs(f.coeffs) ** 2, axis=0))))
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def divergence_residual(u: SpectralField) -> float:
    """max_n |n . u_hat_n| relative to the largest coefficient magnitude."""
    n = u.grid.wavenumbers
    ndotu = np.abs(np.einsum("ixyz,ixyz->xyz", n, u.coeffs))
    scale = np.max(np.abs(u.coeffs))
    if scale == 0.0:
        return 0.0
    return float(np.max(ndotu) / scale)


def mean_mode(f: Field):
    if f.coeffs.ndim == 4:
        return f.coeffs[:, 0, 0, 0]
    return f.coeffs[0, 0, 0]


# ---------------------------------------------------------------------------
# standard initial fields


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Classical Taylor-Green vortex scaled to the unit torus."""
    x = grid.points()
    u = np.empty((3, grid.m, grid.m, grid.m))
    u[0] = np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1]) * np.cos(2 * np.pi * x[2])
    u[1] = -np.cos(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1]) * np.cos(2 * np.pi * x[2])
    u[2] = 0.0
    return forward_transform(grid, amplitude * u)


def random_solenoidal(grid: Grid, seed: int, amp: float = 1.0,
                      smooth: float = 0.0) -> SpectralField:
    """Mean-free, divergence-free, dealiased projection of Philox(seed) white
    noise; ``smooth`` > 0 damps mode n by exp(-smooth |n|^2)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    samples = amp * gen.standard_normal((3, grid.m, grid.m, grid.m))
    c = dealias(leray_project(forward_transform(grid, samples))).coeffs.copy()
    c[:, 0, 0, 0] = 0.0
    if smooth > 0:
        c *= np.exp(-smooth * grid.k2)
    return SpectralField(grid, c)
