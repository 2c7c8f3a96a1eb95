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

Layouts. Every field is stored in the full layout, shape (..., M, M, M)
in ``fftfreq`` order, which is what ``SpectralField`` and the snapshots
hold. The quadratic products (advection tensor, nonlinear term, pressure)
and the noise fields, stacked (N, 3, R), work on the retained
half-spectrum instead: the (2K+1)^2 (K+1) modes with |n_x|, |n_y| <= K and
0 <= n_z <= K, listed by ``ModeMap`` (``Grid.modes``, cached per (M, K))
as flat indices into the full layout and into the ``rfftn`` layout
(M, M, M//2+1). ``gather`` takes a full-layout array to those modes;
``scatter`` puts retained values back and fills each mode n_z < 0 with the
conjugate of its partner -n, so a real field's spectrum comes back
Hermitian and zero outside the cut. The Leray projection and the curl are
kernels on a list of modes (``_project``, ``_curl``) serving both layouts.

Synthesis. ``synthesize`` evaluates a field, or a stack of fields in either
layout, one field at a time, by real transforms of the z half-spectrum. On
the native grid (the inverse transform) that is one c2r ``irfftn``, exact
for a real field's Hermitian spectrum, Nyquist planes included. On a finer
P^3 grid (the ledgers' exact grids and the 2M pad) it transforms only the
populated coefficient box |n_x|, |n_y| <= b, 0 <= n_z <= b: y inverse
transforms of its lines, x inverse transforms of the P (b+1) lines they
fill, then a c2r transform along z (``_synthesize_box``). Retained-mode
values are that box already (b = K, in ``ModeMap`` order), so they are
never scattered; a full layout is cut to b = M/2 - 1, and a field with more
than round-off on a Nyquist plane is refused there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError, GridMismatchError

TWO_PI = 2.0 * np.pi
# the round-off of an FFT of samples, relative to the largest coefficient
_ROUNDOFF = 64 * np.finfo(float).eps


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


@dataclass(frozen=True)
class ModeMap:
    """The retained half-spectrum of a grid (see the module docstring)."""

    full: np.ndarray        # (R,) flat indices into the (M, M, M) layout
    half: np.ndarray        # (R,) flat indices into the rfftn (M, M, M//2+1) layout
    n: np.ndarray           # (3, R) wavenumbers
    k2: np.ndarray          # (R,) |n|^2
    mirror_src: np.ndarray  # retained modes whose partner -n is not retained
    mirror: np.ndarray      # full-layout flat indices of those partners


@lru_cache(maxsize=None)
def _mode_map(m: int, cutoff: int) -> ModeMap:
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    keep = np.flatnonzero(np.abs(n1) <= cutoff)
    ix, iy, iz = (a.ravel() for a in np.meshgrid(keep, keep, np.arange(cutoff + 1),
                                                  indexing="ij"))
    full = (ix * m + iy) * m + iz
    mirror = ((-n1[ix] % m) * m + (-n1[iy] % m)) * m + (-n1[iz] % m)
    src = np.flatnonzero(~np.isin(mirror, full))
    n, k2, _ = _grid_arrays(m, cutoff)
    return ModeMap(full=full, half=(ix * m + iy) * (m // 2 + 1) + iz,
                   n=n.reshape(3, -1)[:, full], k2=k2.reshape(-1)[full],
                   mirror_src=src, mirror=mirror[src])


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

    @property
    def modes(self) -> ModeMap:
        """The retained half-spectrum the product kernel works on."""
        return _mode_map(self.m, self.dealias_cutoff)

    def points(self) -> np.ndarray:
        """Physical sample coordinates, shape (3, M, M, M)."""
        x1 = np.arange(self.m) / self.m
        return np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Fourier coefficients on a grid, shape ``LEAD`` + (M, M, M): a
    ``SpectralField`` or a ``ScalarField``."""

    grid: Grid
    coeffs: np.ndarray
    LEAD = ()

    def __post_init__(self):
        want = self.LEAD + (self.grid.m,) * 3
        if self.coeffs.shape != want:
            raise GridMismatchError(
                f"{type(self).__name__} coefficient array has shape {self.coeffs.shape}, "
                f"want {want}"
            )

    def __sub__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, a: float):
        return type(self)(self.grid, self.coeffs * a)

    __rmul__ = __mul__


class SpectralField(Field):
    """Truncated Fourier coefficients of a 3-vector field, shape (3, M, M, M)."""

    LEAD = (3,)


class ScalarField(Field):
    """Fourier coefficients of a scalar field, shape (M, M, M)."""


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


# ---------------------------------------------------------------------------
# transforms


def forward_transform(grid: Grid, samples: np.ndarray) -> Field:
    """Physical samples on the M^3 grid, (3, M, M, M) or (M, M, M) -> Fourier
    coefficients."""
    cls = SpectralField if samples.ndim == 4 else ScalarField
    return cls(grid, sfft.fftn(samples, axes=(-3, -2, -1)) / grid.m**3)


def synthesize(f: Field | np.ndarray, p: int, grid: Grid | None = None) -> np.ndarray:
    """Evaluate trigonometric polynomials on a P^3 grid, P >= M (P = M: the
    inverse transform).

    ``f`` is a field, or a coefficient stack on ``grid`` with any leading
    axes: full-layout coefficients (..., M, M, M) or retained-mode values
    (..., R). The samples (..., P, P, P) are filled one field at a time (the
    last leading axis holds a field's components), so a stack costs its
    output and one field's transform.

    Real routes for real fields (Hermitian spectra). At P = M, one c2r
    ``irfftn`` of the z half-spectrum (retained modes are put there through
    ``ModeMap.half``), exact with populated Nyquist planes too. At P > M,
    ``_synthesize_box`` of the populated coefficient box: the retained modes
    themselves, or |n_i| < M/2 of the full layout (which retained modes
    reaching the Nyquist planes, K = M/2, are scattered to). That is exact
    when the Nyquist planes are empty: every dealiased field, and the noise
    coefficient fields, which the config checks. A Nyquist plane holding
    more than round-off (``has_nyquist``) has no unique real extension to a
    finer grid, so at P > M it raises rather than losing that content.
    """
    grid, c = (f.grid, f.coeffs) if grid is None else (grid, f)
    m, k = grid.m, grid.dealias_cutoff
    if p < m:
        raise ConfigurationError(f"synthesis grid P={p} finer than source M={m} required")
    full = c.shape[-3:] == (m, m, m)
    if not full and 2 * k + 1 > m:  # K = M/2: the retained modes reach the Nyquist planes
        c, full = scatter(grid, c), True
    lead = c.shape[:-3] if full else c.shape[:-1]
    h = m // 2
    b = h - 1 if full else k  # the box: |n_i| < M/2, or the retained modes
    if p > m:  # the retained modes, every StepView field's box, keep their buffers
        buffers = (_pass_buffers if full else _kept_pass_buffers)(lead[-1:], b, p)
        keep = np.r_[0:b + 1, m - b:m]  # the box's rows, in fftfreq order
    out = np.empty(lead + (p, p, p))
    for i in np.ndindex(lead[:-1]):
        field = c[i]
        if p == m:
            if not full:  # into the rfftn layout
                half = np.zeros(field.shape[:-1] + (m * m * (h + 1),), dtype=complex)
                half[..., grid.modes.half] = field
                field = half.reshape(field.shape[:-1] + (m, m, h + 1))
            out[i] = sfft.irfftn(field[..., :h + 1], s=(m, m, m), axes=(-3, -2, -1),
                                 norm="forward")
            continue
        if full and has_nyquist(field):
            raise ConfigurationError(
                f"field with a populated Nyquist plane (|n_i| = M/2) cannot be synthesized "
                f"exactly on P={p} > M={m}")
        box = (field[..., keep[:, None], keep, :b + 1] if full
               else field.reshape(field.shape[:-1] + (2 * b + 1, 2 * b + 1, b + 1)))
        _synthesize_box(box, out[i], buffers)
    return out


def has_nyquist(c: np.ndarray) -> bool:
    """Whether full-layout coefficients c (..., M, M, M) hold more than
    round-off on a Nyquist plane (index M/2 on some axis): 64 eps of the
    largest coefficient (``_ROUNDOFF``, which a finer grid may drop)."""
    h = c.shape[-1] // 2
    planes = (c[..., h, :, :], c[..., h, :], c[..., h])
    if not any(a.any() for a in planes):
        return False
    tol = _ROUNDOFF * np.max(np.abs(c))
    return any(np.max(np.abs(a)) > tol for a in planes)


def is_real_spectrum(c: np.ndarray) -> bool:
    """Whether full-layout coefficients c (..., M, M, M) are the spectrum of
    real samples: c[n] = conj c[-n] to ``has_nyquist``'s round-off."""
    axes = (-3, -2, -1)
    defect = np.abs(c - np.roll(np.flip(c, axes), 1, axes).conj())
    return np.max(defect, initial=0.0) <= _ROUNDOFF * np.max(np.abs(c), initial=0.0)


def _pass_buffers(lead: tuple, b: int, p: int) -> tuple:
    """The buffers of ``_synthesize_box``'s y and x passes for a box of
    half-width b with leading axes ``lead``."""
    return (np.empty(lead + (2 * b + 1, p, b + 1), dtype=complex),
            np.empty(lead + (p, p, b + 1), dtype=complex))


# the retained-mode boxes' buffers, kept across calls
_kept_pass_buffers = lru_cache(maxsize=8)(_pass_buffers)


def _synthesize_box(box: np.ndarray, out: np.ndarray, buffers: tuple):
    """Real P^3 samples ``out`` (..., P, P, P) of a real field whose
    coefficients (n_x, n_y, n_z) lie in the box |n_x|, |n_y| <= b,
    0 <= n_z <= b (b < P/2), given as ``box`` (..., 2b+1, 2b+1, b+1) in
    ``fftfreq`` order on the first two axes (the retained-mode order of
    ``ModeMap``; the n_z < 0 half follows by symmetry). One axis at a time
    through ``_pass_buffers``, only where the box is populated: y inverse
    transforms of its (2b+1)(b+1) lines, x of the P(b+1) they fill, then c2r
    along z."""
    b, p = box.shape[-1] - 1, out.shape[-1]
    ya, xa = buffers  # each filled whole, padding too: the passes run in place
    ya[..., :b + 1, :] = box[..., :b + 1, :]
    ya[..., b + 1:p - b, :] = 0
    ya[..., p - b:, :] = box[..., b + 1:, :]
    y = sfft.ifft(ya, axis=-2, norm="forward", overwrite_x=True)
    xa[..., :b + 1, :, :] = y[..., :b + 1, :, :]
    xa[..., b + 1:p - b, :, :] = 0
    xa[..., p - b:, :, :] = y[..., b + 1:, :, :]
    x = sfft.ifft(xa, axis=-3, norm="forward", overwrite_x=True)
    # numpy's c2r zero-pads each line to P/2+1 in a line buffer, where scipy
    # pads the whole array, and writes into out: the same bits
    np.fft.irfft(x, n=p, axis=-1, norm="forward", out=out)


# ---------------------------------------------------------------------------
# differential operators (all per-mode, exact)


def leray_project(u: SpectralField) -> SpectralField:
    """Remove the component parallel to the wavenumber (mean mode untouched).

    Corrections below machine noise are skipped, which makes the projection
    exactly idempotent and leaves already-solenoidal fields bit-identical.
    """
    g = u.grid
    c = _project(g.wavenumbers.reshape(3, -1), g.k2.reshape(-1), u.coeffs.reshape(3, -1))
    return SpectralField(g, c.reshape(u.coeffs.shape))


def project_modes(grid: Grid, c: np.ndarray) -> np.ndarray:
    """``leray_project`` of retained-mode values (..., 3, R): the same kernel,
    so each mode gets the same bits in either layout."""
    return _project(grid.modes.n, grid.modes.k2, c)


def _project(n: np.ndarray, k2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Leray kernel on a list of modes: wavenumbers n (3, R), |n|^2 (R,),
    values c (..., 3, R)."""
    k2 = np.maximum(k2, 1.0)  # |n|^2 >= 1 off the mean mode, where n.c = 0
    ndotu = np.einsum("ir,...ir->...r", n, c)
    noise = 32 * np.finfo(float).eps * np.sqrt(k2) * np.sqrt(np.sum(np.abs(c) ** 2, axis=-2))
    ndotu = np.where(np.abs(ndotu) > noise, ndotu, 0.0)
    return c - n * (ndotu / k2)[..., None, :]


def divergence(u: SpectralField) -> ScalarField:
    n = u.grid.wavenumbers
    return ScalarField(u.grid, TWO_PI * 1j * np.einsum("ixyz,ixyz->xyz", n, u.coeffs))


def gradient(s: ScalarField) -> SpectralField:
    n = s.grid.wavenumbers
    return SpectralField(s.grid, TWO_PI * 1j * n * s.coeffs[None])


def curl(u: SpectralField) -> SpectralField:
    c = _curl(u.grid.wavenumbers.reshape(3, -1), u.coeffs.reshape(3, -1))
    return SpectralField(u.grid, c.reshape(u.coeffs.shape))


def curl_modes(grid: Grid, c: np.ndarray) -> np.ndarray:
    """``curl`` of retained-mode values (..., 3, R), by the same kernel."""
    return _curl(grid.modes.n, c)


def _curl(n: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The curl kernel 2 pi i n x c on a list of modes (see ``_project``)."""
    c0, c1, c2 = c[..., 0, :], c[..., 1, :], c[..., 2, :]
    w = np.stack([n[1] * c2 - n[2] * c1, n[2] * c0 - n[0] * c2, n[0] * c1 - n[1] * c0], axis=-2)
    return TWO_PI * 1j * w


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
# products and the nonlinear term, on the retained half-spectrum


def gather(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Full-layout coefficients (..., M, M, M) -> their retained modes (..., R)."""
    return coeffs.reshape(coeffs.shape[:-3] + (-1,))[..., grid.modes.full]


def scatter(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Retained-mode values (..., R) of a real field -> its full layout, with
    the Hermitian partners filled in and every other mode zero."""
    mm, m = grid.modes, grid.m
    lead = values.shape[:-1]
    out = np.zeros(lead + (m**3,), dtype=complex)
    out[..., mm.full] = values
    out[..., mm.mirror] = values[..., mm.mirror_src].conj()
    return out.reshape(lead + (m, m, m))


def product_modes(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dealiased coefficients of v (x) u on the retained modes, shape
    (3, 3, R), index [i, j] = v_i u_j, from retained-mode u and v (3, R):
    one irfftn of both, the 9 pointwise products, one rfftn."""
    mm, m = grid.modes, grid.m
    h = m // 2 + 1
    half = np.zeros((6, m * m * h), dtype=complex)
    half[:3, mm.half] = v
    half[3:, mm.half] = u
    phys = sfft.irfftn(half.reshape(6, m, m, h), s=(m, m, m), axes=(-3, -2, -1),
                       norm="forward")
    t = phys[:3, None] * phys[None, 3:]
    t_hat = sfft.rfftn(t, axes=(-3, -2, -1), norm="forward", overwrite_x=True)
    return t_hat.reshape(3, 3, -1)[..., mm.half]


def divergence_and_pressure(grid: Grid, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n.T, p) on the retained modes from a product tensor T (3, 3, R):
    component j of n.T is sum_i n_i T_ij (so div T = 2 pi i n.T), and
    p = -(n.T.n)/|n|^2 solves Delta p = -div div T (p = 0 at n = 0)."""
    mm = grid.modes
    n = mm.n
    nt = n[0] * t[0] + n[1] * t[1] + n[2] * t[2]
    k2 = mm.k2.copy()
    k2[0] = 1.0  # the mean mode comes first
    p = -(n[0] * nt[0] + n[1] * nt[1] + n[2] * nt[2]) / k2
    p[0] = 0.0
    return nt, p


def _field_product(u: SpectralField, v: SpectralField) -> np.ndarray:
    _require_same_grid(u, v)
    g = u.grid
    return product_modes(g, gather(g, u.coeffs), gather(g, v.coeffs))


def advection_tensor(u: SpectralField, v: SpectralField) -> np.ndarray:
    """Dealiased coefficients of v (x) u, shape (3, 3, M, M, M), index [i, j] = v_i u_j."""
    return scatter(u.grid, _field_product(u, v))


def nonlinear_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """div(v (x) u) with the product dealiased: component j is d_i (v_i u_j)."""
    nt, _ = divergence_and_pressure(u.grid, _field_product(u, v))
    return SpectralField(u.grid, scatter(u.grid, TWO_PI * 1j * nt))


def solve_pressure(u: SpectralField, advecting: SpectralField | None = None) -> ScalarField:
    """Gradient pressure p = (-Delta)^{-1} div div(v (x) u), v = u by default.

    Passing the mollified velocity as ``advecting`` gives the pressure
    consistent with the Leray-regularized momentum equation.
    """
    v = u if advecting is None else advecting
    _, p = divergence_and_pressure(u.grid, _field_product(u, v))
    return ScalarField(u.grid, scatter(u.grid, p))


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
    return f.coeffs[..., 0, 0, 0]


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
