"""Duchon-Robert dissipation diagnostics: the structure-function integrand
D^l(u), the commutator E^l, the algebraic identity linking them, and the
time-integrated dissipation ledger with its l -> 0 Cauchy diagnostic.

With (g)_l denoting mollification at scale l and summation over repeated
indices, the Fourier-route integrand is

    4 D^l(u) = u^i d_i (u^j u^j)_l - d_i (u^i u^j u^j)_l
             + 2 u^j d_i (u^i u^j)_l - 2 u^i u^j d_i (u^j)_l
             = div[ u (|u|^2)_l - (u |u|^2)_l ] + 2 E^l,
    E^l      = u^j d_i (u^i u^j)_l - u^i u^j d_i (u^j)_l ,

an exact identity for divergence-free u when every product is alias-free.
The pointwise checks (``dr_integrand``, the identity check) evaluate the
four terms with one kernel (``DRKernel``) on the 2M grid, which resolves
even the triple products exactly under the strict 3K+1 <= M cutoff rule, so
the pointwise residual of the identity is at roundoff level.

The time-integrated ledger needs only int s 4 D^l(u) dx, and never returns
to physical space per scale: by discrete Parseval each term is a spectral
inner product, so the sum is sum_k m_l(k) G(k) over one half-spectrum,
with G built once per state from 19 forward transforms of products (plus
u) and independent of l (``DRPairing``). Every pairing's two factors have
per-axis bandwidths summing to 3K + bw (bw that of the spatial factor s),
so the inner products are exact on any grid P > 3K + bw; the ledger uses
the smallest even one, the energy ledger's flux grid.

The defining displacement integral (1/4) int grad(alpha_l)(y) . delta_y u
|delta_y u|^2 dy is also provided as a quadrature oracle on a tensor
midpoint grid of displacements (spectrally accurate: the integrand is smooth
and compactly supported inside the quadrature box).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .energy import SupermartingaleReport, one_sided_test
from .errors import ConfigurationError
from .mollifier import bump_mass, multiplier_on_modes
from .persist import atomic_write_json
from .spectral import Grid, ScalarField, SpectralField, synthesize
from .stepview import SUM, Ledger, StepView
from .testfunc import TestFunction


@dataclass(frozen=True)
class DRConfig:
    """Mollifier ladder for the dissipation ledger."""

    ell_values: tuple = (1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32)
    alpha_kind: str = "paper_bump"

    def __post_init__(self):
        e = tuple(float(v) for v in self.ell_values)
        object.__setattr__(self, "ell_values", e)
        if not e or any(v <= 0 for v in e):
            raise ConfigurationError("ell values must be positive")
        if list(e) != sorted(e, reverse=True) or len(set(e)) != len(e):
            raise ConfigurationError("ell values must be strictly decreasing")
        if max(e) > 0.25:
            raise ConfigurationError("largest ell must not exceed 1/4 (kernel support)")

    def validate_resolution(self, grid: Grid):
        for v in self.ell_values:
            _check_ell(v, grid)


def _check_ell(ell: float, grid: Grid):
    # kernel support diameter 2*ell must span at least two grid cells
    if not (1.0 / grid.m <= ell <= 0.25):
        raise ConfigurationError(
            f"ell={ell} outside the resolved range [1/M, 1/4] on M={grid.m}"
        )


def _fft(vals):
    return sfft.fftn(vals, axes=(-3, -2, -1)) / vals.shape[-1] ** 3


def _ifft(spec):
    return sfft.ifftn(spec * spec.shape[-1] ** 3, axes=(-3, -2, -1)).real


class DRKernel:
    """The Fourier-route terms of 4 D^l(u) for one state on a work grid.

    Construction transforms the products every scale shares, once: u,
    |u|^2, u_i u_j (i <= j) and u_i |u|^2 (11 forward FFTs). ``terms``
    then evaluates the four pointwise terms at one scale from its kernel
    multiplier (24 inverse FFTs).
    """

    def __init__(self, u_phys: np.ndarray, usq: np.ndarray):
        p = u_phys.shape[-1]
        self.p = p
        self.n = Grid(p).wavenumbers
        self.u, self.usq = u_phys, usq
        self.usq_hat = _fft(usq)
        self.pair_hat = np.empty((3, 3, p, p, p), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                self.pair_hat[i, j] = self.pair_hat[j, i] = _fft(u_phys[i] * u_phys[j])
        self.triple_hat = np.stack([_fft(u_phys[i] * usq) for i in range(3)])
        self.u_hat = _fft(u_phys)

    @classmethod
    def of(cls, u: SpectralField, ell: float, kind: str):
        """(kernel on the doubled grid of u, multiplier of scale ell)."""
        _check_ell(ell, u.grid)
        u_phys = synthesize(u, 2 * u.grid.m)
        kernel = cls(u_phys, np.sum(u_phys * u_phys, axis=0))
        return kernel, multiplier_on_modes(kind, ell, Grid(kernel.p).k2, raw=True)

    def d_smooth(self, spec, i: int, mult):
        """d_i (g)_l pointwise, from the spectrum of g."""
        return _ifft(2j * np.pi * self.n[i] * (spec * mult))

    def terms(self, mult):
        u = self.u
        t1, t2, t3, t4 = (np.zeros_like(self.usq) for _ in range(4))
        for i in range(3):
            t1 += u[i] * self.d_smooth(self.usq_hat, i, mult)
            t2 -= self.d_smooth(self.triple_hat[i], i, mult)
            for j in range(3):
                t3 += 2.0 * u[j] * self.d_smooth(self.pair_hat[i, j], i, mult)
                t4 -= 2.0 * u[i] * u[j] * self.d_smooth(self.u_hat[j], i, mult)
        return t1, t2, t3, t4


_PAIRS = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # (i, j) -> row of u_i u_j


class DRPairing:
    """int s 4 D^l(u) dx at every scale l, by discrete Parseval on the P grid
    of the spatial weight s: 0.25 * sum(m_l * G) = int s D^l(u) dx, with m_l
    a kernel multiplier on the grid's ``rfftn`` half-spectrum (``multiplier``)
    and G from one state (``weight``). Exact for P > 3K + bw."""

    def __init__(self, s: np.ndarray):
        p = s.shape[-1]
        self.p = p
        self.s = s
        self.s_hat = sfft.rfftn(s, norm="forward")
        n1 = np.fft.fftfreq(p, d=1.0 / p)
        self.n = np.stack(np.meshgrid(n1, n1, np.arange(p // 2 + 1.0), indexing="ij"))
        # a mode of the half-spectrum stands for itself and its conjugate
        # partner, except on the self-conjugate n_z = 0 and Nyquist planes
        self.parseval = np.full(p // 2 + 1, 2.0)
        self.parseval[[0, -1]] = 1.0

    def multiplier(self, kind: str, ell: float) -> np.ndarray:
        return multiplier_on_modes(kind, ell, np.sum(self.n * self.n, axis=0), raw=True)

    def weight(self, u: np.ndarray, usq: np.ndarray) -> np.ndarray:
        """G(k) = Re sum_i 2 pi i n_i H_i(k), Parseval weights included, from
        u and |u|^2 on the P grid, where with F the forward transform
        H_i = conj(F[s u_i]) F[|u|^2] - conj(F[s]) F[u_i |u|^2]
              + 2 sum_j (conj(F[s u_j]) F[u_i u_j] - conj(F[s u_i u_j]) F[u_j])
        pairs s with the four terms of 4 D^l (one transform batch)."""
        s = self.s
        uu = np.stack([u[i] * u[j] for i in range(3) for j in range(i, 3)])
        hat = sfft.rfftn(np.concatenate([s * u, usq[None], u * usq, uu, s * uu, u]),
                         axes=(-3, -2, -1), norm="forward")
        su, usq_hat, triple, pair, spair, u_hat = (
            hat[:3], hat[3], hat[4:7], hat[7:13][_PAIRS], hat[13:19][_PAIRS], hat[19:])
        h = (su.conj() * usq_hat - self.s_hat.conj() * triple
             + 2.0 * (np.einsum("j...,ij...->i...", su.conj(), pair)
                      - np.einsum("ij...,j...->i...", spair.conj(), u_hat)))
        return -2.0 * np.pi * np.einsum("i...,i...->...", self.n, h.imag) * self.parseval


def dr_integrand(u: SpectralField, ell: float, kind: str = "paper_bump") -> ScalarField:
    """D^l(u) via the Fourier route, exact on the doubled grid it returns."""
    kernel, mult = DRKernel.of(u, ell, kind)
    vals = sum(kernel.terms(mult)) / 4.0
    return ScalarField(Grid(kernel.p), _fft(vals))


def commutator_identity_check(u: SpectralField, ell: float,
                              kind: str = "paper_bump") -> float:
    """Pointwise relative residual of 4 D^l = div[u(|u|^2)_l - (u|u|^2)_l] + 2 E^l."""
    kernel, mult = DRKernel.of(u, ell, kind)
    t1, t2, t3, t4 = kernel.terms(mult)
    lhs = t1 + t2 + t3 + t4

    # t2 = -div (u|u|^2)_l; div[u (|u|^2)_l] is transformed separately
    w_hat = _fft(kernel.u * _ifft(kernel.usq_hat * mult))
    div = t2.copy()
    for i in range(3):
        div += _ifft(2j * np.pi * kernel.n[i] * w_hat[i])
    e_l = 0.5 * (t3 + t4)
    rhs = div + 2.0 * e_l
    scale = np.max(np.abs(lhs))
    if scale == 0.0:
        return float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# displacement-quadrature oracle


def _kernel_gradient(kind: str, z: np.ndarray) -> np.ndarray:
    """grad alpha at unit scale; z has shape (Q, 3)."""
    r2 = np.sum(z * z, axis=1)
    out = np.zeros_like(z)
    if kind == "paper_bump":
        inside = r2 < 1.0
        c = 1.0 / bump_mass()
        a = np.zeros(len(z))
        a[inside] = c * np.exp(-1.0 / (1.0 - r2[inside]))
        fac = np.zeros(len(z))
        fac[inside] = -2.0 / (1.0 - r2[inside]) ** 2
        out = z * (a * fac)[:, None]
    elif kind == "gaussian":
        sigma0 = 0.5
        a = (2.0 * np.pi * sigma0**2) ** (-1.5) * np.exp(-r2 / (2.0 * sigma0**2))
        out = -z / sigma0**2 * a[:, None]
    else:
        raise ConfigurationError(f"unknown mollifier kind {kind!r}")
    return out


def displacement_quadrature_dr(u: SpectralField, ell: float,
                               kind: str = "paper_bump",
                               resolution: int = 24) -> np.ndarray:
    """(1/4) int grad(alpha_l)(y) . delta_y u |delta_y u|^2 dy on the M grid.

    Tensor midpoint rule over the kernel support box; u(x+y) is evaluated by
    phase shift, so the only quadrature error is in y.
    """
    g = u.grid
    _check_ell(ell, g)
    half = ell if kind == "paper_bump" else 3.0 * ell
    nodes, weights = np.polynomial.legendre.leggauss(resolution)
    q1 = nodes * half
    w1 = weights * half
    ys = np.stack(np.meshgrid(q1, q1, q1, indexing="ij"), axis=-1).reshape(-1, 3)
    w3 = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).reshape(-1)
    grads = _kernel_gradient(kind, ys / ell) / ell**4
    keep = np.any(grads != 0.0, axis=1)
    ys, grads, w3 = ys[keep], grads[keep], w3[keep]

    m = g.m
    n1 = np.fft.fftfreq(m, d=1.0 / m)
    u_half = u.coeffs[..., : m // 2 + 1] * m**3  # kz >= 0: u is real and dealiased
    u_phys = synthesize(u, m)
    acc = np.zeros((m, m, m))
    for y, ga, w in zip(ys, grads, w3):
        ex, ey, ez = (np.exp(2j * np.pi * n1 * yi) for yi in y)
        phase = ex[:, None, None] * ey[None, :, None] * ez[None, None, : m // 2 + 1]
        shifted = sfft.irfftn(u_half * phase, s=(m, m, m), axes=(-3, -2, -1))
        delta = shifted - u_phys
        acc += w * (ga[0] * delta[0] + ga[1] * delta[1] + ga[2] * delta[2]) \
            * np.sum(delta * delta, axis=0)
    return 0.25 * acc


def dr_oracle_agreement(u: SpectralField, ell: float, kind: str = "paper_bump",
                        resolution: int = 24) -> float:
    """Max-norm relative gap between the Fourier route and the displacement
    quadrature, evaluated on the native grid."""
    four = dr_integrand(u, ell, kind)
    vals4 = synthesize(four, four.grid.m)  # exact values on the doubled grid
    stride = four.grid.m // u.grid.m
    fourier_vals = vals4[::stride, ::stride, ::stride]
    quad_vals = displacement_quadrature_dr(u, ell, kind, resolution)
    scale = np.max(np.abs(fourier_vals))
    if scale == 0.0:
        return float(np.max(np.abs(quad_vals)))
    return float(np.max(np.abs(fourier_vals - quad_vals)) / scale)


# ---------------------------------------------------------------------------
# time-integrated dissipation ledger


class DRLedger(Ledger):
    """Per-path series D_t^l = int_0^t int D^l(u) phi dx ds for an ell ladder.

    Each active step pairs its state with the spatial factor once
    (``DRPairing.weight``, on the smallest even grid P > 3K + bw, where the
    pairing is exact) and takes one weighted sum per ladder scale, so the
    ladder adds no transform; its time weight, the integral of theta over
    the step, comes from a table built once per path
    (``TestFunction.step_weights``). Reports Cauchy differences between
    consecutive ladder scales as the l -> 0 diagnostic (never
    extrapolated). Its series table has one ``SUM`` column per ladder
    scale, keyed by ell.
    """

    CSV_COLUMNS = None  # no per-path CSV; ``export`` writes the series as JSON
    key = "dissipation:default"

    def __init__(self, phi: TestFunction, config: DRConfig):
        super().__init__({v: SUM for v in config.ell_values})
        self.phi = phi
        self.config = config
        self._pairing = None
        self._mults = None

    @property
    def series(self) -> dict[float, list[float]]:
        return {v: self.columns[v] for v in self.config.ell_values}

    def begin(self, view: StepView):
        self.config.validate_resolution(view.grid)
        p = view.exact_grid(3 * view.grid.dealias_cutoff + self.phi.spatial_bandwidth)
        self._pairing = DRPairing(self.phi.spatial_values(p))
        self._mults = {v: self._pairing.multiplier(self.config.alpha_kind, v)
                       for v in self.config.ell_values}
        self._w1 = self.phi.step_weights(view.ws.params.times)[0].tolist()
        self.push(view)

    def advance(self, view: StepView, nxt: StepView):
        w1 = self._w1[view.index]
        incs = {}
        if w1 != 0.0:  # outside the temporal support every increment is 0.0
            p = self._pairing.p
            g = self._pairing.weight(view.u_phys(p), view.u_sq(p))
            incs = {v: w1 * (0.25 * float(np.sum(m * g))) for v, m in self._mults.items()}
        self.push(nxt, incs)

    def cauchy_differences(self, idx: int = -1):
        """|D^{l2}_t - D^{l1}_t| for consecutive ladder entries at one time."""
        vals = [self.series[v][idx] for v in self.config.ell_values]
        return [abs(b - a) for a, b in zip(vals, vals[1:])]

    def _series_payload(self) -> dict:
        return {str(k): list(v) for k, v in self.series.items()}

    def payload(self) -> dict:
        """The path-record entry: the series, Cauchy differences and norms."""
        return {**super().payload(), "series": self._series_payload(),
                "cauchy": self.cauchy_differences()}

    def store(self, record: dict):
        record["dissipation"] = self.payload()

    def export(self, directory, path_id: int) -> Path:
        path = Path(directory) / f"dissipation_{path_id:06d}.json"
        atomic_write_json(path, {"times": list(self.time), "series": self._series_payload()})
        return path


def dissipation_submartingale_test(dr_ledgers: list[DRLedger], ell: float,
                                   s: float, t: float, events,
                                   threshold: float = 3.0) -> SupermartingaleReport:
    """One-sided test of E[(D_t - D_s) 1_A] >= 0 (submartingale direction):
    the supermartingale test of -D, with means and statistics in D's sign."""
    stats, passed = one_sided_test(dr_ledgers, lambda led, i: -led.series[ell][i],
                                   s, t, events, threshold, "submartingale")
    stats = tuple(replace(st, mean=-st.mean, statistic=-st.statistic) for st in stats)
    return SupermartingaleReport(s, t, stats, threshold, passed)
