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
All spectra here are computed on the 2M grid, which resolves even the triple
products exactly under the strict 3K+1 <= M cutoff rule, so the pointwise
residual of the identity is at roundoff level. One kernel (``DRKernel``)
evaluates the four terms for ``dr_integrand``, the identity check and the
time-integrated ledger alike.

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
from .stepview import StepView
from .testfunc import TestFunction


@dataclass(frozen=True)
class DRConfig:
    """Mollifier ladder and oracle resolution for the dissipation ledger."""

    ell_values: tuple = (1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32)
    alpha_kind: str = "paper_bump"
    quadrature: int = 24

    def __post_init__(self):
        e = tuple(float(v) for v in self.ell_values)
        object.__setattr__(self, "ell_values", e)
        if not e or any(v <= 0 for v in e):
            raise ConfigurationError("ell values must be positive")
        if list(e) != sorted(e, reverse=True) or len(set(e)) != len(e):
            raise ConfigurationError("ell values must be strictly decreasing")
        if max(e) > 0.25:
            raise ConfigurationError("largest ell must not exceed 1/4 (kernel support)")
        if self.quadrature < 4:
            raise ConfigurationError("displacement quadrature needs >= 4 points per axis")

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

    n = g.wavenumbers
    u_phys = synthesize(u, g.m)
    m = g.m
    acc = np.zeros((m, m, m))
    for y, ga, w in zip(ys, grads, w3):
        phase = np.exp(2j * np.pi * (n[0] * y[0] + n[1] * y[1] + n[2] * y[2]))
        shifted = sfft.ifftn(u.coeffs * phase[None] * m**3, axes=(-3, -2, -1)).real
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


class DRLedger:
    """Per-path series D_t^l = int_0^t int D^l(u) phi dx ds for an ell ladder.

    Reports Cauchy differences between consecutive ladder scales as the
    l -> 0 diagnostic (never extrapolated). Combined with an energy ledger
    driven over the same path it yields the local-energy-equality closure
    residual  [E_t + 2 D_t^{l_min}] - [compensator + N_t].
    """

    CSV_COLUMNS = None  # no per-path CSV; ``export`` writes the series as JSON
    key = "dissipation:default"

    def __init__(self, phi: TestFunction, config: DRConfig):
        self.phi = phi
        self.config = config
        self.times: list[float] = []
        self.state_l2: list[float] = []
        self.series: dict[float, list[float]] = {v: [] for v in config.ell_values}
        self._mults = None

    def begin(self, view: StepView):
        self.config.validate_resolution(view.grid)
        k2 = Grid(view.pad).k2
        self._mults = {
            v: multiplier_on_modes(self.config.alpha_kind, v, k2, raw=True)
            for v in self.config.ell_values
        }
        self._s = self.phi.spatial_values(view.pad)
        self.times.append(view.t)
        self.state_l2.append(view.state_l2)
        for v in self.config.ell_values:
            self.series[v].append(0.0)

    def advance(self, view: StepView, nxt: StepView):
        w1 = self.phi.theta_integral(view.t, nxt.t)
        if w1 == 0.0:  # outside the temporal support every increment is 0.0
            for series in self.series.values():
                series.append(series[-1])
        else:
            kernel = DRKernel(view.u_phys(view.pad), view.u_sq(view.pad))
            for v in self.config.ell_values:
                d_phi = 0.25 * float(np.mean(sum(kernel.terms(self._mults[v])) * self._s))
                self.series[v].append(self.series[v][-1] + w1 * d_phi)
        self.times.append(nxt.t)
        self.state_l2.append(nxt.state_l2)

    def cauchy_differences(self, idx: int = -1):
        """|D^{l2}_t - D^{l1}_t| for consecutive ladder entries at one time."""
        vals = [self.series[v][idx] for v in self.config.ell_values]
        return [abs(b - a) for a, b in zip(vals, vals[1:])]

    def d_series(self, ell: float) -> np.ndarray:
        return np.asarray(self.series[ell])

    def _series_payload(self) -> dict:
        return {"times": list(self.times),
                "series": {str(k): list(v) for k, v in self.series.items()}}

    def payload(self) -> dict:
        """The path-record entry: the series, Cauchy differences and norms."""
        return {**self._series_payload(), "cauchy": self.cauchy_differences(),
                "state_l2": list(self.state_l2)}

    def store(self, record: dict):
        record["dissipation"] = self.payload()

    def export(self, directory, path_id: int) -> Path:
        path = Path(directory) / f"dissipation_{path_id:06d}.json"
        atomic_write_json(path, self._series_payload())
        return path


def lee_closure_residual(energy_ledger, dr_ledger: DRLedger, idx: int = -1) -> float:
    """[E_t + 2 D_t^{l_min}] - [compensator + N_t] from jointly driven ledgers."""
    ell_min = dr_ledger.config.ell_values[-1]
    return (
        energy_ledger.energy_functional(idx)
        + 2.0 * dr_ledger.series[ell_min][idx]
        - energy_ledger._initial_energy
        - energy_ledger.compensator[idx]
        - energy_ledger.martingale[idx]
    )


SubmartingaleReport = SupermartingaleReport  # same fields, reported in D's sign


def dissipation_submartingale_test(dr_ledgers: list[DRLedger], ell: float,
                                   s: float, t: float, events,
                                   threshold: float = 3.0) -> SubmartingaleReport:
    """One-sided test of E[(D_t - D_s) 1_A] >= 0 (submartingale direction):
    the supermartingale test of -D, with means and statistics in D's sign."""
    stats, passed = one_sided_test(dr_ledgers, lambda led, i: -led.series[ell][i],
                                   s, t, events, threshold, "submartingale")
    stats = tuple(replace(st, mean=-st.mean, statistic=-st.statistic) for st in stats)
    return SubmartingaleReport(s, t, stats, threshold, passed)
