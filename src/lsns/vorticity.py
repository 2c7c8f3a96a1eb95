"""Change of dependent variables for the vorticity, its analytic
inequalities, and the integrated transport identity ledger.

With h(r) = r^{1/2} - r^{(1-delta)/2} / (2(1-delta)) and q(y) = h(1+|y|^2),
the transformed vorticity w = q(omega) satisfies (Ito, integrated over the
torus; rho_k = psi_eps * curl sigma_k(u)):

    d int w dx = [ - nu int d_l om_i d_l om_j d2_ij q
                   - int eps_ijk (psi_eps * d_j u_l)(d_l u_k) d_i q
                   + 1/2 sum_k int rho_k^T Hess q rho_k ] dt
                 + sum_k ( int rho_k . grad q dx ) dB_k .

The ledger advances every deterministic term (pointwise transforms evaluated
on the padded physical grid, integrals by grid quadrature) and closes the
martingale as the residual. Its quadratic variation is additionally
predicted by sum_k (int rho_k . grad q)^2 dt, recorded as a derived (not
paper-stated) comparison.

Note the stretching term enters the identity with a minus sign, as derived
from curl(v . grad u) = v . grad omega + eps_ijk d_j v_l d_l u_k; the noise-
off convergence test pins the sign numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import close_martingale
from .errors import ConfigurationError
from .persist import write_csv
from .stepview import StepView, trajectory_step

__all__ = [
    "HFunction", "h_eval", "q_gradient_hessian", "BoundViolation",
    "hessian_bounds_check", "VorticityLedger", "vorticity_ledger_step",
    "vorticity_bounds_report", "ladder_trend_table",
]


class BoundViolation(RuntimeError):
    """An analytic inequality failed on a concrete witness (a bug by contract)."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(f"{message}; witness {witness}")


@dataclass(frozen=True)
class HFunction:
    """h(r) = sqrt(r) - r^{(1-delta)/2} / (2(1-delta)), 0 < delta <= 1/2."""

    delta: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.delta <= 0.5):
            raise ConfigurationError(f"delta must lie in (0, 1/2], got {self.delta}")

    def h(self, r):
        d = self.delta
        return np.sqrt(r) - r ** ((1.0 - d) / 2.0) / (2.0 * (1.0 - d))

    def h_prime(self, r):
        d = self.delta
        return 0.5 / np.sqrt(r) - 0.25 / r ** ((1.0 + d) / 2.0)

    def h_second(self, r):
        d = self.delta
        return -0.25 / r**1.5 + (1.0 + d) / 8.0 / r ** ((3.0 + d) / 2.0)


def h_eval(hf: HFunction, r):
    """(h, h', h'') at r >= 1."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 1.0):
        raise ConfigurationError("h is evaluated only at r >= 1")
    return hf.h(r_arr), hf.h_prime(r_arr), hf.h_second(r_arr)


def q_gradient_hessian(hf: HFunction, y):
    """(q, grad q, Hess q) at a single 3-vector y, in closed form."""
    y = np.asarray(y, dtype=float)
    alpha = 1.0 + float(y @ y)
    hp, hpp = hf.h_prime(alpha), hf.h_second(alpha)
    q = float(hf.h(alpha))
    grad = 2.0 * y * hp
    hess = 2.0 * hp * np.eye(3) + 4.0 * hpp * np.outer(y, y)
    return q, grad, hess


@dataclass(frozen=True)
class HessianBoundsReport:
    samples: int
    min_lower_margin: float     # eta^T H eta - (delta/2) alpha^{-(1+delta)/2} |eta|^2
    min_upper_margin: float     # 2 alpha^{-1/2} |eta|^2 - |eta^T H eta|
    min_grad_margin: float      # 1 - |grad q|
    min_sandwich_margin: float  # min over both sandwich sides
    passed: bool


def hessian_bounds_check(hf: HFunction, samples: int, seed: int = 2024,
                         max_magnitude: float = 1e3) -> HessianBoundsReport:
    """Verify the Hessian, gradient and sandwich bounds on random (y, eta).

    Any violation raises BoundViolation with the witness pair.
    """
    if samples < 1:
        raise ConfigurationError("need at least one sample")
    gen = np.random.Generator(np.random.Philox(key=seed))
    d = hf.delta
    batch = 200_000
    mins = [np.inf, np.inf, np.inf, np.inf]
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        y = gen.standard_normal((n, 3))
        y *= (10.0 ** gen.uniform(-3, np.log10(max_magnitude), n) /
              np.maximum(np.linalg.norm(y, axis=1), 1e-30))[:, None]
        eta = gen.standard_normal((n, 3))
        alpha = 1.0 + np.sum(y * y, axis=1)
        hp, hpp = hf.h_prime(alpha), hf.h_second(alpha)
        eta2 = np.sum(eta * eta, axis=1)
        dot = np.sum(eta * y, axis=1)
        quad = 2.0 * hp * eta2 + 4.0 * hpp * dot**2
        lower = quad - 0.5 * d * alpha ** (-(1.0 + d) / 2.0) * eta2
        upper = 2.0 * alpha ** (-0.5) * eta2 - np.abs(quad)
        gradm = 1.0 - 2.0 * np.sqrt(alpha - 1.0) * np.abs(hp)
        qv = hf.h(alpha)
        low_c = (1.0 - 2.0 * d) / (2.0 * (1.0 - d))
        sandwich = np.minimum(qv - low_c * np.sqrt(alpha), np.sqrt(alpha) - qv)
        for i, margins in enumerate([lower, upper, gradm, sandwich]):
            worst = int(np.argmin(margins))
            if margins[worst] < mins[i]:
                mins[i] = float(margins[worst])
            if margins[worst] < (0.0 if i == 0 else -1e-14):
                name = ["hessian lower", "hessian upper", "gradient", "sandwich"][i]
                raise BoundViolation(f"{name} bound violated",
                                     (y[worst].tolist(), eta[worst].tolist()))
        done += n
    return HessianBoundsReport(samples, mins[0], mins[1], mins[2], mins[3],
                               passed=mins[0] > 0 and min(mins[1:]) >= -1e-14)


# ---------------------------------------------------------------------------
# ledger


class VorticityLedger:
    """Accumulates the transformed-vorticity identity terms along one path."""

    CSV_COLUMNS = [
        "step", "time", "l1_norm", "sqrt_moment", "w_integral",
        "hessian_enstrophy", "surrogate", "stretching", "noise_compensator",
        "grad_norm", "martingale", "qv_predicted", "qv_realized",
        "holder_margin", "norm_chain_ok",
    ]
    key = "vorticity:default"

    def __init__(self, hf: HFunction):
        self.hf = hf
        self.epsilon = None
        self.nu = None
        self.steps: list[int] = []
        self.times: list[float] = []
        self.l1: list[float] = []
        self.sqrt_moment: list[float] = []
        self.w_int: list[float] = []
        self.hess_enstrophy: list[float] = []   # int_0^t int dd q'' (no nu factor)
        self.surrogate: list[float] = []
        self.stretching: list[float] = []
        self.noise_comp: list[float] = []
        self.grad_norm: list[float] = []        # int_0^t int |grad om|^{4/(3+d)}
        self.qv_predicted: list[float] = []
        self.qv_realized: list[float] = []
        self.martingale: list[float] = []
        self.holder_margin: list[float] = []    # per step (undefined at row 0)
        self.norm_chain_ok: list[bool] = []
        self.state_l2: list[float] = []

    # -- state-quantity helpers ------------------------------------------------

    def _state_quantities(self, view: StepView):
        om = view.omega_phys(view.pad)
        alpha = 1.0 + np.sum(om * om, axis=0)
        l1 = float(np.mean(np.sqrt(alpha - 1.0)))
        sm = float(np.mean(np.sqrt(alpha)))
        w = float(np.mean(self.hf.h(alpha)))
        return l1, sm, w

    def begin(self, view: StepView):
        self.epsilon = view.ws.params.epsilon
        self.nu = view.ws.params.nu
        l1, sm, w = self._state_quantities(view)
        self._append(view, l1, sm, w)

    def _append(self, view, l1, sm, w, hess=0.0, sur=0.0, stretch=0.0,
                comp=0.0, gn=0.0, qv=0.0, margin=None):
        self.steps.append(view.index)
        self.times.append(view.t)
        self.l1.append(l1)
        self.sqrt_moment.append(sm)
        self.w_int.append(w)
        self.hess_enstrophy.append(hess)
        self.surrogate.append(sur)
        self.stretching.append(stretch)
        self.noise_comp.append(comp)
        self.grad_norm.append(gn)
        self.qv_predicted.append(qv)
        close_martingale(self)
        if margin is not None:
            self.holder_margin.append(margin)
        self.norm_chain_ok.append(l1 <= sm + 1e-12 and sm <= 1.0 + l1 + 1e-12)
        self.state_l2.append(view.state_l2)

    def advance(self, view: StepView, nxt: StepView):
        dt = view.ws.params.dt
        d = self.hf.delta
        p = view.pad
        om = view.omega_phys(p)
        alpha = 1.0 + np.sum(om * om, axis=0)
        hp = self.hf.h_prime(alpha)
        hpp = self.hf.h_second(alpha)
        gom = view.grad_omega_phys(p)                   # gom[l, i] = d_l om_i
        s1 = np.einsum("lixyz,lixyz->xyz", gom, gom)
        proj = np.einsum("lixyz,ixyz->lxyz", gom, om)   # d_l om . om
        s2 = np.einsum("lxyz,lxyz->xyz", proj, proj)
        hess_rate = float(np.mean(2.0 * hp * s1 + 4.0 * hpp * s2))
        sur_mean = float(np.mean(alpha ** (-(1.0 + d) / 2.0) * s1))
        sur_rate = 0.5 * d * sur_mean

        a = view.mollified_grad_u_phys(p)               # a[j, l] = d_j (psi*u)_l
        b = view.grad_u_phys(p)                         # b[l, k] = d_l u_k
        ab = np.einsum("jlxyz,lkxyz->jkxyz", a, b)
        c = np.empty_like(om)
        c[0] = ab[1, 2] - ab[2, 1]
        c[1] = ab[2, 0] - ab[0, 2]
        c[2] = ab[0, 1] - ab[1, 0]
        gradq = 2.0 * om * hp[None]
        stretch_rate = float(np.mean(np.einsum("ixyz,ixyz->xyz", c, gradq)))

        comp_rate = 0.0
        qv_rate = 0.0
        for rho in view.noise_phys("curl", p):
            rho2 = np.sum(rho * rho, axis=0)
            rdot = np.sum(rho * om, axis=0)
            comp_rate += 0.5 * float(np.mean(2.0 * hp * rho2 + 4.0 * hpp * rdot**2))
            qv_rate += float(np.mean(np.sum(rho * gradq, axis=0))) ** 2

        expo = 2.0 / (3.0 + d)
        gn_rate = float(np.mean(s1**expo))
        # per-step Hoelder chain: lhs <= surrogate-integrand^{2/(3+d)} * moment^{(1+d)/(3+d)}
        rhs = sur_mean ** expo * float(np.mean(alpha)) ** ((1.0 + d) / (3.0 + d))
        margin = rhs - gn_rate

        l1, sm, w = self._state_quantities(nxt)
        self._append(
            nxt, l1, sm, w,
            hess=self.hess_enstrophy[-1] + dt * hess_rate,
            sur=self.surrogate[-1] + dt * sur_rate,
            stretch=self.stretching[-1] + dt * stretch_rate,
            comp=self.noise_comp[-1] + dt * comp_rate,
            gn=self.grad_norm[-1] + dt * gn_rate,
            qv=self.qv_predicted[-1] + dt * qv_rate,
            margin=margin,
        )

    def residual(self, idx: int) -> float:
        """Martingale term closed from the integrated identity."""
        return (
            self.w_int[idx] - self.w_int[0]
            + self.nu * self.hess_enstrophy[idx]
            + self.stretching[idx]
            - self.noise_comp[idx]
        )

    def rows(self):
        margins = [None] + self.holder_margin  # no step has run at row 0
        for i in range(len(self.steps)):
            yield [
                self.steps[i], self.times[i], self.l1[i], self.sqrt_moment[i],
                self.w_int[i], self.hess_enstrophy[i], self.surrogate[i],
                self.stretching[i], self.noise_comp[i], self.grad_norm[i],
                self.martingale[i], self.qv_predicted[i], self.qv_realized[i],
                margins[i], self.norm_chain_ok[i],
            ]

    def min_holder_margin(self) -> float:
        return min(self.holder_margin, default=math.inf)

    def payload(self) -> dict:
        """The path-record entry: the series and bounds the summary needs."""
        return {
            "times": list(self.times),
            "martingale": list(self.martingale),
            "sup_l1": max(self.l1),
            "grad_norm": self.grad_norm[-1],
            "min_holder_margin": self.min_holder_margin(),
            "norm_chain_ok": all(self.norm_chain_ok),
            "epsilon": self.epsilon,
            "qv_predicted": list(self.qv_predicted),
            "qv_realized": list(self.qv_realized),
            "state_l2": list(self.state_l2),
        }

    def store(self, record: dict):
        record["vorticity"] = self.payload()

    def export(self, directory, path_id: int) -> Path:
        path = Path(directory) / f"vorticity_{path_id:06d}.csv"
        write_csv(path, self.CSV_COLUMNS, self.rows())
        return path


def vorticity_ledger_step(traj, j: int, hf: HFunction,
                          ledger: VorticityLedger | None = None) -> VorticityLedger:
    """Advance a vorticity ledger one step of a stride-1 trajectory."""
    return trajectory_step(traj, j, ledger or VorticityLedger(hf), "vorticity ledger")


@dataclass(frozen=True)
class VorticityBoundsReport:
    paths: int
    mean_sup_l1: float
    stderr_sup_l1: float
    mean_grad_norm: float
    stderr_grad_norm: float
    min_holder_margin: float
    holder_ok: bool
    norm_chain_ok: bool


def vorticity_bounds_report(ledgers: list[VorticityLedger]) -> VorticityBoundsReport:
    """Ensemble estimates of E sup_t ||omega||_L1 and E int |grad omega|^{4/(3+d)}.

    Mixed-epsilon ensembles are rejected; the per-path Hoelder chain and the
    L1 / sqrt-moment norm chain are verified at every step.
    """
    if not ledgers:
        raise ConfigurationError("empty ensemble")
    eps = {led.epsilon for led in ledgers}
    if len(eps) != 1:
        raise ConfigurationError(f"mixed-epsilon ensemble rejected: {sorted(eps)}")
    sup_l1 = np.array([max(led.l1) for led in ledgers])
    gn = np.array([led.grad_norm[-1] for led in ledgers])
    minm = float(min(led.min_holder_margin() for led in ledgers))
    chain = all(all(led.norm_chain_ok) for led in ledgers)
    nps = len(ledgers)
    return VorticityBoundsReport(
        paths=nps,
        mean_sup_l1=float(np.mean(sup_l1)),
        stderr_sup_l1=float(np.std(sup_l1, ddof=1) / np.sqrt(nps)) if nps > 1 else 0.0,
        mean_grad_norm=float(np.mean(gn)),
        stderr_grad_norm=float(np.std(gn, ddof=1) / np.sqrt(nps)) if nps > 1 else 0.0,
        min_holder_margin=minm,
        holder_ok=minm >= -1e-12,
        norm_chain_ok=chain,
    )


def ladder_trend_csv(entries: list[tuple[float, VorticityBoundsReport]], path):
    """Write the eps-ladder trend table as CSV; returns the verdict."""
    from .persist import write_csv

    rows, ok = ladder_trend_table(entries)
    write_csv(path, ["epsilon", "mean_sup_l1", "mean_grad_norm"], rows)
    return ok


def ladder_trend_table(entries: list[tuple[float, VorticityBoundsReport]]):
    """Rows (eps, mean sup L1, mean grad norm) sorted by decreasing eps, plus a
    no-monotone-blow-up verdict (every step growing >= 1.5x and overall > 3x
    counts as blow-up)."""
    entries = sorted(entries, key=lambda e: -e[0])
    rows = [(eps, rep.mean_sup_l1, rep.mean_grad_norm) for eps, rep in entries]

    def blow_up(series):
        if len(series) < 2 or series[0] <= 0:
            return False
        growing = all(b >= 1.5 * a for a, b in zip(series, series[1:]))
        return growing and series[-1] > 3.0 * series[0]

    l1s = [r[1] for r in rows]
    gns = [r[2] for r in rows]
    return rows, not (blow_up(l1s) or blow_up(gns))
