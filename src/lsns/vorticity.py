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
martingale as the residual. omega on the pad is the antisymmetric part of the
grad u samples (``StepView.omega_phys``), and the noise terms are reductions
over the stacked rho_k (``_noise_rates``). Its quadratic variation is
additionally predicted by sum_k (int rho_k . grad q)^2 dt, recorded as a
derived (not paper-stated) comparison. ``VorticityLedger.SERIES`` is its one series table
(see ``stepview.Ledger``): the state norms are given per row, each time
integral is a ``SUM`` advanced by dt times its rate, and the martingale, its
realized quadratic variation and the L1 / sqrt-moment norm chain are derived
per row. The pointwise transforms are not band-limited, so the 2M grid
leaves a small deterministic bias in the martingale (see ``stepview``).

Note the stretching term enters the identity with a minus sign, as derived
from curl(v . grad u) = v . grad omega + eps_ijk d_j v_l d_l u_k; the noise-
off convergence test pins the sign numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import mean_stderr
from .errors import ConfigurationError
from .stepview import STATE, SUM, Ledger, StepView, realized_qv

__all__ = [
    "HFunction", "h_eval", "q_gradient_hessian", "BoundViolation",
    "hessian_bounds_check", "VorticityLedger",
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


def _noise_rates(rho, om, gradq, hp, hpp) -> tuple[float, float]:
    """(compensator rate, predicted QV rate) of the stacked noise vorticities
    rho (N, 3, P, P, P): 1/2 int (2 h' sum_k |rho_k|^2 + 4 h'' sum_k
    (rho_k . om)^2) and sum_k (int rho_k . grad q)^2, each one reduction
    over k (einsum without ``optimize``, so no BLAS call)."""
    if len(rho) == 0:
        return 0.0, 0.0
    rho2 = np.einsum("kixyz,kixyz->xyz", rho, rho)
    rdot = np.einsum("kixyz,ixyz->kxyz", rho, om)
    rdot2 = np.einsum("kxyz,kxyz->xyz", rdot, rdot)
    comp_rate = 0.5 * float(np.mean(2.0 * hp * rho2 + 4.0 * hpp * rdot2))
    pairings = np.einsum("kixyz,ixyz->k", rho, gradq) / om[0].size
    return comp_rate, float(np.sum(pairings**2))


class VorticityLedger(Ledger):
    """Accumulates the transformed-vorticity identity terms along one path."""

    SERIES = {
        "step": STATE, "time": STATE,
        "l1_norm": STATE, "sqrt_moment": STATE, "w_integral": STATE,
        "hessian_enstrophy": SUM,  # int_0^t int dd q'' (no nu factor)
        "surrogate": SUM, "stretching": SUM, "noise_compensator": SUM,
        "grad_norm": SUM,          # int_0^t int |grad om|^{4/(3+d)}
        # the martingale closed from the integrated identity
        "martingale": lambda led, r: (
            r["w_integral"] - led.w_integral[0] + led.nu * r["hessian_enstrophy"]
            + r["stretching"] - r["noise_compensator"]),
        "qv_predicted": SUM, "qv_realized": realized_qv,
        "holder_margin": STATE,    # per step: undefined (empty) at row 0
        "norm_chain_ok": lambda led, r: (r["l1_norm"] <= r["sqrt_moment"] + 1e-12
                                         and r["sqrt_moment"] <= 1.0 + r["l1_norm"] + 1e-12),
    }
    CSV_COLUMNS = list(SERIES)
    RECORDED = ("martingale", "qv_predicted", "qv_realized")
    key = "vorticity:default"
    stem = "vorticity"

    def __init__(self, hf: HFunction):
        super().__init__(self.SERIES)
        self.hf = hf
        self.epsilon = None
        self.nu = None

    def _state_quantities(self, view: StepView) -> dict:
        om = view.omega_phys(view.pad)
        alpha = 1.0 + np.sum(om * om, axis=0)
        return {"l1_norm": float(np.mean(np.sqrt(alpha - 1.0))),
                "sqrt_moment": float(np.mean(np.sqrt(alpha))),
                "w_integral": float(np.mean(self.hf.h(alpha)))}

    def begin(self, view: StepView):
        self.epsilon = view.ws.params.epsilon
        self.nu = view.ws.params.nu
        self.push(view, **self._state_quantities(view))

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

        comp_rate, qv_rate = _noise_rates(view.noise_phys("curl", p), om, gradq, hp, hpp)

        expo = 2.0 / (3.0 + d)
        gn_rate = float(np.mean(s1**expo))
        # per-step Hoelder chain: lhs <= surrogate-integrand^{2/(3+d)} * moment^{(1+d)/(3+d)}
        rhs = sur_mean ** expo * float(np.mean(alpha)) ** ((1.0 + d) / (3.0 + d))

        self.push(
            nxt,
            {"hessian_enstrophy": dt * hess_rate, "surrogate": dt * sur_rate,
             "stretching": dt * stretch_rate, "noise_compensator": dt * comp_rate,
             "grad_norm": dt * gn_rate, "qv_predicted": dt * qv_rate},
            holder_margin=rhs - gn_rate,
            **self._state_quantities(nxt),
        )

    def min_holder_margin(self) -> float | None:
        """The smallest Hoelder margin over the steps; None without a step."""
        return min(self.holder_margin[1:], default=None)

    def payload(self) -> dict:
        """The path-record entry: the series and bounds the summary needs."""
        return {
            **super().payload(),
            "sup_l1": max(self.l1_norm),
            "grad_norm": self.grad_norm[-1],
            "min_holder_margin": self.min_holder_margin(),
            "norm_chain_ok": all(self.norm_chain_ok),
            "epsilon": self.epsilon,
        }

    def store(self, record: dict):
        record["vorticity"] = self.payload()


@dataclass(frozen=True)
class VorticityBoundsReport:
    paths: int
    mean_sup_l1: float
    stderr_sup_l1: float
    mean_grad_norm: float
    stderr_grad_norm: float
    min_holder_margin: float | None  # None: no path took a step
    holder_ok: bool | None           # None: nothing compared
    norm_chain_ok: bool


def vorticity_bounds_report(payloads: list[dict]) -> VorticityBoundsReport:
    """Ensemble estimates of E sup_t ||omega||_L1 and E int |grad omega|^{4/(3+d)}
    from the path records' vorticity payloads (``VorticityLedger.payload``).

    Mixed-epsilon ensembles are rejected; the per-path Hoelder chain and the
    L1 / sqrt-moment norm chain are verified at every step.
    """
    if not payloads:
        raise ConfigurationError("empty ensemble")
    eps = {p["epsilon"] for p in payloads}
    if len(eps) != 1:
        raise ConfigurationError(f"mixed-epsilon ensemble rejected: {sorted(eps)}")
    mean_l1, stderr_l1 = mean_stderr([p["sup_l1"] for p in payloads])
    mean_gn, stderr_gn = mean_stderr([p["grad_norm"] for p in payloads])
    margins = [p["min_holder_margin"] for p in payloads if p["min_holder_margin"] is not None]
    minm = float(min(margins)) if margins else None
    return VorticityBoundsReport(
        paths=len(payloads),
        mean_sup_l1=mean_l1,
        stderr_sup_l1=stderr_l1,
        mean_grad_norm=mean_gn,
        stderr_grad_norm=stderr_gn,
        min_holder_margin=minm,
        holder_ok=None if minm is None else minm >= -1e-12,
        norm_chain_ok=all(p["norm_chain_ok"] for p in payloads),
    )


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
