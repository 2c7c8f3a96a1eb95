"""Localized energy ledger for the regularized system and the martingale /
supermartingale statistics built on it.

Per step j (left-endpoint quadrature, phi = theta(t) s(x)), the ledger
advances every deterministic term of the pathwise local energy balance

    int |u(t)|^2 phi(t) + 2 nu int_0^t int |grad u|^2 phi
      = int |u(0)|^2 phi(0)
      + int_0^t int |u|^2 (dphi/dt + nu Lap phi)
      + int_0^t int (|u|^2 (psi_eps*u) + 2 p u) . grad phi
      + sum_k int_0^t int |g_k(u)|^2 phi            (g_k = truncated psi_eps*sigma_k)
      + N_t(phi),

and the discrete martingale N_t(phi) is DEFINED as the residual: every other
term is computable, and the falsifiable checks are that N has ensemble mean
zero and realized quadratic variation matching

    <N(phi)>_t = 4 sum_k int_0^t ( int g_k(u) . u phi dx )^2 ds.

Spatial integrals are exact Riemann means on the 2M-padded grid (every
integrand is a trigonometric polynomial below the padded bandwidth).

Because the discrete dynamics injects the Leray-projected, Galerkin-truncated
noise, the ledger also records the projected compensator and the unmollified
one (the limit-system expression), plus their gaps, rather than guessing
which one a limit test should use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .persist import write_csv
from .stepview import StepView, trajectory_step
from .testfunc import TestFunction

_MEAN = lambda a: float(np.mean(a))


class EnergyLedger:
    """Per-path accumulator of every term in the local energy balance."""

    CSV_COLUMNS = [
        "step", "time", "local_energy", "enstrophy", "transport", "flux",
        "compensator", "compensator_projected", "compensator_unmollified",
        "energy_functional", "martingale", "qv_predicted", "qv_realized",
        "projection_gap", "mollification_gap", "state_l2",
    ]
    # series stored in the path record under their own names
    PAYLOAD_SERIES = (
        "times", "martingale", "compensator", "compensator_projected",
        "compensator_unmollified", "qv_predicted", "qv_realized", "state_l2",
    )

    def __init__(self, phi: TestFunction):
        self.phi = phi
        self.steps: list[int] = []
        self.times: list[float] = []
        self.local_energy: list[float] = []
        self.enstrophy: list[float] = []
        self.transport: list[float] = []
        self.flux: list[float] = []
        self.compensator: list[float] = []
        self.compensator_projected: list[float] = []
        self.compensator_unmollified: list[float] = []
        self.functional: list[float] = []  # E_t(u; phi) per step
        self.qv_predicted: list[float] = []
        self.qv_realized: list[float] = []
        self.martingale: list[float] = []
        self.state_l2: list[float] = []
        self._initial_energy = 0.0
        self._s = None  # spatial arrays cached on first view
        self._fixed_means: dict = {}  # additive-noise means, see _noise_sq_means

    @property
    def key(self) -> str:
        return f"energy:{self.phi.label}"

    # -- consumer protocol ----------------------------------------------------

    def begin(self, view: StepView):
        grid = view.grid
        # a Riemann mean over P points is exact for per-axis degree < P:
        # quadratic integrands (degree 2K + bw) use the native grid when it
        # resolves them, the cubic flux terms (3K + bw) the smallest even
        # grid that does, and the unmollified noise term the pad
        k, bw = grid.dealias_cutoff, self.phi.spatial_bandwidth
        native_ok = 2 * k + bw <= grid.m - 1
        self._pq = grid.m if native_ok else view.pad
        self._pf = min(view.pad, max(grid.m, 2 * bw, 2 * ((3 * k + bw) // 2 + 1)))
        self._s = self.phi.spatial_values(self._pq)
        self._lap_s = self.phi.spatial_laplacian(self._pq)
        self._s_pad = self.phi.spatial_values(view.pad)
        self._grad_s_f = self.phi.spatial_grad(self._pf)
        self._initial_energy = self._local_energy(view)
        self._append_state(view, le=self._initial_energy)

    def advance(self, view: StepView, nxt: StepView):
        # deterministic temporal weights are integrated exactly over the
        # step; adapted spatial factors stay at the left endpoint (Ito)
        w1 = self.phi.theta_integral(view.t, nxt.t)
        w2 = self.phi.theta_integral(view.t, nxt.t, power=2)
        dth = self.phi.theta_increment(view.t, nxt.t)
        if w1 == 0.0 and w2 == 0.0 and dth == 0.0:
            # outside the temporal support every increment is exactly 0.0
            self._append_state(
                nxt, le=self._local_energy(nxt), enst=self.enstrophy[-1],
                trans=self.transport[-1], flux=self.flux[-1],
                comp=self.compensator[-1], comp_proj=self.compensator_projected[-1],
                comp_raw=self.compensator_unmollified[-1], qv_pred=self.qv_predicted[-1],
            )
            return
        nu = view.ws.params.nu
        pq, pf, pad = self._pq, self._pf, view.pad

        gu = view.grad_u_phys(pq)
        gradsq = np.einsum("ijxyz,ijxyz->xyz", gu, gu)
        enst = self.enstrophy[-1] + 2.0 * nu * w1 * _MEAN(gradsq * self._s)

        trans = self.transport[-1] + (
            dth * _MEAN(view.u_sq(pq) * self._s)
            + nu * w1 * _MEAN(view.u_sq(pq) * self._lap_s)
        )

        vdot = np.einsum("ixyz,ixyz->xyz", view.v_phys(pf), self._grad_s_f)
        udot = np.einsum("ixyz,ixyz->xyz", view.u_phys(pf), self._grad_s_f)
        flux = self.flux[-1] + w1 * (
            _MEAN(view.u_sq(pf) * vdot) + 2.0 * _MEAN(view.p_phys(pf) * udot)
        )

        comp = self.compensator[-1]
        comp_proj = self.compensator_projected[-1]
        comp_raw = self.compensator_unmollified[-1]
        qv_pred = self.qv_predicted[-1]
        if view.ws.noise is not None:
            up = view.u_phys(pq)
            injected = view.noise_phys("injected", pq)
            for g, gg in zip(injected, self._noise_sq_means(view, "injected", pq, self._s)):
                comp += w1 * gg
                pairing = _MEAN(np.sum(g * up, axis=0) * self._s)
                qv_pred += 4.0 * w2 * pairing**2
            for gg in self._noise_sq_means(view, "projected", pq, self._s):
                comp_proj += w1 * gg
            for gg in self._noise_sq_means(view, "raw", pad, self._s_pad):
                comp_raw += w1 * gg

        self._append_state(
            nxt,
            le=self._local_energy(nxt),
            enst=enst, trans=trans, flux=flux,
            comp=comp, comp_proj=comp_proj, comp_raw=comp_raw, qv_pred=qv_pred,
        )

    def _noise_sq_means(self, view: StepView, tag: str, p: int, s) -> list[float]:
        """Per-field means of |g_k|^2 s on the P grid; additive noise fields
        are the same at every step, so their means are computed once."""
        if (tag, p) in self._fixed_means:
            return self._fixed_means[tag, p]
        means = [_MEAN(np.sum(g * g, axis=0) * s) for g in view.noise_phys(tag, p)]
        if view.ws.additive_projected is not None:
            self._fixed_means[tag, p] = means
        return means

    # -- accounting ------------------------------------------------------------

    def _local_energy(self, view: StepView) -> float:
        theta = self.phi.theta(view.t)
        return theta * _MEAN(view.u_sq(self._pq) * self._s) if theta != 0.0 else 0.0

    def _append_state(self, view: StepView, le: float, enst: float = 0.0,
                      trans: float = 0.0, flux: float = 0.0, comp: float = 0.0,
                      comp_proj: float = 0.0, comp_raw: float = 0.0,
                      qv_pred: float = 0.0):
        self.steps.append(view.index)
        self.times.append(view.t)
        self.local_energy.append(le)
        self.enstrophy.append(enst)
        self.transport.append(trans)
        self.flux.append(flux)
        self.functional.append(le + enst - trans - flux)
        self.compensator.append(comp)
        self.compensator_projected.append(comp_proj)
        self.compensator_unmollified.append(comp_raw)
        self.qv_predicted.append(qv_pred)
        self.state_l2.append(view.state_l2)
        close_martingale(self)

    def energy_functional(self, idx: int) -> float:
        """E_t(u; phi): local energy + enstrophy - transport - flux."""
        return self.functional[idx]

    def residual(self, idx: int) -> float:
        """N_t(phi): the energy balance closed as a residual."""
        return (
            self.energy_functional(idx)
            - self._initial_energy
            - self.compensator[idx]
        )

    def supermartingale_process(self, idx: int) -> float:
        """X_t = E_t(u; phi) - regularized compensator (the tested process)."""
        return self.energy_functional(idx) - self.compensator[idx]

    # -- export ----------------------------------------------------------------

    def rows(self):
        for i in range(len(self.steps)):
            yield [
                self.steps[i], self.times[i], self.local_energy[i],
                self.enstrophy[i], self.transport[i], self.flux[i],
                self.compensator[i], self.compensator_projected[i],
                self.compensator_unmollified[i], self.functional[i],
                self.martingale[i], self.qv_predicted[i], self.qv_realized[i],
                self.compensator[i] - self.compensator_projected[i],
                self.compensator_unmollified[i] - self.compensator[i],
                self.state_l2[i],
            ]

    def payload(self) -> dict:
        """The path-record entry: the series the ensemble statistics need."""
        out = {k: list(getattr(self, k)) for k in self.PAYLOAD_SERIES}
        out["energy_functional"] = list(self.functional)
        out["initial_energy"] = self._initial_energy
        return out

    @classmethod
    def from_payload(cls, phi: TestFunction, payload: dict) -> "EnergyLedger":
        """A ledger restored from ``payload()`` (its statistics series only)."""
        led = cls(phi)
        for k in cls.PAYLOAD_SERIES:
            setattr(led, k, payload[k])
        led.functional = payload["energy_functional"]
        led._initial_energy = payload["initial_energy"]
        return led

    def store(self, record: dict):
        record.setdefault("energy", {})[self.phi.label] = self.payload()

    def export(self, directory, path_id: int) -> Path:
        path = Path(directory) / f"energy_{self.phi.label}_{path_id:06d}.csv"
        write_csv(path, self.CSV_COLUMNS, self.rows())
        return path


def close_martingale(led):
    """Append the newest row's residual as the martingale, with its realized
    quadratic variation (0 on the first row)."""
    n = led.residual(-1)
    led.qv_realized.append(led.qv_realized[-1] + (n - led.martingale[-1]) ** 2
                           if led.martingale else 0.0)
    led.martingale.append(n)


def index_at(times, t: float) -> int:
    """Index of time t on a ledger's stored step grid."""
    times = np.asarray(times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(f"time {t} not on the stored step grid")
    return idx


def ledger_step(traj, j: int, phi: TestFunction, ledger: EnergyLedger | None = None):
    """Advance a ledger by one step of a stride-1 trajectory (spec-style API)."""
    return trajectory_step(traj, j, ledger or EnergyLedger(phi), "energy ledger")


def ledger_residual(ledger: EnergyLedger, j: int | None = None) -> float:
    """N_{t_j}(phi); the last recorded step when j is None."""
    if j is None:
        return ledger.residual(-1)
    return ledger.residual(ledger.steps.index(j))


def qv_estimate(ledger: EnergyLedger):
    """(predicted, realized) quadratic-variation series of the residual."""
    return np.asarray(ledger.qv_predicted), np.asarray(ledger.qv_realized)


# ---------------------------------------------------------------------------
# ensemble statistics


@dataclass(frozen=True)
class Event:
    """History-measurable indicator resolved from the ensemble at time `at`.

    kinds: 'all' (whole space); 'low_energy'/'high_energy' (||u(at)||_{L2}
    below / above the q-quantile across paths).
    """

    kind: str = "all"
    at: float = 0.0
    q: float = 0.5

    def indicators(self, ledgers: list[EnergyLedger], s: float) -> np.ndarray:
        if self.kind != "all" and self.at > s + 1e-12:
            raise ConfigurationError(
                f"event at t={self.at} peeks beyond conditioning time s={s}"
            )
        n = len(ledgers)
        if self.kind == "all":
            return np.ones(n)
        idx = index_at(ledgers[0].times, self.at)
        vals = np.array([led.state_l2[idx] for led in ledgers])
        thresh = np.quantile(vals, self.q)
        if self.kind == "low_energy":
            return (vals <= thresh).astype(float)
        if self.kind == "high_energy":
            return (vals > thresh).astype(float)
        raise ConfigurationError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class EventStatistic:
    event: str
    mean: float
    stderr: float
    statistic: float
    n_active: int


@dataclass(frozen=True)
class SupermartingaleReport:
    s: float
    t: float
    statistics: tuple[EventStatistic, ...]
    threshold: float
    passed: bool


def _one_sided_stat(vals: np.ndarray) -> tuple[float, float, float]:
    mean = float(np.mean(vals))
    if len(vals) > 1:
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    else:
        stderr = 0.0
    if stderr == 0.0:
        stat = 0.0 if mean <= 1e-12 else np.inf
    else:
        stat = mean / stderr
    return mean, stderr, stat


def one_sided_test(ledgers: list, process, s: float, t: float, events: list[Event],
                   threshold: float, what: str):
    """(statistics, passed) of the one-sided test E[(X_t - X_s) 1_A] <= 0 of
    the process X = process(ledger, step index), per event A."""
    if len(ledgers) < 2:
        raise ConfigurationError(f"{what} test needs an ensemble")
    if t < s:
        raise ConfigurationError("need s <= t")
    i_s = index_at(ledgers[0].times, s)
    i_t = index_at(ledgers[0].times, t)
    dx = np.array([process(led, i_t) - process(led, i_s) for led in ledgers])
    stats = []
    for ev in events:
        ind = ev.indicators(ledgers, s)
        mean, stderr, stat = _one_sided_stat(dx * ind)
        stats.append(EventStatistic(ev.kind, mean, stderr, stat, int(ind.sum())))
    return tuple(stats), all(st.statistic <= threshold for st in stats)


def supermartingale_test(ledgers: list[EnergyLedger], s: float, t: float,
                         events: list[Event], threshold: float = 3.0) -> SupermartingaleReport:
    """One-sided test of E[(X_t - X_s) 1_A] <= 0 for the energy process X."""
    stats, passed = one_sided_test(ledgers, lambda led, i: led.supermartingale_process(i),
                                   s, t, events, threshold, "supermartingale")
    return SupermartingaleReport(s, t, stats, threshold, passed)


@dataclass(frozen=True)
class LEIReport:
    lhs: float
    rhs: float
    stderr: float
    passed: bool


def lei_scalar_check(ledgers: list[EnergyLedger], xi, t: float | None = None,
                     threshold: float = 3.0) -> LEIReport:
    """E[xi E_t] <= E[xi (compensator + N_t)] within threshold * stderr.

    ``xi`` maps a ledger (the path history) to a bounded nonnegative scalar.
    """
    idx = -1 if t is None else index_at(ledgers[0].times, t)
    xis = np.array([float(xi(led)) for led in ledgers])
    if np.any(xis < 0):
        raise ConfigurationError("xi must be nonnegative on every path")
    lhs = xis * np.array([led.energy_functional(idx) for led in ledgers])
    rhs = xis * np.array([
        led._initial_energy + led.compensator[idx] + led.martingale[idx]
        for led in ledgers
    ])
    diff = lhs - rhs
    mean, stderr, _ = _one_sided_stat(diff)
    passed = mean <= threshold * stderr + 1e-12
    return LEIReport(float(np.mean(lhs)), float(np.mean(rhs)), stderr, passed)


# bounded nonnegative path functionals xi of the LEI check, by config name
XI_FUNCTIONALS = {
    "one": lambda led: 1.0,
    "inv_sup_energy": lambda led: 1.0 / (1.0 + max(led.state_l2) ** 2),
}


@dataclass(frozen=True)
class ContinuityReport:
    ratios: tuple[float, ...]
    lambdas: tuple[float, ...]
    stable: bool


def phi_l5_distance(phi1: TestFunction, phi2: TestFunction, times: np.ndarray,
                    dt: float, p: int) -> float:
    """||phi1 - phi2||_{L^5([0,T] x T^3)} by left-endpoint/grid quadrature."""
    s1, s2 = phi1.spatial_values(p), phi2.spatial_values(p)
    total = 0.0
    for t in times[:-1]:
        diff = phi1.theta(t) * s1 - phi2.theta(t) * s2
        total += dt * float(np.mean(np.abs(diff) ** 5))
    return total ** (1.0 / 5.0)


def martingale_map_continuity(paired_ledgers: list[tuple[EnergyLedger, EnergyLedger]],
                              phi1: TestFunction, phi2: TestFunction,
                              alpha: float, dt: float, pad: int,
                              lambdas=(1.0, 0.5, 0.25)) -> ContinuityReport:
    """Empirical E sup_t |N(phi1) - N(phi2)|^alpha over ||phi1-phi2||_L5^alpha.

    N is linear in phi, so the ratio is invariant under phi2 -> phi1 +
    lam (phi2 - phi1); the report exercises that scaling on the recorded
    series (contract: stable within a factor 2).
    """
    if not (1.0 <= alpha < 4.0):
        raise ConfigurationError(f"alpha must lie in [1, 4), got {alpha}")
    times = np.asarray(paired_ledgers[0][0].times)
    dist = phi_l5_distance(phi1, phi2, times, dt, pad)
    ratios = []
    for lam in lambdas:
        sups = [
            np.max(np.abs(lam * (np.asarray(l1.martingale) - np.asarray(l2.martingale))))
            for l1, l2 in paired_ledgers
        ]
        num = float(np.mean(np.asarray(sups) ** alpha))
        den = (lam * dist) ** alpha
        ratios.append(num / den if den > 0 else 0.0)
    finite = [r for r in ratios if r > 0]
    stable = bool(finite and max(finite) <= 2.0 * min(finite))
    return ContinuityReport(tuple(ratios), tuple(lambdas), stable)
