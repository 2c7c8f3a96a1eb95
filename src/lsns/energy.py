"""Localized energy ledger for the regularized system and the martingale /
supermartingale statistics built on it.

Per step j (phi = theta(t) s(x)), the ledger advances every deterministic
term of the pathwise local energy balance

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

Spatial integrals are exact Riemann means on the smallest grid that
resolves each integrand (every integrand is a trigonometric polynomial).
The adapted spatial factors stay at the step's left endpoint (Ito), while
the deterministic temporal weights are integrated exactly over the step:
the integrals of theta and theta^2 and the increment of theta. ``begin``
tabulates them once per path for every step (``TestFunction.step_weights``)
and each step reads its row.

Since N is the residual, the scalar LEI check E[xi E_t] <= E[xi (E_0 +
compensator + N_t)] (``lei_scalar_check``) holds to rounding on every path:
it is an identity, and its verdict is degenerate.

Because the discrete dynamics injects the Leray-projected, Galerkin-truncated
noise, the ledger also records the projected compensator and the unmollified
one (the limit-system expression), plus their gaps, rather than guessing
which one a limit test should use. The unmollified integrand |sigma_k(u)|^2 s
is evaluated pointwise on the 2M pad, sigma_k applied to u's samples there
(``NoiseModel.sample``): exact for linear-multiplicative noise while
2(K + bw_c) + bw < 2M (bw_c the coefficients' bandwidth, 2 for the built-in
ones), and for cosine noise free of the aliasing of an M-grid evaluation.

``EnergyLedger.SERIES`` is the ledger's one series table (see
``stepview.Ledger``): each time integral is a ``SUM`` advanced by the step's
increments, and the functional, the martingale, its realized quadratic
variation and the two compensator gaps are derived per row. The ledger is
fed by ``stepview.drive``, inline or from a stored trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .stepview import STATE, SUM, Ledger, StepView, realized_qv
from .testfunc import TestFunction

_MEAN = lambda a: float(np.mean(a))


def _mean_of(a, b, s, spec: str):
    """The grid mean(s) of a product of three factors, as float(s): one
    ``einsum`` contraction (not a BLAS call, whose threads contend with the
    ensemble's workers)."""
    return (np.einsum(spec, a, b, s) / s.size).tolist()


class EnergyLedger(Ledger):
    """Per-path accumulator of every term in the local energy balance."""

    SERIES = {
        "step": STATE, "time": STATE, "local_energy": STATE,
        "enstrophy": SUM, "transport": SUM, "flux": SUM, "compensator": SUM,
        "compensator_projected": SUM, "compensator_unmollified": SUM,
        # E_t(u; phi): local energy + enstrophy - transport - flux
        "energy_functional": lambda led, r: (r["local_energy"] + r["enstrophy"]
                                             - r["transport"] - r["flux"]),
        # N_t(phi): the energy balance closed as a residual
        "martingale": lambda led, r: (r["energy_functional"] - led._initial_energy
                                      - r["compensator"]),
        "qv_predicted": SUM, "qv_realized": realized_qv,
        "projection_gap": lambda led, r: r["compensator"] - r["compensator_projected"],
        "mollification_gap": lambda led, r: (r["compensator_unmollified"]
                                             - r["compensator"]),
        "state_l2": STATE,
    }
    CSV_COLUMNS = list(SERIES)
    RECORDED = (
        "martingale", "compensator", "compensator_projected", "compensator_unmollified",
        "qv_predicted", "qv_realized", "energy_functional",
    )

    def __init__(self, phi: TestFunction):
        super().__init__(self.SERIES)
        self.phi = phi
        self._initial_energy = 0.0
        self._s = None  # spatial arrays cached on first view

    @property
    def key(self) -> str:
        return f"energy:{self.phi.label}"

    @property
    def stem(self) -> str:
        return f"energy_{self.phi.label}"

    # -- consumer protocol ----------------------------------------------------

    def begin(self, view: StepView):
        # the quadratic (per-axis degree 2K + bw) and cubic flux (3K + bw)
        # integrands on their smallest exact grids; the unmollified noise
        # term, sigma_k applied pointwise, on the pad
        k, bw = view.grid.dealias_cutoff, self.phi.spatial_bandwidth
        self._pq = view.exact_grid(2 * k + bw)
        self._pf = view.exact_grid(3 * k + bw)
        self._s = self.phi.spatial_values(self._pq)
        self._lap_s = self.phi.spatial_laplacian(self._pq)
        self._s_pad = self.phi.spatial_values(view.pad)
        self._grad_s_f = self.phi.spatial_grad(self._pf)
        # the temporal weights of every step, tabulated once per path
        self._w1, self._w2, self._dth, self._theta = (
            w.tolist() for w in self.phi.step_weights(view.ws.params.times))
        self._initial_energy = self._local_energy(view)
        self.push(view, local_energy=self._initial_energy)

    def advance(self, view: StepView, nxt: StepView):
        j = view.index
        w1, w2, dth = self._w1[j], self._w2[j], self._dth[j]
        # outside the temporal support every increment is exactly 0.0
        outside = w1 == 0.0 and w2 == 0.0 and dth == 0.0
        incs = {} if outside else self._increments(view, w1, w2, dth)
        self.push(nxt, incs, local_energy=self._local_energy(nxt))

    def _increments(self, view: StepView, w1: float, w2: float, dth: float) -> dict:
        nu = view.ws.params.nu
        pq, pf, pad = self._pq, self._pf, view.pad

        up, usq = view.u_phys(pq), view.u_sq(pq)
        usq_lap_s = _MEAN(usq * self._lap_s)
        vdot = np.einsum("ixyz,ixyz->xyz", view.v_phys(pf), self._grad_s_f)
        udot = np.einsum("ixyz,ixyz->xyz", view.u_phys(pf), self._grad_s_f)
        incs = {
            # by parts, int |grad u|^2 s = int (|u|^2 Lap s / 2 - u . Lap u s):
            # the 3 components of Lap u are synthesized, not the 9 of grad u
            "enstrophy": 2.0 * nu * w1 * (
                0.5 * usq_lap_s - _mean_of(up, view.lap_u_phys(pq), self._s, "ixyz,ixyz,xyz->")),
            "transport": dth * _MEAN(usq * self._s) + nu * w1 * usq_lap_s,
            "flux": w1 * (_MEAN(view.u_sq(pf) * vdot)
                          + 2.0 * _MEAN(view.p_phys(pf) * udot)),
        }
        if view.ws.noise is not None:
            injected = view.noise_phys("injected", pq)
            means = self._noise_sq_means(view, "injected", pq, self._s)
            incs["compensator"] = [w1 * gg for gg in means]
            pairings = _mean_of(injected, up, self._s, "kixyz,ixyz,xyz->k")
            incs["qv_predicted"] = [4.0 * w2 * pk**2 for pk in pairings]
            incs["compensator_projected"] = [
                w1 * gg for gg in self._noise_sq_means(view, "projected", pq, self._s)
            ]
            incs["compensator_unmollified"] = [
                w1 * gg for gg in self._noise_sq_means(view, "raw", pad, self._s_pad)
            ]
        return incs

    def _noise_sq_means(self, view: StepView, tag: str, p: int, s) -> list[float]:
        """Per-field means of |g_k|^2 s on the P grid, cached with the
        view's noise fields."""
        return view.noise_derived(
            (self, tag, p),
            lambda: [_MEAN(np.sum(g * g, axis=0) * s) for g in view.noise_phys(tag, p)])

    # -- accounting ------------------------------------------------------------

    def _local_energy(self, view: StepView) -> float:
        theta = self._theta[view.index]
        return theta * _MEAN(view.u_sq(self._pq) * self._s) if theta != 0.0 else 0.0

    # -- record ----------------------------------------------------------------

    def payload(self) -> dict:
        """The path-record entry: the series the ensemble statistics need."""
        return {**super().payload(), "initial_energy": self._initial_energy}

    @classmethod
    def from_payload(cls, phi: TestFunction, payload: dict) -> "EnergyLedger":
        """A ledger restored from ``payload()`` (its statistics series only)."""
        led = cls(phi)
        led.restore(payload)
        led._initial_energy = payload["initial_energy"]
        return led

    def store(self, record: dict):
        record.setdefault("energy", {})[self.phi.label] = self.payload()


def index_at(times, t: float) -> int:
    """Index of time t on a ledger's stored step grid."""
    times = np.asarray(times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(f"time {t} not on the stored step grid")
    return idx


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

    def __post_init__(self):
        if self.kind not in ("all", "low_energy", "high_energy"):
            raise ConfigurationError(f"unknown event kind {self.kind!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ConfigurationError(f"event quantile q={self.q} outside [0, 1]")

    def indicators(self, ledgers: list[EnergyLedger]) -> np.ndarray:
        n = len(ledgers)
        if self.kind == "all":
            return np.ones(n)
        idx = index_at(ledgers[0].time, self.at)
        vals = np.array([led.state_l2[idx] for led in ledgers])
        thresh = np.quantile(vals, self.q)
        if self.kind == "low_energy":
            return (vals <= thresh).astype(float)
        return (vals > thresh).astype(float)


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


def mean_stderr(vals) -> tuple[float, float]:
    """Sample mean and its standard error (0.0 below two samples)."""
    vals = np.asarray(vals, dtype=float)
    n = len(vals)
    mean = float(np.mean(vals)) if n else 0.0
    return mean, float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _one_sided_stat(vals: np.ndarray) -> tuple[float, float, float]:
    mean, stderr = mean_stderr(vals)
    if stderr == 0.0:
        stat = 0.0 if mean <= 1e-12 else np.inf
    else:
        stat = mean / stderr
    return mean, stderr, stat


def window_indices(times, s: float, t: float, events: list[Event]) -> tuple[int, int]:
    """The indices of s and t on the step grid ``times`` for a one-sided test
    conditioned at s: s <= t, and every event resolved on the grid by s."""
    if t < s:
        raise ConfigurationError("need s <= t")
    for ev in events:
        if ev.kind != "all":
            if ev.at > s + 1e-12:
                raise ConfigurationError(f"event at t={ev.at} peeks beyond conditioning time s={s}")
            index_at(times, ev.at)
    return index_at(times, s), index_at(times, t)


def one_sided_test(ledgers: list, process, s: float, t: float, events: list[Event],
                   threshold: float, what: str):
    """(statistics, passed) of the one-sided test E[(X_t - X_s) 1_A] <= 0 of
    the process X = process(ledger, step index), per event A."""
    if len(ledgers) < 2:
        raise ConfigurationError(f"{what} test needs an ensemble")
    i_s, i_t = window_indices(ledgers[0].time, s, t, events)
    dx = np.array([process(led, i_t) - process(led, i_s) for led in ledgers])
    stats = []
    for ev in events:
        ind = ev.indicators(ledgers)
        mean, stderr, stat = _one_sided_stat(dx * ind)
        stats.append(EventStatistic(ev.kind, mean, stderr, stat, int(ind.sum())))
    return tuple(stats), all(st.statistic <= threshold for st in stats)


def supermartingale_test(ledgers: list[EnergyLedger], s: float, t: float,
                         events: list[Event], threshold: float = 3.0) -> SupermartingaleReport:
    """One-sided test of E[(X_t - X_s) 1_A] <= 0 for the energy process
    X_t = E_t(u; phi) - regularized compensator."""
    stats, passed = one_sided_test(
        ledgers, lambda led, i: led.energy_functional[i] - led.compensator[i],
        s, t, events, threshold, "supermartingale")
    return SupermartingaleReport(s, t, stats, threshold, passed)


@dataclass(frozen=True)
class LEIReport:
    lhs: float
    rhs: float
    stderr: float
    passed: bool | None  # None: degenerate, no evidence either way
    reason: str


def lei_scalar_check(ledgers: list[EnergyLedger], xi, t: float | None = None) -> LEIReport:
    """E[xi E_t] against E[xi (E_0 + compensator + N_t)].

    ``xi`` maps a ledger (the path history) to a bounded nonnegative scalar.
    The ledger defines N_t as the residual E_t - E_0 - compensator, so the
    two sides agree to rounding on every path: the check is an identity and
    its verdict is degenerate (passed None) until N_t is judged against the
    explicit Ito sum. lhs, rhs and the stderr of their difference are still
    reported.
    """
    idx = -1 if t is None else index_at(ledgers[0].time, t)
    xis = np.array([float(xi(led)) for led in ledgers])
    if np.any(xis < 0):
        raise ConfigurationError("xi must be nonnegative on every path")
    lhs = xis * np.array([led.energy_functional[idx] for led in ledgers])
    rhs = xis * np.array([
        led._initial_energy + led.compensator[idx] + led.martingale[idx]
        for led in ledgers
    ])
    _, stderr = mean_stderr(lhs - rhs)
    lhs, rhs = float(np.mean(lhs)), float(np.mean(rhs))
    return LEIReport(lhs, rhs, stderr, None,
                     f"identity: N_t is defined as the residual E_t - E_0 - compensator, "
                     f"so lhs - rhs = {lhs - rhs:.3g} (stderr {stderr:.3g}) is rounding")


# bounded nonnegative path functionals xi of the LEI check, by config name
XI_FUNCTIONALS = {
    "one": lambda led: 1.0,
    "inv_sup_energy": lambda led: 1.0 / (1.0 + max(led.state_l2) ** 2),
}

