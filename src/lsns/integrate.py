"""Euler-Maruyama time integration of the Galerkin-truncated,
Leray-regularized stochastic Navier-Stokes system on the torus.

One step of the dynamics, with v = psi_eps * u the mollified velocity,
P the Leray projection, Q the dealias (Galerkin) truncation and
H = exp(-4 pi^2 nu |n|^2 dt) the exact viscous factor:

    drift   = P[-div Q(v (x) u)]          (computed as -div T - grad p)
    eta     = P[ Q(sum_k psi_eps * sigma_k(u) dB_k) ]
    em_explicit:       u' = u + dt*(drift + nu Lap u) + eta
    em_semi_implicit:  u' = H (u + dt*drift + eta)

Ito convention throughout: the noise coefficients and the drift are
evaluated at the left endpoint. Incompressibility is enforced exactly by
the projection; the associated gradient pressure (from the mollified
advection tensor) is returned as a diagnostic.

The drift, the pressure and the noise increment are computed on the
retained half-spectrum (``spectral.product_modes``: the (2K+1)^2 (K+1)
modes inside the cut with n_z >= 0) and scattered back to the full
(3, M, M, M) layout the state keeps. Every noise family takes one path:
sigma_1(u) .. sigma_N(u) arrive on those modes as one (N, 3, R) stack
(``NoiseModel.eval_all``), which is mollified, projected and summed there;
the ledgers' noise fields (``Workspace.noise_modes``) are stacks on the same
modes, synthesized by one ``spectral.synthesize`` call per field kind.

``em_path`` is the one Euler-Maruyama loop of the package: ``integrate``
folds its stream into a ``Trajectory`` of stored states, the StepView
stream of the diagnostic ledgers wraps it (``stepview.iter_views``), and
``ensemble.run_one_path`` consumes it directly. A ``Workspace`` holds
everything a path reuses across steps, and the accessors that own the keys
of a state's one cache dict: step j leaves the pressure and noise fields
of u_j there, the StepView of u_j reads them, and a view of a stored state
computes them into an empty dict on demand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .mollifier import make_mollifier, mollify
from .noise import NoiseModel, TruncationLevel
from .rng import BrownianIncrements
from .spectral import (
    Grid,
    ScalarField,
    SpectralField,
    TWO_PI,
    curl_modes,
    divergence_and_pressure,
    gather,
    l2_norm,
    leray_project,
    product_modes,
    project_modes,
    scatter,
)

SCHEMES = ("em_explicit", "em_semi_implicit")


@dataclass(frozen=True)
class Hooks:
    """Dynamics switches used by oracle tests; all off in production runs."""

    disable_nonlinearity: bool = False


@dataclass(frozen=True)
class RunParams:
    nu: float
    epsilon: float
    dt: float
    t_end: float
    grid: Grid
    seed: int
    path_id: int = 0
    scheme: str = "em_semi_implicit"
    mollifier_kind: str = "paper_bump"
    stride: int = 1
    energy_cap: float = 1e12
    hooks: Hooks = field(default_factory=Hooks)

    def __post_init__(self):
        if self.nu < 0:
            raise ConfigurationError(f"viscosity must be nonnegative, got {self.nu}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ConfigurationError(f"horizon must be nonnegative, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end * (1 + 1e-12):
            raise ConfigurationError(f"dt={self.dt} exceeds horizon T={self.t_end}")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigurationError("horizon T must be an integer multiple of dt")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.stride < 1:
            raise ConfigurationError("stride must be >= 1")
        if self.scheme == "em_explicit":
            cfl = self.dt * self.nu * (TWO_PI * self.grid.dealias_cutoff) ** 2
            if cfl > 2.0:
                warnings.warn(
                    f"explicit viscous step unstable: dt*nu*(2 pi K)^2 = {cfl:.3g} > 2",
                    stacklevel=2,
                )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def times(self) -> np.ndarray:
        """The step grid j dt, j = 0 .. n_steps, with the bits of ``StepView.t``."""
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def truncation(self) -> TruncationLevel:
        return TruncationLevel.from_epsilon(self.epsilon)


class Workspace:
    """Per-run precomputed operators shared by every step of a path, and the
    accessors of a state's cache dict (see ``em_path``)."""

    def __init__(self, params: RunParams, noise: NoiseModel | None):
        self.params = params
        self.noise = noise
        g = params.grid
        self.grid = g
        self.mol = make_mollifier(g, params.epsilon, params.mollifier_kind)
        self.mol_modes = gather(g, self.mol.multiplier)
        self.heat = np.exp(-4.0 * np.pi**2 * params.nu * g.k2 * params.dt)
        self.n_noise = 0 if noise is None else params.truncation.n
        self._fixed: dict = {}  # noise fields of state-free noise, built once per path
        if noise is not None and self.n_noise > noise.max_k:
            raise ConfigurationError(
                f"N(eps)={self.n_noise} exceeds the noise model's max_k={noise.max_k}"
            )

    def drift(self, u: SpectralField, cache: dict) -> np.ndarray:
        """The projected drift of u; leaves u's pressure in ``cache``."""
        drift, cache["pressure"] = drift_and_pressure(u, self)
        return drift

    def pressure(self, u: SpectralField, cache: dict) -> ScalarField:
        """The left-endpoint gradient pressure of u."""
        if "pressure" not in cache:
            self.drift(u, cache)
        return cache["pressure"]

    def noise_cache(self, cache: dict) -> dict:
        """Where the noise fields of the state with ``cache`` are cached: here,
        once per path, when sigma_k does not depend on the state."""
        return self._fixed if self.noise.state_free else cache

    def noise_modes(self, tag: str, u: SpectralField, cache: dict) -> np.ndarray:
        """Noise fields of u on the retained modes, stacked (N, 3, R):
        ``injected`` (truncated psi_eps * sigma_k(u)), ``projected`` (its
        Leray projection, what the dynamics adds) or ``curl`` (curl of the
        injected field)."""
        cache = self.noise_cache(cache)
        if ("modes", tag) not in cache:
            if tag == "injected":
                cache["modes", tag] = self.noise.eval_all(self.n_noise, u) * self.mol_modes
            else:
                kernel = {"projected": project_modes, "curl": curl_modes}[tag]
                cache["modes", tag] = kernel(self.grid, self.noise_modes("injected", u, cache))
        return cache["modes", tag]

    def noise_increment(self, u: SpectralField, db: np.ndarray, cache: dict) -> np.ndarray:
        """Projected noise increment P[sum_k g_k dB_k], summed on the retained modes."""
        modes = self.noise_modes("projected", u, cache)
        return scatter(self.grid, sum(g * b for g, b in zip(modes, db)))


def initial_condition(u0: SpectralField, epsilon: float,
                      kind: str = "paper_bump") -> SpectralField:
    """psi_eps * u0, projected onto the divergence-free Galerkin space."""
    m = make_mollifier(u0.grid, epsilon, kind)
    sm = mollify(u0, m)
    return leray_project(SpectralField(u0.grid, sm.coeffs * u0.grid.dealias_mask))


def drift_and_pressure(u: SpectralField, ws: Workspace):
    """(projected drift without the viscous part, gradient pressure)."""
    if ws.params.hooks.disable_nonlinearity:
        zero_p = ScalarField(ws.grid, np.zeros_like(u.coeffs[0]))
        return np.zeros_like(u.coeffs), zero_p
    g = ws.grid
    um = gather(g, u.coeffs)
    nt, p = divergence_and_pressure(g, product_modes(g, um, um * ws.mol_modes))
    drift = scatter(g, -TWO_PI * 1j * (nt + g.modes.n * p))
    return drift, ScalarField(g, scatter(g, p))


def step(u: SpectralField, j: int, params: RunParams, noise: NoiseModel | None,
         incs: BrownianIncrements, ws: Workspace, cache: dict) -> SpectralField:
    """Advance u = u_j by step j; returns u_{j+1}, leaving the pressure and
    noise fields of u_j it computes in u_j's ``cache``."""
    c = params.dt * ws.drift(u, cache)
    c += u.coeffs
    if params.scheme == "em_explicit":
        c += params.dt * params.nu * (-(TWO_PI**2) * ws.grid.k2) * u.coeffs
    if noise is not None and ws.n_noise > 0:
        db = incs.step_increments(j, ws.n_noise)
        c += ws.noise_increment(u, db, cache)
    if params.scheme == "em_semi_implicit":
        c *= ws.heat
    u_next = SpectralField(ws.grid, c)
    # not np.vdot: a BLAS call, whose threads contend with the ensemble's workers
    if not l2_norm(u_next) <= params.energy_cap:  # also true for inf and nan
        raise BlowUpError(j)
    return u_next


def em_path(params: RunParams, u0: SpectralField, noise: NoiseModel | None,
            ws: Workspace):
    """The Euler-Maruyama loop of one path, as a stream.

    Yields ``(j, u_j, cache_j)`` for j = 0..n_steps: the state after j steps
    and its cache dict, where step j leaves what it computes of u_j. Each
    state is yielded before the step that leaves it, so a consumer has seen
    u_j when step j raises BlowUpError(j).
    """
    incs = BrownianIncrements(params.seed, params.path_id, params.dt)
    u = initial_condition(u0, params.epsilon, params.mollifier_kind)
    for j in range(params.n_steps):
        cache: dict = {}
        yield j, u, cache
        u = step(u, j, params, noise, incs, ws, cache)
    yield params.n_steps, u, {}


@dataclass
class Trajectory:
    """States of one sample path, stored per stride (and the last)."""

    params: RunParams
    noise: NoiseModel | None
    states: list[SpectralField] = field(default_factory=list)
    stored_steps: list[int] = field(default_factory=list)

    @property
    def incs(self) -> BrownianIncrements:
        return BrownianIncrements(self.params.seed, self.params.path_id, self.params.dt)

    @cached_property
    def workspace(self) -> Workspace:
        return Workspace(self.params, self.noise)

    def require_stride_one(self, what: str):
        if self.params.stride != 1:
            raise ConfigurationError(f"{what} requires a stride-1 trajectory")

    def recording(self, stream):
        """Pass an ``em_path`` stream through, storing every stride-th state
        (and the last)."""
        for j, u, cache in stream:
            if j % self.params.stride == 0 or j == self.params.n_steps:
                self.states.append(u)
                self.stored_steps.append(j)
            yield j, u, cache


def integrate(params: RunParams, u0: SpectralField,
              noise: NoiseModel | None) -> Trajectory:
    """Integrate a full path; deterministic given (seed, path_id, params).

    On blow-up the partial trajectory is attached to the raised error.
    """
    traj = Trajectory(params, noise)
    try:
        for _ in traj.recording(em_path(params, u0, noise, traj.workspace)):
            pass
    except BlowUpError as err:
        raise BlowUpError(err.step, partial=traj) from None
    return traj


def noise_term_path(traj: Trajectory) -> list[SpectralField]:
    """The reconstructed noise term: u(t_j) - u(0) - sum of drift*dt.

    Matches the accumulated projected noise increments up to one-step
    quadrature error (exactly, for the explicit scheme with frozen drift).
    """
    traj.require_stride_one("noise_term_path")
    params = traj.params
    ws = traj.workspace
    acc = np.zeros_like(traj.states[0].coeffs)
    out = [SpectralField(params.grid, acc.copy())]
    for j in range(len(traj.states) - 1):
        u = traj.states[j]
        drift, _ = drift_and_pressure(u, ws)
        visc = params.nu * (-(TWO_PI**2) * params.grid.k2) * u.coeffs
        acc = acc + params.dt * (drift + visc)
        diff = traj.states[j + 1].coeffs - traj.states[0].coeffs - acc
        out.append(SpectralField(params.grid, diff))
    return out


def fractional_sobolev_norm(series: list[SpectralField], alpha: float, r: float,
                            dt: float) -> float:
    """Discretized W^{alpha,r}([0,T]; L^2) norm of an equally spaced series.

    First term: dt * sum_j ||u_j||^r over all points. Second term:
    dt^2 * sum_{i != j} ||u_i - u_j||^r / |t_i - t_j|^{1+alpha r}; the
    |t - s| < dt diagonal is excluded.
    """
    if not (0.0 < alpha < 0.5):
        raise ConfigurationError(f"alpha must lie in (0, 1/2), got {alpha}")
    if r < 2:
        raise ConfigurationError(f"r must be >= 2, got {r}")
    if len(series) < 2:
        raise ConfigurationError("need at least two time points")
    x = np.stack([f.coeffs.ravel() for f in series])
    gram = (x @ x.conj().T).real
    norms2 = np.diag(gram)
    term1 = dt * float(np.sum(norms2 ** (r / 2.0)))
    d2 = norms2[:, None] + norms2[None, :] - 2.0 * gram
    d2 = np.maximum(d2, 0.0)
    j_idx = np.arange(len(series))
    tdiff = np.abs(j_idx[:, None] - j_idx[None, :]) * dt
    off = tdiff > 0
    term2 = dt * dt * float(
        np.sum(d2[off] ** (r / 2.0) / tdiff[off] ** (1.0 + alpha * r))
    )
    return term1 + term2
