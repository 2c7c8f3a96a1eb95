"""Streaming access to per-step fields for the diagnostic ledgers.

A ``StepView`` wraps one state of a path and lazily caches the physical-space
syntheses the ledgers need (velocity, gradients, pressure, noise fields), so
the energy, vorticity and dissipation ledgers share them. Each field has one
accessor taking the synthesis grid size P: a ledger asks for the smallest
grid (from the native M up to the padded ``pad`` = 2M) on which its
integrand is exactly resolved, and for ``pad`` where no finite grid is.
Every synthesis goes through ``spectral.synthesize``.

Views come from the one Euler-Maruyama loop (``integrate.em_path``) via
``views_of`` while integrating (``iter_views``), or from a stored stride-1
trajectory (``views_from_trajectory``); both construct the same values, so
replayed diagnostics reproduce inline ones bit-exactly. ``drive`` feeds a
view stream to the ledgers.

Spatial integrals of products of band-limited factors are exact Riemann
means on the grids chosen, and the pointwise (non-polynomial) vorticity
transforms on the padded grid see only the exponentially small spectral
tail.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .integrate import RunParams, Trajectory, Workspace, drift_and_pressure, em_path
from .mollifier import mollify
from .noise import NoiseModel
from .spectral import (
    ScalarField,
    SpectralField,
    curl,
    grad_components,
    l2_norm,
    synthesize,
)

PAD_FACTOR = 2


class StepView:
    """One state of one path plus lazily cached physical-space syntheses."""

    def __init__(self, ws: Workspace, u: SpectralField, index: int,
                 pressure: ScalarField | None):
        self.ws = ws
        self.grid = ws.grid
        self.u = u
        self.index = index
        self.t = index * ws.params.dt
        self._pressure = pressure
        self.pad = PAD_FACTOR * ws.grid.m
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def _grad_phys(self, key, p: int, coeffs):
        """A (3, 3, ...) gradient coefficient array, synthesized row by row."""

        def build():
            g = coeffs()
            arr = np.empty((3, 3, p, p, p))
            for i in range(3):
                arr[i] = synthesize(SpectralField(self.grid, g[i]), p)
            return arr

        return self._get((key, p), build)

    # -- state fields --------------------------------------------------------

    @property
    def pressure(self) -> ScalarField:
        if self._pressure is None:
            self._pressure = drift_and_pressure(self.u, self.ws)[1]
        return self._pressure

    @property
    def state_l2(self) -> float:
        return self._get("state_l2", lambda: l2_norm(self.u))

    def u_phys(self, p: int) -> np.ndarray:
        return self._get(("u", p), lambda: synthesize(self.u, p))

    def u_sq(self, p: int) -> np.ndarray:
        return self._get(("u_sq", p), lambda: np.sum(self.u_phys(p) ** 2, axis=0))

    def grad_u_phys(self, p: int) -> np.ndarray:
        """d u_j / d x_i, shape (3, 3, P, P, P)."""
        return self._grad_phys("grad_u", p, lambda: grad_components(self.u))

    def v_phys(self, p: int) -> np.ndarray:
        """Mollified advecting velocity psi_eps * u (zero when the test hook
        disables the advection, so the ledger matches the hooked system)."""
        if self.ws.params.hooks.disable_nonlinearity:
            return self._get(("v", p), lambda: np.zeros_like(self.u_phys(p)))
        return self._get(("v", p), lambda: synthesize(mollify(self.u, self.ws.mol), p))

    def p_phys(self, p: int) -> np.ndarray:
        return self._get(("p", p), lambda: synthesize(self.pressure, p))

    def mollified_grad_u_phys(self, p: int) -> np.ndarray:
        """psi_eps * (d u_j / d x_i) (equals d(psi*u)/dx)."""
        return self._grad_phys(
            "mol_grad_u", p,
            lambda: grad_components(self.u) * self.ws.mol.multiplier[None, None],
        )

    # -- vorticity -----------------------------------------------------------

    @property
    def omega(self) -> SpectralField:
        return self._get("omega", lambda: curl(self.u))

    def omega_phys(self, p: int) -> np.ndarray:
        return self._get(("omega", p), lambda: synthesize(self.omega, p))

    def grad_omega_phys(self, p: int) -> np.ndarray:
        return self._grad_phys("grad_omega", p, lambda: grad_components(self.omega))

    # -- noise fields at the left endpoint ------------------------------------

    def noise_phys(self, tag: str, p: int) -> list[np.ndarray]:
        """The noise fields ``tag`` (see ``Workspace.noise_spectra``) on the P grid."""
        ws = self.ws
        if ws.noise is None:
            return []
        if ws.additive_projected is not None:
            return ws.additive_phys(tag, p)
        raw = self._get("noise_raw", lambda: ws.noise.eval_all(ws.n_noise, self.u))
        return self._get(
            ("noise", tag, p),
            lambda: [synthesize(g, p) for g in ws.noise_spectra(tag, raw)],
        )


def views_of(stream, ws: Workspace):
    """StepViews over an ``em_path`` stream: each view receives its pressure
    from the step that leaves it, before the next view is yielded."""
    prev = None
    for j, u, p_prev in stream:
        if prev is not None:
            prev._pressure = p_prev
        prev = StepView(ws, u, j, pressure=None)
        yield prev


def iter_views(params: RunParams, u0: SpectralField, noise: NoiseModel | None):
    """Integrate a path, yielding a StepView per state (terminal included)."""
    ws = Workspace(params, noise)
    return views_of(em_path(params, u0, noise, ws), ws)


def views_from_trajectory(traj: Trajectory):
    """Replay StepViews from stored states; identical to inline views."""
    traj.require_stride_one("ledger replay")
    for j, (u, p) in enumerate(zip(traj.states, traj.pressures)):
        yield StepView(traj.workspace, u, j, pressure=p)


def trajectory_step(traj: Trajectory, j: int, ledger, what: str):
    """Advance ``ledger`` by step j of a stride-1 trajectory, beginning it at
    step 0 if it is fresh (the spec-style per-step API of the ledgers)."""
    traj.require_stride_one(what)
    view = lambda i: StepView(traj.workspace, traj.states[i], i, traj.pressures[i])
    if not ledger.steps:
        ledger.begin(view(0))
    if ledger.steps[-1] != j:
        raise ConfigurationError(f"ledger is at step {ledger.steps[-1]}, expected {j}")
    ledger.advance(view(j), view(j + 1))
    return ledger


def drive(views, consumers: list):
    """Feed consecutive views to every consumer: begin(v0), advance(v_j, v_j+1)."""
    it = iter(views)
    try:
        prev = next(it)
    except StopIteration:
        raise ConfigurationError("empty view stream") from None
    for c in consumers:
        c.begin(prev)
    for view in it:
        for c in consumers:
            c.advance(prev, view)
        prev = view
    return consumers
