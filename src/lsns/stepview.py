"""Streaming access to per-step fields, and the one way to drive the ledgers.

A ``StepView`` wraps one state of a path and lazily caches the physical-space
syntheses the ledgers need (velocity, gradients, pressure, noise fields), so
the energy, vorticity and dissipation ledgers share them. Each field has one
accessor taking the synthesis grid size P: a ledger asks for the smallest
grid (from the native M up to the padded ``pad`` = 2M) on which its
integrand is exactly resolved, and for ``pad`` where no finite grid is.
Every synthesis goes through ``spectral.synthesize``, one call per field or
stack, and every field goes there as values on the retained modes: u is
gathered onto them once per view, and each field follows from it by its
per-mode factor (2 pi i n for a gradient, -4 pi^2 |n|^2 for the Laplacian,
the mollifier's multiplier, the curl kernel), so no full layout is built. A
gradient comes as its 3 x 3 components, the pressure as its retained modes,
and each kind of noise field as one (N, 3, R) stack
(``Workspace.noise_modes``). Fields that follow from cached samples take
none: the vorticity is the antisymmetric part of the velocity gradient's
samples, and the unmollified noise sigma_k(u) is evaluated pointwise from
the velocity's samples on the pad (``NoiseModel.sample``).

Views come from the one Euler-Maruyama loop (``integrate.em_path``) via
``views_of`` while integrating (``iter_views``), each sharing its state's
cache dict with the step, which leaves the pressure and noise fields there,
or from the states of a stored stride-1 trajectory (``views_from_trajectory``)
with an empty cache, computing them through the same ``Workspace`` accessors;
so replayed diagnostics reproduce inline ones bit-exactly. ``drive`` is the
one driver: it feeds a view stream to ledgers, ``begin(v0)`` then
``advance(v_j, v_j+1)`` per step.

Every ledger is a ``Ledger``: a table of per-row series declared once, in CSV
order (``SERIES``), from which its rows, path-record payload, restore from a
record and martingale closure all follow (see ``Ledger``).

Spatial integrals of products of band-limited factors are exact Riemann
means on the grids chosen. The pointwise (non-polynomial) vorticity
transforms are not band-limited, and the 2M grid does not resolve them to
roundoff: against 4M, the vorticity ledger's Hessian, surrogate and L1
terms are off by up to 2e-4 relative, and its martingale by 1e-4, on
Taylor-Green over a quarter time unit at M=16 (see
``test_vorticity_ledger_pad_convergence``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .integrate import RunParams, Trajectory, Workspace, em_path
from .noise import NoiseModel
from .persist import write_csv
from .spectral import (
    TWO_PI,
    ScalarField,
    SpectralField,
    curl_modes,
    gather,
    l2_norm,
    synthesize,
)

PAD_FACTOR = 2


class StepView:
    """One state of one path plus lazily cached physical-space syntheses."""

    def __init__(self, ws: Workspace, u: SpectralField, index: int,
                 cache: dict | None = None):
        self.ws = ws
        self.grid = ws.grid
        self.u = u
        self.index = index
        self.t = index * ws.params.dt
        self.pad = PAD_FACTOR * ws.grid.m
        self._cache = {} if cache is None else cache  # shared with the step of u

    def exact_grid(self, degree: int) -> int:
        """Smallest even P from M up to ``pad`` on which the Riemann mean of a
        product of total per-axis degree ``degree`` is exact (P > degree);
        ``pad`` where none is."""
        return min(self.pad, max(self.grid.m, 2 * (degree // 2 + 1)))

    def _get(self, key, builder, cache: dict | None = None):
        cache = self._cache if cache is None else cache
        if key not in cache:
            cache[key] = builder()
        return cache[key]

    # -- state fields --------------------------------------------------------

    @property
    def pressure(self) -> ScalarField:
        return self.ws.pressure(self.u, self._cache)

    @property
    def state_l2(self) -> float:
        return self._get("state_l2", lambda: l2_norm(self.u))

    @property
    def u_modes(self) -> np.ndarray:
        """u on the retained modes, (3, R): every field below is built from it."""
        return self._get("u_modes", lambda: gather(self.grid, self.u.coeffs))

    def _grad_modes(self, c: np.ndarray) -> np.ndarray:
        """Retained modes of d c_j / d x_i, (3, 3, R), index [i, j]."""
        return TWO_PI * 1j * self.grid.modes.n[:, None] * c[None, :]

    def _synth(self, key, p: int, modes):
        """The samples on the P grid of the retained-mode stack ``modes()``."""
        return self._get((key, p), lambda: synthesize(modes(), p, self.grid))

    def u_phys(self, p: int) -> np.ndarray:
        return self._synth("u", p, lambda: self.u_modes)

    def u_sq(self, p: int) -> np.ndarray:
        return self._get(("u_sq", p), lambda: np.sum(self.u_phys(p) ** 2, axis=0))

    def grad_u_phys(self, p: int) -> np.ndarray:
        """d u_j / d x_i, shape (3, 3, P, P, P)."""
        return self._synth("grad_u", p, lambda: self._grad_modes(self.u_modes))

    def lap_u_phys(self, p: int) -> np.ndarray:
        return self._synth("lap_u", p,
                           lambda: self.u_modes * (-(TWO_PI**2) * self.grid.modes.k2))

    def v_phys(self, p: int) -> np.ndarray:
        """Mollified advecting velocity psi_eps * u (zero when the test hook
        disables the advection, so the ledger matches the hooked system)."""
        if self.ws.params.hooks.disable_nonlinearity:
            return self._get(("v", p), lambda: np.zeros_like(self.u_phys(p)))
        return self._synth("v", p, lambda: self.u_modes * self.ws.mol_modes)

    def p_phys(self, p: int) -> np.ndarray:
        return self._synth("p", p, lambda: gather(self.grid, self.pressure.coeffs))

    def mollified_grad_u_phys(self, p: int) -> np.ndarray:
        """psi_eps * (d u_j / d x_i) (equals d(psi*u)/dx)."""
        return self._synth("mol_grad_u", p,
                           lambda: self._grad_modes(self.u_modes) * self.ws.mol_modes)

    # -- vorticity -----------------------------------------------------------

    def omega_phys(self, p: int) -> np.ndarray:
        """curl u on the P grid: the antisymmetric part of ``grad_u_phys(p)``,
        so it costs no synthesis of its own."""

        def build():
            g = self.grad_u_phys(p)  # g[i, j] = d_i u_j
            return np.stack([g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]])

        return self._get(("omega", p), build)

    def grad_omega_phys(self, p: int) -> np.ndarray:
        return self._synth("grad_omega", p,
                           lambda: self._grad_modes(curl_modes(self.grid, self.u_modes)))

    # -- noise fields at the left endpoint ------------------------------------

    def noise_phys(self, tag: str, p: int) -> np.ndarray:
        """The noise fields ``tag`` on the P grid, stacked (N, 3, P, P, P).
        ``raw`` is sigma_k(u) evaluated pointwise from u's samples on that
        grid (``NoiseModel.sample``); the others are the stacks of
        ``Workspace.noise_modes``, synthesized in one call."""
        ws = self.ws
        if ws.noise is None:
            return []

        def build():
            if tag != "raw":
                return synthesize(ws.noise_modes(tag, self.u, self._cache), p, self.grid)
            return ws.noise.sample(range(1, ws.n_noise + 1), p,
                                   None if ws.noise.state_free else self.u_phys(p))

        return self.noise_derived(("noise", tag, p), build)

    def noise_derived(self, key, builder):
        """A value that depends on the state through its noise fields alone,
        cached with them (``Workspace.noise_cache``): once per path for
        state-free noise."""
        return self._get(key, builder, self.ws.noise_cache(self._cache))


def views_of(stream, ws: Workspace):
    """StepViews over an ``em_path`` stream, each sharing its state's cache
    with the step that leaves it."""
    return (StepView(ws, u, j, cache) for j, u, cache in stream)


def iter_views(params: RunParams, u0: SpectralField, noise: NoiseModel | None):
    """Integrate a path, yielding a StepView per state (terminal included)."""
    ws = Workspace(params, noise)
    return views_of(em_path(params, u0, noise, ws), ws)


def views_from_trajectory(traj: Trajectory):
    """Replay StepViews from stored states; each computes what the step left
    in the cache as the step did, so they are identical to inline views."""
    traj.require_stride_one("ledger replay")
    for j, u in enumerate(traj.states):
        yield StepView(traj.workspace, u, j)


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


# ---------------------------------------------------------------------------
# the ledger series table

SUM = "sum"      # a time integral advanced by the step's increments
STATE = "state"  # a quantity of the row's state
VIEW_SERIES = {"step": lambda v: v.index, "time": lambda v: v.t,
               "state_l2": lambda v: v.state_l2}


class Ledger:
    """A per-path table of series, one row per view, fed by ``drive``.

    A ledger declares its series once, ``name: kind`` in CSV order:
    ``STATE`` (a quantity of the row's state, passed to ``push`` by name, or
    None, an empty cell, where the row has none), ``SUM`` (a time integral
    advanced by the increments passed to ``push``, and repeated where a step
    passes none, as outside a test function's temporal support) or a
    function ``f(ledger, row)`` of the row's earlier columns. Every ledger
    also records ``step``, ``time`` and ``state_l2`` from the view; its table
    lists them where its CSV has them. Each series reads as ``ledger.<name>``.
    A ledger with a per-path CSV sets ``CSV_COLUMNS`` and its file ``stem``.

    ``store`` puts the ledger's ``payload`` into a path record, and
    ``judge(records, cfg, verdicts)`` reads it back from the completed records,
    judges them through ``ensemble.Verdicts`` and returns its summary blocks.
    """

    RECORDED: tuple = ()  # series the path record keeps besides time and state_l2

    def __init__(self, table: dict):
        self.table = {**dict.fromkeys(VIEW_SERIES, STATE), **table}
        self.columns = {name: [] for name in self.table}

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def push(self, view: StepView, incs: dict | None = None, **state):
        """Append the row of ``view``: its state quantities, every sum plus
        its increments (a float or a list added in order), then the derived
        columns."""
        incs = incs or {}
        row = {name: get(view) for name, get in VIEW_SERIES.items()}
        for name, kind in self.table.items():
            col = self.columns[name]
            if kind is SUM:
                val = col[-1] if col else 0.0
                terms = incs.get(name, [])
                for term in terms if isinstance(terms, list) else (terms,):
                    val += term
            elif kind is STATE:
                val = row[name] if name in row else state.get(name)
            else:
                val = kind(self, row)
            row[name] = val
            col.append(val)

    def rows(self):
        return zip(*(self.columns[name] for name in self.CSV_COLUMNS))

    def export(self, directory, path_id: int) -> Path:
        path = Path(directory) / f"{self.stem}_{path_id:06d}.csv"
        write_csv(path, self.CSV_COLUMNS, self.rows())
        return path

    def payload(self) -> dict:
        """The path-record entry: the recorded series."""
        return {"times": list(self.time), "state_l2": list(self.state_l2),
                **{name: list(self.columns[name]) for name in self.RECORDED}}

    def restore(self, payload: dict):
        """Refill the recorded series from ``payload()``."""
        self.columns["time"] = payload["times"]
        for name in ("state_l2", *self.RECORDED):
            self.columns[name] = payload[name]


def realized_qv(led: Ledger, row: dict) -> float:
    """Realized quadratic variation of the martingale column (0 at row 0)."""
    m = led.martingale  # this row's value is already appended
    return led.qv_realized[-1] + (m[-1] - m[-2]) ** 2 if len(m) > 1 else 0.0
