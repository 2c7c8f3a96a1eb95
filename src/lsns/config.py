"""Experiment configuration: a single versioned JSON document.

Blocks: ``run`` (solver parameters), ``noise`` (coefficient family),
``diagnostics`` (which ledgers and tests to compute), ``ensemble`` (path
count, base seed, workers) and ``output`` (directory, stride, what to
persist). Parsing then serializing is the identity on the canonical form,
and the SHA-256 of the canonical form stamps every output for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dissipation import DRConfig, DRLedger
from .energy import XI_FUNCTIONALS, EnergyLedger, Event, window_indices
from .errors import ConfigurationError
from .integrate import RunParams
from .noise import KINDS as NOISE_KINDS
from .noise import NoiseModel, make_noise_model
from .spectral import (
    Grid,
    ScalarField,
    SpectralField,
    has_nyquist,
    is_real_spectrum,
    random_solenoidal,
    taylor_green,
)
from .testfunc import SpatialBump, TemporalWindow, TestFunction
from .vorticity import HFunction, VorticityLedger

SCHEMA_VERSION = 1


def _need(block: dict, key: str, kind, where: str):
    if key not in block:
        raise ConfigurationError(f"{where}.{key}: missing")
    val = block[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigurationError(f"{where}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _opt(block: dict, key: str, default):
    return block.get(key, default)


def _keys(names: str) -> dict:
    return dict.fromkeys(names.split())


# The keys each block accepts: a dict value is a sub-block, a one-element list
# the schema of each entry of a list of sub-blocks, None a plain value.
SCHEMA = {
    "schema_version": None,
    "run": {**_keys("nu epsilon dt t_end m dealias_cutoff scheme mollifier_kind"),
            "initial_condition": _keys("kind amplitude seed smooth path")},
    "noise": _keys("kind amplitude ratio max_k flatness coefficient_files tail_beyond_max_k"),
    "diagnostics": {
        "test_functions": [{"name": None, "spatial": _keys("center exponent"),
                            "temporal": _keys("a b ramp")}],
        "events": [_keys("kind at q")],
        "supermartingale": _keys("s t"),
        "lei_xi": None,
        "vorticity": _keys("delta"),
        "dissipation": _keys("ell_values alpha_kind"),
    },
    "ensemble": _keys("paths seed workers"),
    "output": _keys("directory stride save_snapshots write_csv"),
}

# Keys that older configs carry and nothing reads any more: accepted, ignored.
RETIRED_KEYS = frozenset({"diagnostics.dissipation.quadrature"})


def _check_keys(block, schema: dict, where: str):
    """Reject a key the schema does not name, so a misspelt option fails here
    instead of silently falling back to its default."""
    if not isinstance(block, dict):
        return  # the block's reader reports a wrong type
    for key, val in block.items():
        path = f"{where}.{key}" if where else key
        if key not in schema:
            if path not in RETIRED_KEYS:
                raise ConfigurationError(f"{where or 'config'}: unknown key {key!r}")
            continue
        sub = schema[key]
        if isinstance(sub, list):
            for i, item in enumerate(val if isinstance(val, list) else []):
                _check_keys(item, sub[0], f"{path}[{i}]")
        elif sub is not None:
            _check_keys(val, sub, path)


def _check_exact_grid(name: str, exponent: int, grid: Grid):
    """The ledgers' cubic integrands (per-axis degree 3K + exponent) have
    exact Riemann means on the 2M pad only below 2M; past that they would
    fall back to the pad silently inexact."""
    m, k = grid.m, grid.dealias_cutoff
    if 3 * k + exponent >= 2 * m:
        raise ConfigurationError(
            f"test function {name!r}: exponent {exponent} gives 3K + exponent = "
            f"{3 * k + exponent} >= 2M = {2 * m} (K = {k}); the largest exact "
            f"exponent is {2 * m - 1 - 3 * k}"
        )


def _read_spectrum(where: str, path: str, grid: Grid):
    """A snapshot's field, which must be the spectrum of a real field: the
    runs synthesize real samples and would silently keep its Hermitian part."""
    from .persist import read_snapshot

    fld, _ = read_snapshot(path, grid)
    if not is_real_spectrum(fld.coeffs):
        raise ConfigurationError(f"{where}: not the spectrum of a real field (c[n] != conj c[-n])")
    return fld


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    # ---- construction --------------------------------------------------------

    @classmethod
    def parse(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError("config root must be an object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
            )
        for block in ("run", "ensemble", "output"):
            if block not in doc:
                raise ConfigurationError(f"{block}: missing block")
        _check_keys(doc, SCHEMA, "")
        cfg = cls(raw=json.loads(canonical_json(doc)))
        # eager validation of every cross-referenced object
        cfg.run_params(path_id=0)
        cfg.noise_model()
        initial_field(cfg)
        cfg.supermartingale_window()
        cfg.ledgers()
        cfg.xi_functionals()
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"{path}: invalid JSON ({err})") from None
        return cls.parse(doc)

    # ---- blocks --------------------------------------------------------------

    def grid(self) -> Grid:
        run = self.raw["run"]
        m = _need(run, "m", int, "run")
        cutoff = _opt(run, "dealias_cutoff", -1)
        return Grid(m, cutoff)

    def run_params(self, path_id: int) -> RunParams:
        run = self.raw["run"]
        ens = self.raw["ensemble"]
        return RunParams(
            nu=_need(run, "nu", float, "run"),
            epsilon=_need(run, "epsilon", float, "run"),
            dt=_need(run, "dt", float, "run"),
            t_end=_need(run, "t_end", float, "run"),
            grid=self.grid(),
            seed=_need(ens, "seed", int, "ensemble"),
            path_id=path_id,
            scheme=_opt(run, "scheme", "em_semi_implicit"),
            mollifier_kind=_opt(run, "mollifier_kind", "paper_bump"),
            stride=_opt(self.raw["output"], "stride", 1),
        )

    def noise_model(self) -> NoiseModel | None:
        block = self.raw.get("noise")
        if block is None:
            return None
        kind = _need(block, "kind", str, "noise")
        if kind == "off":
            return None
        if kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise.kind: unknown family {kind!r}")
        coefficient_files = block.get("coefficient_files")
        if coefficient_files is not None:
            return self._noise_from_files(kind, coefficient_files, block)
        return make_noise_model(
            self.grid(), kind,
            amplitude=_need(block, "amplitude", float, "noise"),
            ratio=_opt(block, "ratio", 0.5),
            max_k=_opt(block, "max_k", 64),
            flatness=_opt(block, "flatness", 0.5),
        )

    def _noise_from_files(self, kind, files, block) -> NoiseModel:
        grid = self.grid()
        want_scalar = kind == "linear_multiplicative"
        fields = []
        for i, f in enumerate(files):
            where = f"noise.coefficient_files[{i}] ({f})"
            fld = _read_spectrum(where, f, grid)
            if isinstance(fld, ScalarField) != want_scalar:
                raise ConfigurationError(f"{where}: wrong field kind for {kind}")
            if has_nyquist(fld.coeffs):  # no exact samples on the ledgers' finer grids
                raise ConfigurationError(
                    f"{where}: content on a Nyquist plane (|n_i| = M/2 = {grid.m // 2})")
            fields.append(fld)
        stored = {"scalar_fields" if want_scalar else "vector_fields": tuple(fields)}
        return NoiseModel(kind, grid, len(fields), **stored, decay_note="loaded from files",
                          tail_beyond_max_k=_opt(block, "tail_beyond_max_k", 0.0))

    def diagnostics(self) -> dict:
        return self.raw.get("diagnostics", {})

    def test_functions(self) -> dict[str, TestFunction]:
        out = {}
        t_end = self.raw["run"]["t_end"]
        specs = self.diagnostics().get("test_functions", [])
        for i, spec in enumerate(specs):
            name = spec.get("name", f"phi{i}")
            spatial = None
            if "spatial" in spec:
                sp = spec["spatial"]
                spatial = SpatialBump(
                    center=tuple(_opt(sp, "center", (0.5, 0.5, 0.5))),
                    exponent=_need(sp, "exponent", int, f"test_functions[{i}].spatial"),
                )
                _check_exact_grid(name, spatial.exponent, self.grid())
            temporal = None
            if "temporal" in spec:
                tp = spec["temporal"]
                a = _need(tp, "a", float, f"test_functions[{i}].temporal")
                b = _need(tp, "b", float, f"test_functions[{i}].temporal")
                if not (0.0 <= a < b <= t_end):
                    raise ConfigurationError(
                        f"test_functions[{i}].temporal: support ({a}, {b}) not inside (0, {t_end})"
                    )
                temporal = TemporalWindow(a, b, _need(tp, "ramp", float,
                                                      f"test_functions[{i}].temporal"))
            out[name] = TestFunction(spatial, temporal, label=name)
        return out

    def events(self) -> list[Event]:
        out = []
        for i, spec in enumerate(self.diagnostics().get("events", [{"kind": "all"}])):
            kind = _need(spec, "kind", str, f"events[{i}]")
            out.append(Event(kind, at=_opt(spec, "at", 0.0), q=_opt(spec, "q", 0.5)))
        return out

    def supermartingale_window(self) -> tuple[float, float] | None:
        """The (s, t) of the supermartingale test, checked against the step
        grid as the test will check it (``energy.window_indices``)."""
        events = self.events()  # checked here even where no test reads them
        block = self.diagnostics().get("supermartingale")
        if block is None:
            return None
        s, t = (_need(block, key, float, "diagnostics.supermartingale") for key in "st")
        p = self.run_params(path_id=0)
        window_indices(np.arange(p.n_steps + 1) * p.dt, s, t, events)
        return s, t

    def dr_config(self) -> DRConfig | None:
        block = self.diagnostics().get("dissipation")
        if block is None:
            return None
        cfg = DRConfig(
            ell_values=tuple(_need(block, "ell_values", list, "diagnostics.dissipation")),
            alpha_kind=_opt(block, "alpha_kind", "paper_bump"),
        )
        cfg.validate_resolution(self.grid())
        return cfg

    def h_function(self) -> HFunction | None:
        block = self.diagnostics().get("vorticity")
        if block is None:
            return None
        return HFunction(_opt(block, "delta", 0.5))

    def ledgers(self) -> list:
        """The ledger plan: fresh ledgers for one path, in record order (one
        energy ledger per test function, then vorticity, then dissipation
        paired with the first test function)."""
        phis = list(self.test_functions().values())
        out = [EnergyLedger(phi) for phi in phis]
        hf = self.h_function()
        if hf is not None:
            out.append(VorticityLedger(hf))
        drc = self.dr_config()
        if drc is not None:
            if not phis:
                raise ConfigurationError("diagnostics.dissipation: needs a test function")
            out.append(DRLedger(phis[0], drc))
        grid = self.grid()
        if out and 2 * grid.dealias_cutoff >= grid.m:
            raise ConfigurationError(
                f"diagnostics: the ledgers need dealias_cutoff < M/2, got {grid.dealias_cutoff} "
                f"at M={grid.m} (a state on the Nyquist planes has no exact finer-grid samples)"
            )
        return out

    def xi_functionals(self) -> dict:
        """The LEI path functionals named in diagnostics.lei_xi."""
        out = {}
        for name in self.diagnostics().get("lei_xi", []):
            if name not in XI_FUNCTIONALS:
                raise ConfigurationError(f"diagnostics.lei_xi: unknown functional {name!r}")
            out[name] = XI_FUNCTIONALS[name]
        return out

    def ensemble_block(self) -> dict:
        ens = self.raw["ensemble"]
        return {
            "paths": _need(ens, "paths", int, "ensemble"),
            "seed": _need(ens, "seed", int, "ensemble"),
            "workers": _opt(ens, "workers", 1),
        }

    def output_block(self) -> dict:
        out = self.raw["output"]
        return {
            "directory": _need(out, "directory", str, "output"),
            "stride": _opt(out, "stride", 1),
            "save_snapshots": _opt(out, "save_snapshots", False),
            "write_csv": _opt(out, "write_csv", True),
        }

    def initial_condition_spec(self) -> dict:
        return self.raw["run"].get(
            "initial_condition", {"kind": "taylor_green", "amplitude": 1.0}
        )

    # ---- provenance ---------------------------------------------------------

    def canonical(self) -> str:
        return canonical_json(self.raw)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def results_digest(self) -> str:
        """SHA-256 of the blocks that determine a path's numbers: run, noise,
        diagnostics and the ensemble seed (not output, path or worker counts)."""
        raw = self.raw
        doc = {"run": raw["run"], "noise": raw.get("noise"),
               "diagnostics": raw.get("diagnostics"), "seed": raw["ensemble"].get("seed")}
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def initial_field(cfg: ExperimentConfig):
    """Build the configured initial condition on the configured grid."""
    spec = cfg.initial_condition_spec()
    grid = cfg.grid()
    kind = spec.get("kind", "taylor_green")
    amp = float(spec.get("amplitude", 1.0))
    if kind == "taylor_green":
        return taylor_green(grid, amp)
    if kind == "random_solenoidal":
        return random_solenoidal(grid, int(spec.get("seed", 7)), amp,
                                 float(spec.get("smooth", 0.0)))
    if kind == "snapshot":
        path = _need(spec, "path", str, "run.initial_condition")
        fld = _read_spectrum(f"run.initial_condition.path: {path}", path, grid)
        if not isinstance(fld, SpectralField):
            raise ConfigurationError(
                f"run.initial_condition.path: {path} holds a scalar field, not a velocity")
        return fld
    raise ConfigurationError(f"run.initial_condition.kind: unknown kind {kind!r}")
