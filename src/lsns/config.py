"""Experiment configuration: a single versioned JSON document.

Blocks: ``run`` (solver parameters), ``noise`` (coefficient family),
``diagnostics`` (which ledgers and tests to compute), ``ensemble`` (path
count, base seed, workers) and ``output`` (directory, stride, what to
persist). ``SCHEMA`` (each key's JSON type) and ``REQUIRED`` are the one
statement of the keys: parsing refuses any other key, a missing one or a
value of the wrong type, and the readers pass on only the keys a document
sets, so each default lives in the object it configures. Parsing then
serializing is the identity on the canonical form, and the SHA-256 of the
canonical form stamps every output for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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


# Every key the config accepts, with its JSON type: a dict is a block, a
# one-element list a list of that entry (a list of blocks where the entry is a
# dict), and a leaf a type (float also takes a JSON integer, int no bool).
SCHEMA = {
    "schema_version": int,
    "run": {
        "nu": float, "epsilon": float, "dt": float, "t_end": float, "m": int,
        "dealias_cutoff": int, "scheme": str, "mollifier_kind": str,
        "initial_condition": {"kind": str, "amplitude": float, "seed": int,
                              "smooth": float, "path": str},
    },
    "noise": {"kind": str, "amplitude": float, "ratio": float, "max_k": int,
              "flatness": float, "coefficient_files": [str], "tail_beyond_max_k": float},
    "diagnostics": {
        "test_functions": [{"name": str, "spatial": {"center": [float], "exponent": int},
                            "temporal": {"a": float, "b": float, "ramp": float}}],
        "events": [{"kind": str, "at": float, "q": float}],
        "supermartingale": {"s": float, "t": float},
        "lei_xi": [str],
        "vorticity": {"delta": float},
        "dissipation": {"ell_values": [float], "alpha_kind": str},
    },
    "ensemble": {"paths": int, "seed": int, "workers": int},
    "output": {"directory": str, "stride": int, "save_snapshots": bool, "write_csv": bool},
}

# The keys each block must set, by the block's path without list indices. A
# key required only with another key's value is checked by its reader.
REQUIRED = {
    "": "schema_version run ensemble output", "run": "nu epsilon dt t_end m",
    "noise": "kind", "ensemble": "paths seed", "output": "directory",
    "diagnostics.test_functions.spatial": "exponent",
    "diagnostics.test_functions.temporal": "a b ramp", "diagnostics.events": "kind",
    "diagnostics.supermartingale": "s t", "diagnostics.dissipation": "ell_values",
}

# Keys that older configs carry and nothing reads any more: accepted, ignored.
RETIRED_KEYS = frozenset({"diagnostics.dissipation.quadrature"})


def _typed(val, schema, where: str, path: str):
    """``val`` checked against ``schema``: floats as float, lists as tuples,
    retired keys dropped. ``where`` names the value in messages, ``path`` is
    its schema path (no list indices). A misspelt key, a missing required key
    or a value of the wrong JSON type fails here, before any reader runs."""
    kind = type(schema) if isinstance(schema, (dict, list)) else schema
    if isinstance(val, bool) != (kind is bool) or not isinstance(
            val, (int, float) if kind is float else kind):
        got = {dict: "object", type(None): "null"}.get(type(val), type(val).__name__)
        raise ConfigurationError(
            f"{where}: expected {'object' if kind is dict else kind.__name__}, got {got}")
    if kind is list:
        return tuple(_typed(v, schema[0], f"{where}[{i}]", path) for i, v in enumerate(val))
    if kind is not dict:
        return float(val) if kind is float else val
    out = {}
    for key, sub in val.items():
        key_path = f"{path}.{key}".lstrip(".")
        if key in schema:
            out[key] = _typed(sub, schema[key], f"{where}.{key}".lstrip("."), key_path)
        elif key_path not in RETIRED_KEYS:
            raise ConfigurationError(f"{where or 'config'}: unknown key {key!r}")
    for key in REQUIRED.get(path, "").split():
        if key not in val:
            raise ConfigurationError(f"{where}.{key}".lstrip(".") + ": missing")
    return out


def _given(block: dict, names: str) -> dict:
    """The named keys ``block`` sets, as keyword arguments ("key:param" passes
    key as param): each key left unset takes its constructor's default."""
    pairs = (name.partition(":") for name in names.split())
    return {param or key: block[key] for key, _, param in pairs if key in block}


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
    raw: dict  # the document as given (canonical JSON): digests and manifests
    doc: dict = field(compare=False, repr=False)  # the same, checked by ``_typed``

    # ---- construction --------------------------------------------------------

    @classmethod
    def parse(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError("config root must be an object")
        if (version := doc.get("schema_version")) != SCHEMA_VERSION:
            raise ConfigurationError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
        raw = json.loads(canonical_json(doc))
        cfg = cls(raw=raw, doc=_typed(raw, SCHEMA, "", ""))
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
        return Grid(**_given(self.doc["run"], "m dealias_cutoff"))

    def run_params(self, path_id: int) -> RunParams:
        return RunParams(
            **_given(self.doc["run"], "nu epsilon dt t_end scheme mollifier_kind"),
            grid=self.grid(),
            seed=self.doc["ensemble"]["seed"],
            path_id=path_id,
            **_given(self.doc["output"], "stride"),
        )

    def noise_model(self) -> NoiseModel | None:
        block = self.doc.get("noise")
        if block is None or block["kind"] == "off":
            return None
        kind = block["kind"]
        if kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise.kind: unknown family {kind!r}")
        if "coefficient_files" in block:
            return self._noise_from_files(kind, block)
        if "amplitude" not in block:
            raise ConfigurationError("noise.amplitude: missing")
        return make_noise_model(self.grid(), kind,
                                **_given(block, "amplitude ratio max_k flatness"))

    def _noise_from_files(self, kind, block) -> NoiseModel:
        grid = self.grid()
        want_scalar = kind == "linear_multiplicative"
        fields = []
        for i, f in enumerate(block["coefficient_files"]):
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
                          **_given(block, "tail_beyond_max_k"))

    def diagnostics(self) -> dict:
        return self.doc.get("diagnostics", {})

    def test_functions(self) -> dict[str, TestFunction]:
        out = {}
        t_end = self.doc["run"]["t_end"]
        for i, spec in enumerate(self.diagnostics().get("test_functions", ())):
            name = spec.get("name", f"phi{i}")
            spatial = temporal = None
            if "spatial" in spec:
                spatial = SpatialBump(**spec["spatial"])
                _check_exact_grid(name, spatial.exponent, self.grid())
            if "temporal" in spec:
                tp = spec["temporal"]
                if not (0.0 <= tp["a"] < tp["b"] <= t_end):
                    raise ConfigurationError(
                        f"test_functions[{i}].temporal: support ({tp['a']}, {tp['b']}) "
                        f"not inside (0, {t_end})"
                    )
                temporal = TemporalWindow(**tp)
            out[name] = TestFunction(spatial, temporal, label=name)
        return out

    def events(self) -> list[Event]:
        specs = self.diagnostics().get("events")
        return [Event()] if specs is None else [Event(**spec) for spec in specs]

    def supermartingale_window(self) -> tuple[float, float] | None:
        """The (s, t) of the supermartingale test, checked against the step
        grid as the test will check it (``energy.window_indices``)."""
        events = self.events()  # checked here even where no test reads them
        block = self.diagnostics().get("supermartingale")
        if block is None:
            return None
        s, t = block["s"], block["t"]
        p = self.run_params(path_id=0)
        window_indices(np.arange(p.n_steps + 1) * p.dt, s, t, events)
        return s, t

    def ledgers(self) -> list:
        """The ledger plan: fresh ledgers for one path, in record order (one
        energy ledger per test function, then vorticity, then dissipation
        paired with the first test function)."""
        diag = self.diagnostics()
        phis = list(self.test_functions().values())
        out = [EnergyLedger(phi) for phi in phis]
        if "vorticity" in diag:
            out.append(VorticityLedger(HFunction(**diag["vorticity"])))
        if "dissipation" in diag:
            drc = DRConfig(**diag["dissipation"])
            drc.validate_resolution(self.grid())
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
        for name in self.diagnostics().get("lei_xi", ()):
            if name not in XI_FUNCTIONALS:
                raise ConfigurationError(f"diagnostics.lei_xi: unknown functional {name!r}")
            out[name] = XI_FUNCTIONALS[name]
        return out

    def ensemble_block(self) -> dict:
        return {"workers": 1, **self.doc["ensemble"]}

    def output_block(self) -> dict:
        return {"save_snapshots": False, "write_csv": True, **self.doc["output"]}

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
    spec = cfg.doc["run"].get("initial_condition", {})
    grid = cfg.grid()
    kind = spec.get("kind", "taylor_green")
    if kind == "taylor_green":
        return taylor_green(grid, **_given(spec, "amplitude"))
    if kind == "random_solenoidal":
        return random_solenoidal(grid, spec.get("seed", 7), **_given(spec, "amplitude:amp smooth"))
    if kind == "snapshot":
        if "path" not in spec:
            raise ConfigurationError("run.initial_condition.path: missing")
        path = spec["path"]
        fld = _read_spectrum(f"run.initial_condition.path: {path}", path, grid)
        if not isinstance(fld, SpectralField):
            raise ConfigurationError(
                f"run.initial_condition.path: {path} holds a scalar field, not a velocity")
        return fld
    raise ConfigurationError(f"run.initial_condition.kind: unknown kind {kind!r}")
