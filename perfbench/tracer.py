"""In-memory span tracer that wraps lsns's public layer functions from outside.

``Tracer.install()`` rebinds each traced function under every name the lsns
modules import it by (``lsns.stepview.step`` as well as
``lsns.integrate.step``), and each traced method on its class;
``uninstall()`` puts the originals back. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, path_id)``; spans stay in memory and
are written out when the run ends. Calls nest properly (one thread), so a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (span name, module, attribute) for module-level functions; rebound in every
# lsns module that holds the same function object
FUNCTIONS = [
    ("integrate.step", "lsns.integrate", "step"),
    ("integrate.drift_and_pressure", "lsns.integrate", "drift_and_pressure"),
    ("spectral.synthesize", "lsns.spectral", "synthesize"),
    ("persist.save_trajectory", "lsns.persist", "save_trajectory"),
    ("persist.load_trajectory", "lsns.persist", "load_trajectory"),
    ("persist.write_csv", "lsns.persist", "write_csv"),
    ("persist.atomic_write_json", "lsns.persist", "atomic_write_json"),
    ("ensemble.run_one_path", "lsns.ensemble", "run_one_path"),
    ("ensemble.summarize", "lsns.ensemble", "summarize"),
    ("ensemble.report", "lsns.ensemble", "report"),
    ("ensemble.replay", "lsns.ensemble", "replay"),
]

# (span name, module, class, method)
METHODS = [
    ("integrate.workspace", "lsns.integrate", "Workspace", "__init__"),
    ("rng.step_increments", "lsns.rng", "BrownianIncrements", "step_increments"),
    ("config.parse", "lsns.config", "ExperimentConfig", "parse"),
    ("noise.eval_all", "lsns.noise", "NoiseModel", "eval_all"),
    ("energy.advance", "lsns.energy", "EnergyLedger", "advance"),
    ("vorticity.advance", "lsns.vorticity", "VorticityLedger", "advance"),
    ("dissipation.advance", "lsns.dissipation", "DRLedger", "advance"),
]

# spans that own one path: coverage is measured inside them
PATH_ROOTS = ("ensemble.run_one_path", "ensemble.replay")


def _path_id(name, args):
    if name == "ensemble.run_one_path":
        return int(args[1])
    if name == "ensemble.replay":  # <out>/trajectory_XXXXXX/manifest.json
        return int(os.path.basename(os.path.dirname(str(args[0]))).rsplit("_", 1)[1])
    return None


def _synth_bytes(args, out):
    """Computed bytes of the padded spectrum built plus the real array returned."""
    return out.size * (16 + 8)


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _tree_bytes(args, out):
    d = os.path.dirname(str(out))
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


BYTES = {
    "spectral.synthesize": _synth_bytes,
    "persist.save_trajectory": _tree_bytes,
    "persist.write_csv": _file_bytes,
    "persist.atomic_write_json": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, path_id]
        self.bytes: dict[str, int] = {}
        self.views = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, nbytes = self.spans, self._stack, BYTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            pid = _path_id(name, args) if name in PATH_ROOTS else \
                (spans[parent][4] if parent is not None else None)
            idx = len(spans)
            spans.append([name, clock(), None, parent, pid])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if nbytes is not None:
                self.bytes[name] = self.bytes.get(name, 0) + nbytes(args, out)
            return out

        return traced

    def _count_view(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            self.views += 1
            return init(*args, **kwargs)

        return counted

    # -- install / uninstall -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        lsns_modules = [m for k, m in sys.modules.items()
                        if (k == "lsns" or k.startswith("lsns.")) and m is not None]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig)
            for mod in lsns_modules:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))
        view_cls = sys.modules["lsns.stepview"].StepView
        self._set(view_cls, "__init__", self._count_view(view_cls.__dict__["__init__"]))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction -----------------------------------------------------------------

    def durations(self):
        """(inclusive, self) seconds per span index."""
        incl = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                child[s[3]] += incl[i]
        return incl, [a - b for a, b in zip(incl, child)], child

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "path_id"],
                       "spans": self.spans, "bytes": self.bytes, "views": self.views}, fh)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        incl, own, child = self.durations()
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[0], []).append(i)

        def inc(name):
            return [incl[i] for i in by_name.get(name, [])]

        def slf(name):
            return [own[i] for i in by_name.get(name, [])]

        roots = [i for n in PATH_ROOTS for i in by_name.get(n, [])]
        root_time = sum(incl[i] for i in roots)
        m = {
            "integrate.step_ms_p50": (1e3 * pct(inc("integrate.step"), 50), "ms"),
            "integrate.step_ms_p90": (1e3 * pct(inc("integrate.step"), 90), "ms"),
            "integrate.steps": (len(inc("integrate.step")), "count"),
            "integrate.drift_and_pressure_ms_p50":
                (1e3 * pct(inc("integrate.drift_and_pressure"), 50), "ms"),
            "integrate.workspace_ms": (1e3 * sum(inc("integrate.workspace")), "ms"),
            "rng.step_increments_us_p50": (1e6 * pct(inc("rng.step_increments"), 50), "us"),
            "config.parse_ms_p50": (1e3 * pct(inc("config.parse"), 50), "ms"),
            "config.parses": (len(inc("config.parse")), "count"),
            "noise.eval_all_ms_p50": (1e3 * pct(inc("noise.eval_all"), 50), "ms"),
            "noise.eval_all_calls": (len(inc("noise.eval_all")), "count"),
            "spectral.synthesize_s": (sum(slf("spectral.synthesize")), "s"),
            "spectral.synthesize_calls": (len(inc("spectral.synthesize")), "count"),
            "spectral.synthesize_mb": (self.bytes.get("spectral.synthesize", 0) / 1e6, "MB"),
            "stepview.views": (self.views, "count"),
        }
        for layer in ("energy", "vorticity", "dissipation"):
            own_t = slf(f"{layer}.advance")
            m[f"{layer}.advance_ms_p50"] = (1e3 * pct(own_t, 50), "ms")
            m[f"{layer}.advance_s"] = (sum(own_t), "s")
        for fn in ("save_trajectory", "load_trajectory", "write_csv", "atomic_write_json"):
            m[f"persist.{fn}_s"] = (sum(inc(f"persist.{fn}")), "s")
        written = sum(self.bytes.get(f"persist.{fn}", 0)
                      for fn in ("save_trajectory", "write_csv", "atomic_write_json"))
        m["persist.mb_written"] = (written / 1e6, "MB")
        m["ensemble.run_one_path_s_p50"] = (pct(inc("ensemble.run_one_path"), 50), "s")
        m["ensemble.run_one_path_s_p90"] = (pct(inc("ensemble.run_one_path"), 90), "s")
        for fn in ("summarize", "report", "replay"):
            m[f"ensemble.{fn}_s"] = (sum(inc(f"ensemble.{fn}")), "s")
        m["trace.coverage"] = (sum(child[i] for i in roots) / root_time if root_time else 0.0,
                               "ratio")
        return m


def pct(values, q):
    """Linear-interpolated q-th percentile; 0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)
