"""Ensemble orchestration: run all configured paths and diagnostics, reduce
to summary statistics, and support crash-safe resume and replay.

The config builds one ledger plan (``ExperimentConfig.ledgers``), used both
inline by ``run_one_path`` and by ``replay``. A path runs the one
Euler-Maruyama loop (``integrate.em_path``) once: the ledgers consume its
StepViews as it goes, snapshots (when saved) are collected from the same
stream at the output stride, and a path without ledgers keeps only its last
state. Each ledger serializes itself into the path record and its per-path
file, and ``summarize`` has each ledger of the plan judge the completed
records (``judge``, see ``stepview.Ledger``) under the one rule of ``Verdicts``.

Workers parallelize over whole paths only, each task carrying the parsed
config, and each process building the config's noise model once; the
counter-based noise keys make results independent of scheduling.
Each finished path is written atomically to
``<output>/paths/path_XXXXXX.json`` together with the code version and the
digest of the config blocks that determine its numbers, so an interrupted
ensemble resumes by skipping completed paths of the same config and reproduces
the uninterrupted result bit-exactly; a record from another config or code
version is recomputed. Blown-up paths are recorded and excluded from
statistics, never dropped silently.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, initial_field
from .energy import mean_stderr
from .errors import BlowUpError, ConfigurationError
from .integrate import Trajectory, em_path
from .persist import atomic_write_json, save_trajectory, write_csv
from .spectral import l2_norm
from .stepview import drive, views_from_trajectory, views_of

WORKER_ENV = "LSNS_WORKERS"


# ---------------------------------------------------------------------------
# per-path work


# the noise model of the config a process is running or replaying, by its
# results digest: the paths of an ensemble, and the manifests replayed one
# after another, share it and its read-only coefficient stacks
_NOISE_MODEL: dict = {}


def _noise_model(cfg: ExperimentConfig, digest: str):
    if digest not in _NOISE_MODEL:
        _NOISE_MODEL.clear()
        _NOISE_MODEL[digest] = cfg.noise_model()
    return _NOISE_MODEL[digest]


def run_one_path(cfg: ExperimentConfig, path_id: int) -> dict:
    """Integrate one path with every configured ledger; returns a JSON record."""
    digest = cfg.results_digest()
    params = cfg.run_params(path_id)
    noise = _noise_model(cfg, digest)
    out = cfg.output_block()
    ledgers = cfg.ledgers()
    record = {"path_id": path_id, "config_digest": digest, "code_version": __version__}
    traj = Trajectory(params, noise)  # owns the path's Workspace; stores states for snapshots
    stream = em_path(params, initial_field(cfg), noise, traj.workspace)
    if out["save_snapshots"]:
        stream = traj.recording(stream)
    try:
        if ledgers:
            drive(views_of(stream, traj.workspace), ledgers)
        else:
            for _, u, _ in stream:
                pass
    except BlowUpError as err:
        return {**record, "blown_up": True, "blowup_step": err.step}

    record["blown_up"] = False
    if out["save_snapshots"]:
        save_trajectory(traj, Path(out["directory"]) / f"trajectory_{path_id:06d}",
                        run_config=cfg.raw)
    elif not ledgers:
        record["final_l2"] = l2_norm(u)
    for led in ledgers:
        led.store(record)
        if out["write_csv"] and led.CSV_COLUMNS:
            paths = Path(out["directory"]) / "paths"
            paths.mkdir(parents=True, exist_ok=True)
            led.export(paths, path_id)
    return record


# ---------------------------------------------------------------------------
# reduction


# Below this many paths a verdict judged against a normal bar means little:
# mean/stderr over n paths follows a t law with n - 1 degrees of freedom, whose
# bar at the two-sided level of 4 sigma is 125.6 at n = 3, 8.5 at n = 8 and
# 4.6 at n = 32. Such verdicts are degenerate; their statistics are still written.
MIN_PATHS = 32


class Verdicts(list):
    """The summary's verdicts {test, status, reason}. ``judge`` is the one
    rule: a statistical verdict over n paths is degenerate when n < 2, then
    when its stderr is zero (``flat`` says where), then when n < MIN_PATHS;
    past those its bar (ok) decides. Given no n, ok decides; None is degenerate."""

    def judge(self, test: str, ok: bool | None, reason: str,
              n: int | None = None, flat: str | None = None) -> bool:
        if n is not None:
            if n < 2:
                ok, reason = None, f"n = {n} < 2 paths"
            elif flat is not None:
                ok, reason = None, flat
            elif n < MIN_PATHS:
                ok, reason = None, f"n = {n} < {MIN_PATHS} paths, too few for a normal-bar verdict"
        status = "degenerate" if ok is None else ("pass" if ok else "fail")
        self.append({"test": test, "status": status, "reason": reason})
        return status == "pass"

    def zero_mean(self, test: str, vals, bar: float = 4.0):
        """Two-sided z-test of mean zero over the paths' vals: (statistics, passed)."""
        n, (mean, se) = len(vals), mean_stderr(vals)
        z = mean / se if se > 0 else 0.0
        ok = abs(z) <= bar
        reason = f"|z| = {abs(z):.3g} {'<=' if ok else '>'} {bar:g}"
        flat = f"stderr = 0: all {n} paths give {mean:.6g}" if se == 0.0 else None
        return {"mean": mean, "stderr": se, "z": z, "n": n}, self.judge(test, ok, reason, n, flat)


def summarize(cfg: ExperimentConfig, records: list[dict], wall_clock: float) -> dict:
    """Reduce path records to the ensemble summary: each ledger of the plan
    judges the completed records, every verdict is listed in ``verdicts`` with
    a status (pass, fail or degenerate) and a reason, and ``all_passed`` holds
    when each one passed."""
    good = [r for r in records if not r["blown_up"]]
    ledgers = cfg.ledgers()
    tests, verdicts = {}, Verdicts()
    if ledgers and not good:
        verdicts.judge("paths", None, f"no path of {len(records)} completed")
    for led in ledgers:
        tests.update(led.judge(good, cfg, verdicts))
    return {
        "schema_version": cfg.raw["schema_version"],
        "config_digest": cfg.digest(),
        "code_version": __version__,
        "paths_requested": len(records),
        "paths_completed": len(good),
        "blowups": [{"path_id": r["path_id"], "step": r["blowup_step"]}
                    for r in records if r["blown_up"]],
        "tests": tests,
        "verdicts": verdicts,
        "all_passed": all(v["status"] == "pass" for v in verdicts),
        "wall_clock_seconds": wall_clock,
    }


# ---------------------------------------------------------------------------
# drivers


def run_experiment(cfg: ExperimentConfig, resume: bool = True) -> dict:
    """Run (or resume) the configured ensemble; returns the summary dict."""
    t0 = time.perf_counter()
    ens = cfg.ensemble_block()
    out = cfg.output_block()
    outdir = Path(out["directory"])
    (outdir / "paths").mkdir(parents=True, exist_ok=True)

    workers = int(os.environ.get(WORKER_ENV, ens["workers"]))
    todo, records = [], {}
    provenance = {"config_digest": cfg.results_digest(), "code_version": __version__}
    for pid in range(ens["paths"]):
        rpath = outdir / "paths" / f"path_{pid:06d}.json"
        if resume and rpath.exists():
            rec = json.loads(rpath.read_text())
            if all(rec.get(k) == v for k, v in provenance.items()):
                records[pid] = rec
                continue
        todo.append(pid)

    def store(rec):
        pid = rec["path_id"]
        atomic_write_json(outdir / "paths" / f"path_{pid:06d}.json", rec)
        records[pid] = rec

    if workers > 1 and len(todo) > 1:
        _NOISE_MODEL.clear()  # a replay's model, which every worker would inherit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(run_one_path, [cfg] * len(todo), todo):
                store(rec)
    else:
        for pid in todo:
            store(run_one_path(cfg, pid))

    _NOISE_MODEL.clear()  # else the pool workers of a later run inherit it
    ordered = [records[pid] for pid in range(ens["paths"])]
    summary = summarize(cfg, ordered, wall_clock=time.perf_counter() - t0)
    atomic_write_json(outdir / "summary.json", summary)
    return summary


def replay(manifest_path, diagnostics_spec: dict, output_dir=None) -> dict:
    """Recompute diagnostics from stored snapshots without re-integration."""
    from .persist import load_trajectory

    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    run_config = manifest.get("run_config")
    if run_config is None:
        raise ConfigurationError("manifest has no embedded run config to replay against")
    doc = json.loads(json.dumps(run_config))
    doc["diagnostics"] = diagnostics_spec
    cfg = ExperimentConfig.parse(doc)
    traj = load_trajectory(manifest_path.parent, _noise_model(cfg, cfg.results_digest()))
    ledgers = drive(views_from_trajectory(traj), cfg.ledgers())

    outdir = Path(output_dir) if output_dir else manifest_path.parent / "replay"
    outdir.mkdir(parents=True, exist_ok=True)
    pid = manifest["params"]["path_id"]
    return {led.key: str(led.export(outdir, pid)) for led in ledgers}


def _cell(v: str) -> float:
    if v in ("True", "False"):
        return float(v == "True")
    return float(v) if v else np.nan  # an empty cell is undefined on that row


def report(output_dir) -> dict:
    """Aggregate per-path CSVs into plot-ready ensemble statistics.

    A cell some path leaves undefined (empty, like the row-0 Hoelder margin)
    is left empty in the ensemble mean and spread too.
    """
    import csv

    outdir = Path(output_dir)
    summary_path = outdir / "summary.json"
    if not summary_path.exists():
        raise ConfigurationError(f"{output_dir}: no summary.json (run the experiment first)")
    summary = json.loads(summary_path.read_text())
    groups: dict[str, list] = {}
    for path in sorted((outdir / "paths").glob("*.csv")):
        stem = path.stem.rsplit("_", 1)[0]
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], np.array([[_cell(v) for v in r] for r in rows[1:]])
        groups.setdefault(stem, []).append((header, data))
    written = {}
    for stem, entries in groups.items():
        header = entries[0][0]
        stack = np.stack([d for _, d in entries])
        mean = stack.mean(axis=0)
        std = stack.std(axis=0, ddof=1) if len(entries) > 1 else np.zeros_like(mean)
        out_rows = []
        for i in range(mean.shape[0]):
            out_rows.append([None if np.isnan(x) else x for x in [*mean[i], *std[i]]])
        cols = [f"mean_{h}" for h in header] + [f"std_{h}" for h in header]
        path = outdir / f"ensemble_{stem}.csv"
        write_csv(path, cols, out_rows)
        written[stem] = str(path)
    return {"summary": summary, "ensemble_csv": written}
