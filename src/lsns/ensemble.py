"""Ensemble orchestration: run all configured paths and diagnostics, reduce
to summary statistics, and support crash-safe resume and replay.

The config builds one ledger plan (``ExperimentConfig.ledgers``), used both
inline by ``run_one_path`` and by ``replay``. A path runs the one
Euler-Maruyama loop (``integrate.em_path``) once: the ledgers consume its
StepViews as it goes, snapshots (when saved) are collected from the same
stream at the output stride, and a path without ledgers keeps only its last
state. Each ledger serializes itself into the path record and its per-path
file.

Workers parallelize over whole paths only, each task carrying the parsed
config; the counter-based noise keys make results independent of scheduling.
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
from .energy import EnergyLedger, lei_scalar_check, mean_stderr, supermartingale_test
from .errors import BlowUpError, ConfigurationError
from .integrate import Trajectory, em_path
from .persist import atomic_write_json, save_trajectory, write_csv
from .spectral import l2_norm
from .stepview import drive, views_from_trajectory, views_of
from .vorticity import vorticity_bounds_report

WORKER_ENV = "LSNS_WORKERS"


# ---------------------------------------------------------------------------
# per-path work


def run_one_path(cfg: ExperimentConfig, path_id: int) -> dict:
    """Integrate one path with every configured ledger; returns a JSON record."""
    params = cfg.run_params(path_id)
    noise = cfg.noise_model()
    out = cfg.output_block()
    ledgers = cfg.ledgers()
    record = {"path_id": path_id, "config_digest": cfg.results_digest(),
              "code_version": __version__}
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


def _zero_mean(vals, bar: float = 4.0):
    """Two-sided z-test of mean zero: (statistics, ok, reason).

    A sample with n < 2 or zero standard error gives no evidence either way:
    ok is then None (degenerate), never a pass.
    """
    n = len(vals)
    mean, se = mean_stderr(vals)
    stats = {"mean": mean, "stderr": se, "z": mean / se if se > 0 else 0.0, "n": n}
    if n < 2:
        return stats, None, f"n = {n} < 2 paths"
    if se == 0.0:
        return stats, None, f"stderr = 0: all {n} paths give {mean:.6g}"
    ok = abs(stats["z"]) <= bar
    return stats, ok, f"|z| = {abs(stats['z']):.3g} {'<=' if ok else '>'} {bar:g}"


def summarize(cfg: ExperimentConfig, records: list[dict], wall_clock: float) -> dict:
    """Reduce path records to the ensemble summary with named test outcomes.

    Every verdict is listed in ``verdicts`` with a status (pass, fail or
    degenerate) and a reason; ``all_passed`` holds when each one passed.
    """
    good = [r for r in records if not r["blown_up"]]
    blown = [r for r in records if r["blown_up"]]
    diag = cfg.diagnostics()
    tests, verdicts = {}, []

    def judge(test: str, ok: bool | None, reason: str, n: int | None = None) -> bool:
        """Record a verdict; a statistical one over n < MIN_PATHS paths is degenerate."""
        if ok is not None and n is not None and n < MIN_PATHS:
            ok, reason = None, f"n = {n} < {MIN_PATHS} paths, too few for a normal-bar verdict"
        status = "degenerate" if ok is None else ("pass" if ok else "fail")
        verdicts.append({"test": test, "status": status, "reason": reason})
        return status == "pass"

    def zero_mean(test: str, vals):
        stats, ok, reason = _zero_mean(vals)
        return stats, judge(test, ok, reason, stats["n"])

    for name, phi in cfg.test_functions().items():
        ledgers = [EnergyLedger.from_payload(phi, r["energy"][name])
                   for r in good if "energy" in r]
        if not ledgers:
            continue
        key = f"energy:{name}"
        block = {"criterion": "martingale_zero_mean_4sigma"}
        block["terminal_martingale"], block["zero_mean_pass"] = zero_mean(
            f"{key}/terminal_martingale", [led.martingale[-1] for led in ledgers])
        block["qv_gap"], block["qv_consistency_pass"] = zero_mean(
            f"{key}/qv_gap", [led.qv_realized[-1] - led.qv_predicted[-1] for led in ledgers])

        window = cfg.supermartingale_window()
        if window is not None and len(ledgers) >= 2:
            rep = supermartingale_test(ledgers, *window, cfg.events())
            worst = max(s.statistic for s in rep.statistics)
            block["supermartingale"] = {
                "criterion": "supermartingale_3sigma_one_sided",
                "statistics": [
                    {"event": s.event, "mean": s.mean, "stderr": s.stderr,
                     "statistic": s.statistic, "n_active": s.n_active}
                    for s in rep.statistics
                ],
                "passed": judge(f"{key}/supermartingale", rep.passed,
                                f"max one-sided statistic {worst:.3g} vs {rep.threshold:g}",
                                len(ledgers)),
            }
        if diag.get("lei_xi") is not None and len(ledgers) >= 2:
            outcomes = {}
            for xi_name, xi in cfg.xi_functionals().items():
                rep = lei_scalar_check(ledgers, xi)
                outcomes[xi_name] = {
                    "lhs": rep.lhs, "rhs": rep.rhs, "stderr": rep.stderr,
                    "passed": judge(f"{key}/lei/{xi_name}", rep.passed,
                                    f"lhs - rhs = {rep.lhs - rep.rhs:.3g}, "
                                    f"stderr {rep.stderr:.3g}", len(ledgers)),
                }
            block["lei"] = {"criterion": "lei_scalar_3sigma", "outcomes": outcomes}
        tests[key] = block

    vort = [r["vorticity"] for r in good if "vorticity" in r]
    if vort:
        nt, zero_ok = zero_mean("vorticity/terminal_martingale",
                                [p["martingale"][-1] for p in vort])
        rep = vorticity_bounds_report(vort)
        tests["vorticity"] = {
            "criterion": "vorticity_identity_zero_mean_4sigma",
            "terminal_martingale": nt,
            "zero_mean_pass": zero_ok,
            "mean_sup_l1": rep.mean_sup_l1,
            "mean_grad_norm": rep.mean_grad_norm,
            "min_holder_margin": rep.min_holder_margin,
            "holder_pass": judge("vorticity/holder", rep.holder_ok,
                                 "no step: no Hoelder margin to compare"
                                 if rep.min_holder_margin is None else
                                 f"min Hoelder margin {rep.min_holder_margin:.3g} vs -1e-12"),
            "norm_chain_pass": judge("vorticity/norm_chain", rep.norm_chain_ok,
                                     "L1 / sqrt-moment chain at every step of every path"),
        }

    dr = [r["dissipation"] for r in good if "dissipation" in r]
    if dr:
        cauchy = np.mean(np.asarray([d["cauchy"] for d in dr]), axis=0)
        n_ell = len(cauchy) + 1
        if n_ell < 3:  # fewer than two differences: no trend to judge
            ok, reason = None, (f"{n_ell} ell values give {n_ell - 1} Cauchy "
                                f"differences; a trend needs 3 ell values")
        else:
            ok = all(b <= a * 1.5 for a, b in zip(cauchy, cauchy[1:]))
            reason = "each mean Cauchy difference <= 1.5x the previous"
        tests["dissipation"] = {
            "criterion": "dr_cauchy_trend",
            "mean_cauchy_differences": [float(c) for c in cauchy],
            "nonincreasing": judge("dissipation/cauchy_trend", ok, reason),
        }

    return {
        "schema_version": cfg.raw["schema_version"],
        "config_digest": cfg.digest(),
        "code_version": __version__,
        "paths_requested": len(records),
        "paths_completed": len(good),
        "blowups": [{"path_id": r["path_id"], "step": r["blowup_step"]} for r in blown],
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(run_one_path, [cfg] * len(todo), todo):
                store(rec)
    else:
        for pid in todo:
            store(run_one_path(cfg, pid))

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
    traj = load_trajectory(manifest_path.parent, cfg.noise_model())
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
