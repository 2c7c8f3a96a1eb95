"""Benchmark entry point: three lsns ensemble workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; lsns is imported from that checkout's
``src/``. Each invocation runs in a fresh temporary directory under
``.perfbench/`` and starts fresh measuring processes (``measure.py``) with
``LSNS_WORKERS`` removed and the BLAS/OpenMP thread counts pinned to 1. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of stdout is one JSON object. A results file
with provenance goes to ``.perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4      # extra fresh processes timing set-up; median of these + the measurer
CHILD_TIMEOUT = 170   # seconds, per measuring process
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def clean_env() -> dict:
    env = dict(os.environ)
    env.pop("LSNS_WORKERS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # set-up always compiles lsns; src/ stays clean
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def run_child(args: list[str], out: Path, env: dict) -> dict:
    """Run measure.py to completion in its own process; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "measure.py"), *args, "--out", str(out)]
    # a new process group, so a timeout also kills the pool workers it started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"measure.py timed out after {CHILD_TIMEOUT}s: {' '.join(args)}")
    result = json.loads(out.read_text()) if out.exists() else {}
    if proc.returncode != 0 or "error" in result:
        sys.stderr.write(output)
        raise SystemExit(f"measure.py failed ({proc.returncode}): "
                         f"{result.get('error', 'no result written')}")
    return result


def provenance(env: dict, versions: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: env[k] for k in THREAD_ENV},
    }


def cpu_times() -> list[int] | None:
    """Machine-wide (busy, steal) jiffies from /proc/stat, or None where absent."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    return [sum(fields[:8]) - idle - steal, steal]


def benchmark_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                  tmp: Path, results: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (metrics as {name: (value, unit)}, results record)."""
    wl = workloads.WORKLOADS[workload]
    env = clean_env()
    load_before, cpu_before = os.getloadavg(), cpu_times()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setups = []

    def probe_setup(i):
        probe_tmp = tmp / f"probe_{i}"
        probe_tmp.mkdir()
        setups.append(run_child(common + ["--tmp", str(probe_tmp), "--setup-only"],
                                tmp / f"probe_{i}.json", env)["setup_s"])

    # probes before and after the measurement spread set-up samples over the run
    probes = SETUP_PROBES if trace == 0 else 0
    for i in range(probes // 2):
        probe_setup(i)
    main_tmp = tmp / "measure"
    main_tmp.mkdir()
    stem = f"{workload}_seed{seed}_trace{trace}{'_smoke' if smoke else ''}_{os.getpid()}"
    res = run_child(common + ["--tmp", str(main_tmp)], results / f"{stem}.child.json", env)
    setups.append(res["setup_s"])
    for i in range(probes // 2, probes):
        probe_setup(i)
    load_after, cpu_after = os.getloadavg(), cpu_times()

    attempted, failed = res["attempted"], res["failed"]
    failed_frac = failed / attempted
    if trace == 0:
        wall = statistics.median(res["walls"])
        metrics = {
            "wall_s": (wall, "s"),
            "paths_per_s": (res["paths_per_round"] / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    else:
        metrics = {k: tuple(v) for k, v in res["layer_metrics"].items()}
    record = {
        "workload": workload, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "workers": wl.workers,
        "config_digest": res["config_digest"],
        "provenance": provenance(env, res["versions"]),
        "loadavg_before": load_before, "loadavg_after": load_after,
        # jiffies spent busy and stolen by the hypervisor, machine-wide, during the run
        "cpu_busy_steal_jiffies": (None if cpu_before is None or cpu_after is None
                                   else [a - b for a, b in zip(cpu_after, cpu_before)]),
        "round_walls_s": res["walls"], "setup_samples_s": setups,
        "paths_per_round": res["paths_per_round"],
        "attempted": attempted, "failed": failed, "failed_frac": failed_frac,
        "failure_reasons": res["reasons"],
        "reference_values": res["references"],
        "spans_file": res.get("spans_file"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2))
    return metrics, record


def declared_metrics(trace: int) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Measure one workload and print its metrics; returns the JSON result printed last."""
    tmp = ROOT / ".perfbench" / "tmp" / f"{os.getpid()}_{time.time_ns()}"
    results = ROOT / ".perfbench" / "results"
    tmp.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        metrics, record = benchmark_one(workload, seed, seconds, trace, smoke, tmp, results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} paths)")
    for reason in record["failure_reasons"]:
        print(f"{workload} FAILED: {reason}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    print(json.dumps(result), flush=True)
    return result


def smoke() -> int:
    """All workloads at M=8, traced and untraced; every declared metric must print."""
    t0 = time.perf_counter()
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(name, workloads.DEFAULT_SEED, 0.5, trace, smoke=True)
            for metric, unit in declared_metrics(trace).items():
                if result["metrics"][metric]["unit"] != unit:
                    problems.append(f"{name} trace={trace}: {metric} printed in "
                                    f"{result['metrics'][metric]['unit']}, declared {unit}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} paths failed")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print(f"smoke {'passed' if not problems else 'failed'} in {time.perf_counter() - t0:.1f}s")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: every workload at M=8, traced and untraced")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lsns" / "__init__.py").is_file():
        raise SystemExit(f"no lsns sources under {ROOT / 'src'}; run from a checkout")
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required (or --smoke)")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
