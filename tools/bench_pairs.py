"""Paired before/after runs of the benchmark, written to one committed JSON file.

    python3 tools/bench_pairs.py --base ../parent-checkout --out BENCH_x.json \
        --workload replay_ledgers --pairs 10 --seed 2026 [--seed 7] [--layers]

``--base`` is a checkout of the parent commit (e.g. its ``git clone``); the
change is the checkout this script lives in. For each workload and seed the
script runs ``perfbench/run.py --trace 0`` in the two checkouts alternately,
``--pairs`` times, for the ``run_seconds`` that ``BENCHMARK.json`` fixes,
swapping which side goes first on every pair so that a drifting machine
favours neither. Per end-to-end metric
of ``BENCHMARK.json`` it records each side's median and quartiles
(``statistics.quantiles(n=4)``) and the number of pairs the head won. Each
side's provenance (git commit, ``src/`` digest, library versions, nproc,
thread env) and its runs' load averages are copied from perfbench's results
files. ``--layers`` adds one ``--trace 1`` run per side, with its per-layer
metrics. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: its printed result plus its results record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout} ({proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    stem = f"{workload}_seed{seed}_trace{trace}_{proc.pid}.json"
    record = json.loads((checkout / ".perfbench" / "results" / stem).read_text())
    return {"result": result, "record": record}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(checkouts: dict, workload: str, seed: int, pairs: int, seconds: float,
            declared: list[dict], layers: bool) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            t0 = time.perf_counter()
            runs[side].append(run_bench(checkouts[side], workload, seed, seconds, 0))
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                  f"{runs[side][-1]['result']['metrics']['wall_s']['value']:.3f} s "
                  f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr, flush=True)
    entry = {"workload": workload, "seed": seed, "pairs": pairs, "seconds": seconds}
    for side in SIDES:
        first = runs[side][0]["record"]
        entry[side] = {
            "provenance": first["provenance"],
            "config_digest": first["config_digest"],
            "correct": all(r["result"]["correct"] for r in runs[side]),
            "failed": sum(r["result"]["failed"] for r in runs[side]),
            "loadavg_before_after": [[r["record"]["loadavg_before"][0],
                                      r["record"]["loadavg_after"][0]] for r in runs[side]],
        }
    metrics = {}
    for m in declared:
        name = m["name"]
        vals = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        wins = sum((h < b) if m["better"] == "lower" else (h > b)
                   for b, h in zip(vals["base"], vals["head"]))
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         **{side: summary(vals[side]) for side in SIDES},
                         "head_wins": wins}
    entry["end_to_end"] = metrics
    if layers:
        traced = {side: run_bench(checkouts[side], workload, seed, seconds, 1)
                  for side in SIDES}
        entry["per_layer"] = {
            name: {"unit": v["unit"],
                   **{side: traced[side]["result"]["metrics"][name]["value"]
                      for side in SIDES}}
            for name, v in traced["head"]["result"]["metrics"].items()
        }
        entry["per_layer_correct"] = {side: traced[side]["result"]["correct"]
                                      for side in SIDES}
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--layers", action="store_true", help="add one traced run per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "head": ROOT}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # an existing file is extended, so workloads and seeds can be run one at a time
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"comparisons": []}
    for workload in args.workload:
        for seed in args.seed or [2026]:
            entry = compare(checkouts, workload, seed, args.pairs, bench["run_seconds"],
                            bench["end_to_end"], args.layers)
            doc["comparisons"] = [e for e in doc["comparisons"]
                                  if (e["workload"], e["seed"]) != (workload, seed)]
            doc["comparisons"].append(entry)
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
