"""One measuring process of the benchmark; ``run.py`` starts it with a clean env.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1
        --tmp DIR --out RESULT.json [--setup-only] [--smoke]

Set-up (import lsns, parse the config, one short warm-up path that fills
the grid/pad-index/mollifier caches and the FFT plans) is timed first.
``--setup-only`` stops there. Otherwise, with ``--trace 0`` rounds of the
workload are repeated until ``--seconds`` have passed (at least one), each
timed untraced; with ``--trace 1`` one untraced serial round, one round as
configured (for the parallel speed-up) and one traced serial round run in
this process. Every round is checked; the result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only: the set-up timer starts after it)


def _import_lsns():
    sys.path.insert(0, str(ROOT / "src"))
    import lsns
    import numpy
    import scipy
    from lsns import config, ensemble

    where = Path(lsns.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"imported lsns from {where}, not from {ROOT / 'src'}")
    return config, ensemble, {"numpy": numpy.__version__, "scipy": scipy.__version__}


class Runner:
    def __init__(self, wl, seed, tmp: Path, smoke: bool):
        self.wl, self.seed, self.tmp, self.smoke = wl, seed, tmp, smoke
        self.rounds = 0

    def setup(self):
        t0 = time.perf_counter()
        self.config, self.ensemble, self.versions = _import_lsns()
        self.cfg = self.config.ExperimentConfig.parse(self.wl.config(self.seed, "out",
                                                                     smoke=self.smoke))
        self.round(workers=1, paths=1, t_end=8 * self.cfg.raw["run"]["dt"], check=False)
        return time.perf_counter() - t0

    def round(self, workers=None, paths=None, t_end=None, check=True):
        """Run one round into a fresh directory; returns (wall seconds, RoundCheck)."""
        wl, ens = self.wl, self.ensemble
        outdir = self.tmp / f"round_{self.rounds:03d}"
        self.rounds += 1
        doc = wl.config(self.seed, outdir, smoke=self.smoke, workers=workers, paths=paths,
                        t_end=t_end)
        cfg = self.config.ExperimentConfig.parse(doc)
        t0 = time.perf_counter()
        summary = ens.run_experiment(cfg, resume=False)
        replays = {}
        if wl.report:
            ens.report(outdir)
        if wl.replay:
            spec = wl.replay_spec(doc["run"]["t_end"])
            for manifest in sorted(outdir.glob("trajectory_*/manifest.json")):
                pid = int(manifest.parent.name.rsplit("_", 1)[1])
                replays[pid] = outdir / f"replay_{pid:06d}"
                ens.replay(manifest, spec, replays[pid])
        wall = time.perf_counter() - t0
        result = None
        if check:
            result = workloads.check_round(wl, doc, summary, replays, self.seed,
                                           full_size=not self.smoke)
        shutil.rmtree(outdir)
        return wall, result


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children (the pool workers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    runner = Runner(wl, args.seed, tmp, args.smoke)
    out = {"setup_s": runner.setup(), "config_digest": runner.cfg.digest(),
           "versions": runner.versions}
    if args.setup_only:
        return out

    checks, walls = [], []

    def timed(**kw):
        wall, chk = runner.round(**kw)
        if checks:
            workloads.compare_rounds(checks[0], chk)
        checks.append(chk)
        return wall

    if args.trace == 0:
        # start a round only while it is expected to end within --seconds
        t_start = time.perf_counter()
        while True:
            walls.append(timed())
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracer import Tracer

        serial = timed(workers=1)
        configured = timed() if wl.workers > 1 else serial
        with Tracer() as tracer:
            traced = timed(workers=1)
        layer = tracer.metrics()
        layer["ensemble.parallel_speedup"] = (serial / configured, "ratio")
        layer["trace.overhead_frac"] = (traced / serial - 1.0, "ratio")
        out["layer_metrics"] = layer
        walls = [serial, configured, traced]
        spans_path = Path(args.out).with_suffix(".spans.json")
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path)

    out.update(
        walls=walls,
        paths_per_round=checks[0].attempted,
        attempted=sum(c.attempted for c in checks),
        failed=sum(len(c.failed) for c in checks),
        reasons=[r for c in checks for r in c.reasons],
        references=(workloads.reference_values(checks[0])
                    if args.seed == workloads.DEFAULT_SEED and not args.smoke else None),
    )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except Exception:
        result = {"error": traceback.format_exc()}
    Path(args.out).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
