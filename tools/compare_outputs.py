"""List the benchmark workloads' output files that differ between two checkouts.

    python3 tools/compare_outputs.py --base ../parent-checkout

For each workload of ``BENCHMARK.json`` the config of ``perfbench/workloads.py``
(imported read-only from this checkout) is run at ``workloads.DEFAULT_SEED``
with 2 paths, one worker and the horizon ``T_END``, followed by the workload's
``report`` and ``replay``, once with this checkout's ``src/`` and once with the
``src/`` of ``--base``. Every output file is compared byte for byte after
dropping the fields that embed the output directory or the wall clock
(``wall_clock_seconds``, ``config_digest`` and a manifest's ``directory``),
and a manifest's ``checksums``, which restate the bytes of the state files
compared beside it. Prints one line per differing or missing file, with the
size of a difference: the largest relative difference of the file's numbers
(a snapshot's coefficients against its largest coefficient, any other number
against the larger of its two values), or ``structure`` where anything but
the numbers differs. Exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

T_END = 1.0 / 16
LSNS_HEADER = 21  # bytes before a snapshot's coefficients: magic, version, M, kind, time

RUN = """
import json, sys
from pathlib import Path
from lsns import ensemble
from lsns.config import ExperimentConfig
doc, spec, report = json.loads(sys.argv[1])
outdir = Path(doc["output"]["directory"])
ensemble.run_experiment(ExperimentConfig.parse(doc), resume=False)
if report:
    ensemble.report(outdir)
for manifest in sorted(outdir.glob("trajectory_*/manifest.json")):
    ensemble.replay(manifest, spec, outdir / ("replay_" + manifest.parent.name.split("_")[1]))
"""


def run(checkout: Path, wl, outdir: Path) -> dict[Path, bytes]:
    """Run ``wl`` with ``checkout``'s ``src/`` into ``outdir``; its files' comparable bytes."""
    doc = wl.config(workloads.DEFAULT_SEED, outdir, workers=1, paths=2, t_end=T_END)
    arg = json.dumps([doc, wl.replay_spec(T_END) if wl.replay else None, wl.report])
    subprocess.run([sys.executable, "-c", RUN, arg], check=True,
                   env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    return {p.relative_to(outdir): content(p) for p in outdir.rglob("*") if p.is_file()}


def content(path: Path) -> bytes:
    if path.suffix != ".json":
        return path.read_bytes()
    keys = {"wall_clock_seconds", "config_digest"}
    if path.name == "manifest.json":
        keys |= {"directory", "checksums"}

    def drop(obj):
        if isinstance(obj, dict):
            return {k: drop(v) for k, v in obj.items() if k not in keys}
        return [drop(v) for v in obj] if isinstance(obj, list) else obj
    return json.dumps(drop(json.loads(path.read_text())), sort_keys=True).encode()


def split(obj, nums: list):
    """``obj`` with every number (a numeric CSV cell included) replaced by None,
    the numbers appended to ``nums`` in order."""
    if isinstance(obj, dict):
        return {k: split(v, nums) for k, v in obj.items()}
    if isinstance(obj, list):
        return [split(v, nums) for v in obj]
    if isinstance(obj, str):
        try:
            obj = float(obj)
        except ValueError:
            return obj
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        nums.append(float(obj))
        return None
    return obj


def size(rel: Path, old: bytes, new: bytes) -> str:
    """The size of the difference between two versions of a file (see above)."""
    if rel.suffix == ".lsns":
        if old[:LSNS_HEADER] != new[:LSNS_HEADER] or len(old) != len(new):
            return "structure"
        a, b = (np.frombuffer(v, "<c16", offset=LSNS_HEADER) for v in (old, new))
        return f"largest relative difference {np.max(np.abs(a - b)) / np.max(np.abs(a)):.2g}"

    def parse(data: bytes):
        text, nums = data.decode(), []
        doc = list(csv.reader(io.StringIO(text))) if rel.suffix == ".csv" else json.loads(text)
        return split(doc, nums), np.array(nums)

    (skeleton, a), (skeleton_new, b) = parse(old), parse(new)
    if skeleton != skeleton_new:
        return "structure"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b) / np.maximum(np.abs(a), np.abs(b)))
    return f"largest relative difference {np.max(diff, initial=0.0):.2g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    base = ap.parse_args(argv).base.resolve()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
            name, wl = w["name"], workloads.WORKLOADS[w["name"]]
            old = run(base, wl, Path(tmp) / "base" / name)
            new = run(ROOT, wl, Path(tmp) / "head" / name)
            for rel in sorted(old.keys() | new.keys()):
                if old.get(rel) != new.get(rel):
                    side = f"differs ({size(rel, old[rel], new[rel])})" \
                        if rel in old and rel in new else \
                        f"only in {'head' if rel in new else 'base'}"
                    print(f"{name}: {rel} {side}")
                    differ += 1
            print(f"{name}: {len(new)} files compared", file=sys.stderr)
    print(f"{differ} differing files")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
