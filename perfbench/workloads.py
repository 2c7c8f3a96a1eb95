"""The three benchmark workloads: their configs, output checks and reference values.

Every workload uses nu = 0.02, epsilon = 0.25 (N = 5 noise modes), M = 16 and
a Taylor-Green initial condition; ``ensemble.seed`` is the workload seed,
which the program sees only inside the generated config. One *round* of a
workload is a fixed amount of work (an ensemble of ``paths`` paths plus the
listed ``report``/``replay`` calls) into a fresh output directory with
``resume=False``; the benchmark repeats rounds and reports medians.

This module imports nothing heavy, so the set-up timer in ``measure.py``
starts before numpy, scipy and lsns are loaded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 2026

# Terminal ledger values of paths 0 and 1 at DEFAULT_SEED (full size), keyed
# "<path id>:<value>". rel 1e-6 absorbs roundoff-level changes (FFT sizes,
# summation order); a change to the physics moves them by far more.
REFERENCE_REL_TOL = 1e-6
REFERENCE_ABS_TOL = 1e-12
REFERENCES: dict[str, dict[str, float]] = {
    "energy_ensemble": {
        "0:energy.martingale": 1.0714887527564143e-05,
        "0:energy.compensator": 8.078597185546625e-05,
        "0:energy.energy_functional": 9.15008593830304e-05,
        "0:energy.qv_realized": 1.0852169502574824e-08,
        "0:energy.state_l2": 0.18243482266259886,
        "1:energy.martingale": 1.969419091489036e-05,
        "1:energy.compensator": 8.078597185546625e-05,
        "1:energy.energy_functional": 0.00010048016277035661,
        "1:energy.qv_realized": 7.582735084664913e-09,
        "1:energy.state_l2": 0.1804277137579746,
    },
    "em_ensemble": {
        "0:final_l2": 0.18243482266259886,
        "1:final_l2": 0.1804277137579746,
    },
    "replay_ledgers": {
        "0:energy.martingale": -6.230991968063678e-05,
        "0:energy.compensator": 7.988401089179354e-07,
        "0:energy.energy_functional": -6.151107957171884e-05,
        "0:energy.qv_realized": 1.9538918009545883e-08,
        "0:energy.state_l2": 0.17767562585181773,
        "0:vorticity.martingale": -0.01631723523326133,
        "0:vorticity.w_integral": 0.6496378783536745,
        "0:dissipation.0.125": 3.904097835831518e-06,
        "0:dissipation.0.25": 9.773459835597067e-06,
        "1:energy.martingale": -8.520178128159545e-05,
        "1:energy.compensator": 8.252251145745315e-07,
        "1:energy.energy_functional": -8.437655616702092e-05,
        "1:energy.qv_realized": 1.841119481007594e-08,
        "1:energy.state_l2": 0.17976188766450765,
        "1:vorticity.martingale": 0.010889592241537743,
        "1:vorticity.w_integral": 0.6618868509135635,
        "1:dissipation.0.125": 4.132205514363114e-06,
        "1:dissipation.0.25": 1.0351895665426696e-05,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    noise_kind: str
    dt: float
    paths: int           # paths per round at full size
    workers: int
    energy_ledger: bool  # inline energy ledger with one test function, written as CSV
    report: bool         # report() on the output directory after the run
    replay: bool         # save snapshots, then replay() each manifest with energy + vorticity + DR

    def config(self, seed: int, outdir, *, smoke: bool = False, workers: int | None = None,
               paths: int | None = None, t_end: float | None = None) -> dict:
        """The ``lsns run`` document of one round (or of a shorter warm-up path)."""
        m, dt, horizon = (8, 1.0 / 64, 1.0 / 8) if smoke else (16, self.dt, 0.25)
        if t_end is not None:
            horizon = t_end
        doc = {
            "schema_version": 1,
            "run": {
                "nu": 0.02, "epsilon": 0.25, "dt": dt, "t_end": horizon, "m": m,
                "initial_condition": {"kind": "taylor_green", "amplitude": 1.0},
            },
            "noise": {"kind": self.noise_kind, "amplitude": 0.1, "ratio": 0.7, "max_k": 8},
            "ensemble": {
                "paths": paths if paths is not None else (2 if smoke else self.paths),
                "seed": seed,
                "workers": workers if workers is not None else self.workers,
            },
            "output": {"directory": str(outdir), "stride": 1,
                       "save_snapshots": self.replay, "write_csv": True},
        }
        if self.energy_ledger:
            doc["diagnostics"] = {"test_functions": [test_function(horizon)]}
        return doc

    def replay_spec(self, t_end: float) -> dict:
        return {
            "test_functions": [test_function(t_end)],
            "vorticity": {"delta": 0.5},
            "dissipation": {"ell_values": [0.25, 0.125], "quadrature": 24},
        }


def test_function(t_end: float) -> dict:
    """The criterion-6 window (1/4, 3/4) of the horizon, ramp 1/8 of it.

    Scaling the window with the horizon keeps every config, the short
    warm-up ones included, clear of a test window outside the horizon.
    """
    a, b, ramp = t_end / 4, 3 * t_end / 4, t_end / 8
    if not (0.0 <= a < b <= t_end):
        raise ValueError(f"test window ({a}, {b}) is not inside the horizon (0, {t_end})")
    return {"name": "phi", "spatial": {"exponent": 1},
            "temporal": {"a": a, "b": b, "ramp": ramp}}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="energy_ensemble",
            why="criterion-6 ensemble: additive noise, energy ledger, CSV and report(); "
                "StepView synthesis and EnergyLedger.advance dominate",
            noise_kind="additive", dt=1.0 / 512, paths=4, workers=2,
            energy_ledger=True, report=True, replay=False,
        ),
        Workload(
            name="em_ensemble",
            why="same run block without diagnostics: isolates the EM step and the "
                "per-path pool orchestration; ledgers do no work",
            noise_kind="additive", dt=1.0 / 512, paths=16, workers=2,
            energy_ledger=False, report=False, replay=False,
        ),
        Workload(
            name="replay_ledgers",
            why="lsns run -> lsns replay: multiplicative noise, snapshots, then energy, "
                "vorticity and DR ledgers replayed serially",
            noise_kind="linear_multiplicative", dt=1.0 / 256, paths=2, workers=1,
            energy_ledger=True, report=False, replay=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks


@dataclass
class RoundCheck:
    """Per-path failures of one round plus the values compared across rounds."""

    attempted: int
    failed: set
    reasons: list
    fingerprint: dict  # path id -> record and replayed outputs, for rerun equality


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def _terminal_values(record: dict, replayed: dict) -> dict[str, float]:
    """The values compared against REFERENCES for one path."""
    out = {}
    if "energy" in record:
        e = record["energy"]["phi"]
        for key in ("martingale", "compensator", "energy_functional", "qv_realized", "state_l2"):
            out[f"energy.{key}"] = e[key][-1]
    if "final_l2" in record:
        out["final_l2"] = record["final_l2"]
    if "vorticity" in replayed:
        out["vorticity.martingale"] = replayed["vorticity"]["martingale"]
        out["vorticity.w_integral"] = replayed["vorticity"]["w_integral"]
    for ell, val in replayed.get("dissipation", {}).items():
        out[f"dissipation.{ell}"] = val
    return out


def _read_replay(outdir: Path, pid: int) -> dict:
    """Terminal vorticity and DR values of one replayed path."""
    with open(outdir / f"vorticity_{pid:06d}.csv") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    dr = json.loads((outdir / f"dissipation_{pid:06d}.json").read_text())
    return {
        "vorticity": {"martingale": float(last["martingale"]),
                      "w_integral": float(last["w_integral"])},
        "dissipation": {k: v[-1] for k, v in dr["series"].items()},
    }


def check_round(wl: Workload, cfg_doc: dict, summary: dict, replays: dict,
                seed: int, full_size: bool) -> RoundCheck:
    """Check one finished round; a path fails if any of its outputs is wrong.

    Round-level defects (missing paths, a missing or degenerate verdict)
    fail every path of the round.
    """
    outdir = Path(cfg_doc["output"]["directory"])
    n = cfg_doc["ensemble"]["paths"]
    failed, reasons, fingerprint = set(), [], {}

    def fail(pids, why):
        failed.update(pids)
        reasons.append(why)

    everyone = range(n)
    if summary.get("paths_requested") != n or summary.get("paths_completed") != n:
        fail(everyone, f"completed {summary.get('paths_completed')} of {n} paths")
    if summary.get("blowups"):
        fail(everyone, f"blow-ups: {summary['blowups']}")
    tests = summary.get("tests", {})
    if wl.energy_ledger:
        block = tests.get("energy:phi")
        if block is None:
            fail(everyone, "verdict block energy:phi missing")
        else:
            for key in ("terminal_martingale", "qv_gap"):
                se = block.get(key, {}).get("stderr", 0.0)
                if not se > 0.0:
                    fail(everyone, f"energy:phi {key} stderr {se} is not > 0")
    elif tests:
        fail(everyone, f"unexpected verdict blocks {sorted(tests)}")

    records = {}
    for pid in everyone:
        rpath = outdir / "paths" / f"path_{pid:06d}.json"
        try:
            records[pid] = json.loads(rpath.read_text())
        except (OSError, json.JSONDecodeError) as err:
            fail([pid], f"path {pid}: record unreadable ({err})")
            continue
        rec = records[pid]
        if rec.get("blown_up") or not _finite(rec):
            fail([pid], f"path {pid}: blown up or non-finite record")
        if wl.energy_ledger and "energy" not in rec:
            fail([pid], f"path {pid}: no energy ledger in record")
        if not wl.energy_ledger and not isinstance(rec.get("final_l2"), float):
            fail([pid], f"path {pid}: no final_l2 in record")

    if not wl.energy_ledger:
        # no verdict here: the noise must still have moved the paths apart
        l2 = [r["final_l2"] for r in records.values() if isinstance(r.get("final_l2"), float)]
        if len(set(l2)) < 2:
            fail(everyone, "final_l2 identical on every path (zero spread)")

    for pid, rec in records.items():
        replayed = {}
        if wl.replay:
            rdir = replays.get(pid)
            inline = outdir / "paths" / f"energy_phi_{pid:06d}.csv"
            try:
                same = rdir is not None and \
                    (rdir / f"energy_phi_{pid:06d}.csv").read_bytes() == inline.read_bytes()
                replayed = _read_replay(rdir, pid) if rdir is not None else {}
            except (OSError, KeyError, ValueError, IndexError) as err:
                same = False
                reasons.append(f"path {pid}: replay outputs unreadable ({err})")
            if not same:
                fail([pid], f"path {pid}: replayed energy CSV differs from the inline one")
            if not _finite(replayed):
                fail([pid], f"path {pid}: non-finite replayed value")
        values = _terminal_values(rec, replayed)
        fingerprint[pid] = {"record": rec, "replayed": replayed}
        ref = REFERENCES.get(wl.name, {})
        if full_size and seed == DEFAULT_SEED:
            for key, want in ref.items():
                kp, _, kname = key.partition(":")
                if int(kp) != pid:
                    continue
                got = values.get(kname)
                if got is None or not math.isclose(got, want, rel_tol=REFERENCE_REL_TOL,
                                                   abs_tol=REFERENCE_ABS_TOL):
                    fail([pid], f"path {pid}: {kname} = {got!r}, reference {want!r}")
    return RoundCheck(n, failed, reasons, fingerprint)


def compare_rounds(first: RoundCheck, other: RoundCheck):
    """Reruns of one config (serial or parallel, traced or not) are bit-exact."""
    for pid, fp in other.fingerprint.items():
        if first.fingerprint.get(pid) != fp:
            other.failed.add(pid)
            other.reasons.append(f"path {pid}: output differs from the first round")


def reference_values(check: RoundCheck, pids=(0, 1)) -> dict[str, float]:
    """The REFERENCES entry for a workload, from a checked default-seed round."""
    out = {}
    for pid in pids:
        fp = check.fingerprint[pid]
        for k, v in _terminal_values(fp["record"], fp["replayed"]).items():
            out[f"{pid}:{k}"] = v
    return out
