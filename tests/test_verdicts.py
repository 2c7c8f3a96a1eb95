import numpy as np
import pytest

from lsns.config import ExperimentConfig
from lsns.ensemble import MIN_PATHS, Verdicts, run_experiment

from test_ensemble_cli import base_config

FEW = f"n = 8 < {MIN_PATHS} paths, too few for a normal-bar verdict"
IDENTITY = "identity: lhs - rhs is rounding"
SPREAD = np.tile([-1.0, 1.0], MIN_PATHS)  # mean 0, stderr 1/8 (to 1%)


@pytest.mark.parametrize("vals, status, reason", [
    ([], "degenerate", "n = 0 < 2 paths"),
    ([0.5], "degenerate", "n = 1 < 2 paths"),
    # zero stderr comes before the MIN_PATHS rule, which comes before the bar
    ([0.25] * 8, "degenerate", "stderr = 0: all 8 paths give 0.25"),
    (SPREAD[:8], "degenerate", FEW),
    (SPREAD, "pass", "|z| = 0 <= 4"),
    (SPREAD + 1.0, "fail", "|z| = 7.94 > 4"),
])
def test_zero_mean_follows_the_one_rule(vals, status, reason):
    verdicts = Verdicts()
    stats, passed = verdicts.zero_mean("t", list(vals))
    assert verdicts == [{"test": "t", "status": status, "reason": reason}]
    assert passed is (status == "pass")
    assert stats["n"] == len(vals)


@pytest.mark.parametrize("ok, n, flat, status, reason", [
    # statistical: n < 2, then a zero stderr, then MIN_PATHS, then the bar
    (True, 1, "flat", "degenerate", "n = 1 < 2 paths"),
    (True, 8, "flat", "degenerate", "flat"),
    (False, MIN_PATHS, "flat", "degenerate", "flat"),
    (True, 8, None, "degenerate", FEW),
    (True, MIN_PATHS, None, "pass", "bar"),
    (False, MIN_PATHS, None, "fail", "bar"),
    # the LEI: no stderr step, few paths below MIN_PATHS, else its identity
    (None, 8, None, "degenerate", FEW),
    (None, MIN_PATHS, None, "degenerate", IDENTITY),
    # not statistical: the outcome stands at any path count
    (True, None, None, "pass", "bar"),
    (False, None, None, "fail", "bar"),
    (None, None, None, "degenerate", "bar"),
])
def test_judge_follows_the_one_rule(ok, n, flat, status, reason):
    verdicts = Verdicts()
    own = IDENTITY if ok is None and n is not None else "bar"
    assert verdicts.judge("t", ok, own, n, flat) is (status == "pass")
    assert verdicts == [{"test": "t", "status": status, "reason": reason}]


def test_zero_stderr_supermartingale_window_is_degenerate(tmp_path):
    # s = t: every path's increment is 0, and the high_energy event at
    # q = 1 holds no path; no evidence either way, so not a pass
    doc = base_config(tmp_path)
    doc["ensemble"]["paths"] = MIN_PATHS
    doc["diagnostics"]["supermartingale"] = {"s": 0.125, "t": 0.125}
    doc["diagnostics"]["events"] = [{"kind": "all"},
                                    {"kind": "high_energy", "at": 0.0, "q": 1.0}]
    summary = run_experiment(ExperimentConfig.parse(doc))
    assert summary["tests"]["energy:bump"]["supermartingale"]["passed"] is False
    verdict = {v["test"]: v for v in summary["verdicts"]}["energy:bump/supermartingale"]
    assert verdict == {"test": "energy:bump/supermartingale", "status": "degenerate",
                       "reason": f"event all: stderr = 0 over {MIN_PATHS} active paths"}


def test_ensemble_without_a_completed_path_does_not_pass(tmp_path):
    doc = base_config(tmp_path)
    doc["run"].update(dt=1.0 / 16, t_end=1.0)
    doc["run"]["initial_condition"]["amplitude"] = 1e4
    doc["ensemble"]["paths"] = 2
    summary = run_experiment(ExperimentConfig.parse(doc))
    assert summary["paths_completed"] == 0 and len(summary["blowups"]) == 2
    assert summary["verdicts"] == [{"test": "paths", "status": "degenerate",
                                    "reason": "no path of 2 completed"}]
    assert summary["all_passed"] is False
