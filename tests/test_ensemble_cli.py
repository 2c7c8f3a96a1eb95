import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lsns.cli import main as cli_main
from lsns.config import ExperimentConfig, initial_field
from lsns.ensemble import MIN_PATHS, replay, report, run_experiment, run_one_path
from lsns.errors import ConfigurationError
from lsns.integrate import RunParams, integrate
from lsns.noise import make_noise_model
from lsns.persist import (
    load_trajectory,
    read_snapshot,
    save_trajectory,
    write_snapshot,
)
from lsns.spectral import Grid, ScalarField, SpectralField
from lsns.stepview import views_from_trajectory
from lsns.vorticity import vorticity_bounds_report

from helpers import random_solenoidal, taylor_green

G8 = Grid(8)


def base_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "run": {
            "nu": 0.02, "epsilon": 0.25, "dt": 1.0 / 16, "t_end": 0.125,
            "m": 8,
            "initial_condition": {"kind": "taylor_green", "amplitude": 0.6},
        },
        "noise": {"kind": "additive", "amplitude": 0.3, "ratio": 0.5, "max_k": 8},
        "diagnostics": {
            "test_functions": [
                {"name": "bump", "spatial": {"exponent": 2},
                 "temporal": {"a": 0.03125, "b": 0.09375, "ramp": 0.015625}},
            ],
            "events": [{"kind": "all"}],
            "supermartingale": {"s": 0.0625, "t": 0.125},
            "lei_xi": ["one", "inv_sup_energy"],
            "vorticity": {"delta": 0.5},
        },
        "ensemble": {"paths": 3, "seed": 421, "workers": 1},
        "output": {"directory": str(tmp_path / "out"), "stride": 1,
                   "save_snapshots": False, "write_csv": True},
    }
    doc.update(overrides)
    return doc


def test_snapshot_round_trip_bit_exact(tmp_path):
    u = random_solenoidal(G8, seed=31)
    path = tmp_path / "field.lsns"
    write_snapshot(path, u, 0.75)
    back, t = read_snapshot(path, G8)
    assert t == 0.75
    assert np.array_equal(back.coeffs, u.coeffs)
    blob = path.read_bytes()
    assert blob[:4] == b"LSNS"

    s = ScalarField(G8, u.coeffs[0])
    write_snapshot(tmp_path / "scalar.lsns", s, 0.0)
    back_s, _ = read_snapshot(tmp_path / "scalar.lsns")
    assert isinstance(back_s, ScalarField)
    assert np.array_equal(back_s.coeffs, s.coeffs)

    bad = tmp_path / "bad.lsns"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ConfigurationError):
        read_snapshot(bad)
    short = tmp_path / "short.lsns"
    short.write_bytes(blob[:-16])
    with pytest.raises(ConfigurationError, match="short.lsns"):
        read_snapshot(short)


def test_trajectory_save_load_checksums(tmp_path):
    noise = make_noise_model(G8, "additive", amplitude=0.2, max_k=6)
    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 16, t_end=0.125, grid=G8, seed=5)
    traj = integrate(p, taylor_green(G8, 0.5), noise)
    d = tmp_path / "traj"
    save_trajectory(traj, d)
    back = load_trajectory(d, noise)
    assert back.stored_steps == traj.stored_steps
    for a, b in zip(traj.states, back.states):
        assert np.array_equal(a.coeffs, b.coeffs)
    # corrupt one snapshot: checksum must catch it
    victim = next(d.glob("state_*.lsns"))
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError):
        load_trajectory(d, noise)
    victim.unlink()
    with pytest.raises(ConfigurationError, match=victim.name):
        load_trajectory(d, noise)


def test_config_parse_round_trip_and_digest(tmp_path):
    doc = base_config(tmp_path)
    cfg = ExperimentConfig.parse(doc)
    again = ExperimentConfig.parse(json.loads(cfg.canonical()))
    assert cfg.canonical() == again.canonical()
    assert cfg.digest() == again.digest()

    reordered = json.loads(json.dumps(doc))
    cfg2 = ExperimentConfig.parse(reordered)
    assert cfg2.digest() == cfg.digest()


def test_config_validation_errors(tmp_path):
    doc = base_config(tmp_path)
    del doc["run"]["nu"]
    with pytest.raises(ConfigurationError, match="run.nu"):
        ExperimentConfig.parse(doc)

    doc = base_config(tmp_path)
    doc["schema_version"] = 99
    with pytest.raises(ConfigurationError, match="schema_version"):
        ExperimentConfig.parse(doc)

    doc = base_config(tmp_path)
    doc["noise"]["kind"] = "pink"
    with pytest.raises(ConfigurationError, match="noise.kind"):
        ExperimentConfig.parse(doc)

    doc = base_config(tmp_path)
    doc["diagnostics"]["test_functions"][0]["temporal"]["b"] = 0.5
    with pytest.raises(ConfigurationError, match="temporal"):
        ExperimentConfig.parse(doc)


def test_unknown_config_keys_fail_at_parse_time(tmp_path):
    # a misspelt key names its block and fails instead of running on a default
    doc = base_config(tmp_path)
    doc["diagnostics"]["vorticity"] = {"dleta": 0.1}
    with pytest.raises(ConfigurationError, match=r"diagnostics\.vorticity: unknown key 'dleta'"):
        ExperimentConfig.parse(doc)
    doc = base_config(tmp_path)
    doc["diagnostics"]["test_functions"][0]["temporal"]["rmap"] = 0.01
    with pytest.raises(ConfigurationError, match=r"test_functions\[0\]\.temporal: unknown key"):
        ExperimentConfig.parse(doc)
    doc = base_config(tmp_path)
    doc["ensemble"]["worker"] = 2
    with pytest.raises(ConfigurationError, match="ensemble: unknown key 'worker'"):
        ExperimentConfig.parse(doc)
    doc = base_config(tmp_path, outputs={})
    with pytest.raises(ConfigurationError, match="config: unknown key 'outputs'"):
        ExperimentConfig.parse(doc)
    # the retired dissipation.quadrature key still parses (and is ignored)
    doc = base_config(tmp_path)
    doc["diagnostics"]["dissipation"] = {"ell_values": [0.25], "quadrature": 16}
    ExperimentConfig.parse(doc)


def test_run_experiment_deterministic_and_resumable(tmp_path):
    cfg = ExperimentConfig.parse(base_config(tmp_path))
    s1 = run_experiment(cfg)
    assert s1["paths_completed"] == 3
    assert s1["tests"]["energy:bump"]["zero_mean_pass"] in (True, False)

    # re-running with resume picks up stored paths and reproduces statistics
    s2 = run_experiment(cfg)
    for key in ("tests", "paths_completed", "blowups", "config_digest"):
        assert json.dumps(s1[key], sort_keys=True) == json.dumps(s2[key], sort_keys=True)

    # wiping the outputs and rerunning from scratch is also identical
    import shutil

    shutil.rmtree(tmp_path / "out")
    s3 = run_experiment(cfg)
    assert json.dumps(s1["tests"], sort_keys=True) == json.dumps(s3["tests"], sort_keys=True)


def test_run_experiment_parallel_matches_serial(tmp_path):
    doc1 = base_config(tmp_path / "a")
    doc2 = base_config(tmp_path / "b")
    doc2["ensemble"]["workers"] = 2
    s1 = run_experiment(ExperimentConfig.parse(doc1))
    s2 = run_experiment(ExperimentConfig.parse(doc2))
    assert json.dumps(s1["tests"], sort_keys=True) == json.dumps(s2["tests"], sort_keys=True)


def test_pool_tasks_carry_the_parsed_config(tmp_path, monkeypatch):
    # the workers run the config parsed once before the ensemble starts
    monkeypatch.delenv("LSNS_WORKERS", raising=False)
    cfgs = [ExperimentConfig.parse(base_config(
        tmp_path / str(w), ensemble={"paths": 4, "seed": 421, "workers": w})) for w in (1, 2)]

    def parse(cls, doc):
        raise AssertionError("config parsed again inside the ensemble")

    monkeypatch.setattr(ExperimentConfig, "parse", classmethod(parse))
    for cfg in cfgs:
        run_experiment(cfg)
    for pid in range(4):
        serial, pooled = ((tmp_path / str(w) / "out" / "paths" / f"path_{pid:06d}.json").read_text()
                          for w in (1, 2))
        assert pooled == serial


def test_worker_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LSNS_WORKERS", "1")
    cfg = ExperimentConfig.parse(base_config(tmp_path, ensemble={"paths": 2, "seed": 1, "workers": 8}))
    s = run_experiment(cfg)
    assert s["paths_completed"] == 2


def test_blowup_paths_recorded_not_dropped(tmp_path):
    doc = base_config(tmp_path)
    doc["noise"]["amplitude"] = 1e9
    doc["diagnostics"] = {}
    cfg = ExperimentConfig.parse(doc)
    s = run_experiment(cfg)
    assert s["paths_completed"] + len(s["blowups"]) == 3
    assert len(s["blowups"]) >= 1
    for b in s["blowups"]:
        assert "step" in b


def test_t_zero_initial_state_only(tmp_path):
    doc = base_config(tmp_path)
    doc["run"]["t_end"] = 0.0
    doc["run"]["dt"] = 1.0 / 16
    doc["diagnostics"] = {}
    doc["ensemble"]["paths"] = 1
    # dt > T is rejected unless T = 0 runs zero steps; keep dt for step sizing
    cfg = ExperimentConfig.parse(doc)
    rec = run_one_path(cfg, 0)
    assert not rec["blown_up"]


def test_stepless_vorticity_ledger_gives_degenerate_holder_verdict(tmp_path):
    # with t_end = 0 no Hoelder margin exists: the verdict is degenerate, not a
    # pass, and the margin is written as null, never as Infinity
    doc = base_config(tmp_path)
    doc["run"]["t_end"] = 0.0
    doc["diagnostics"] = {"vorticity": {"delta": 0.5}}
    summary = run_experiment(ExperimentConfig.parse(doc))
    block = summary["tests"]["vorticity"]
    assert block["min_holder_margin"] is None
    assert block["holder_pass"] is False
    verdict = {v["test"]: v for v in summary["verdicts"]}["vorticity/holder"]
    assert verdict["status"] == "degenerate"
    assert verdict["reason"].startswith("no step")
    out = tmp_path / "out"
    texts = [(out / "summary.json").read_text()]
    texts += [p.read_text() for p in sorted((out / "paths").glob("path_*.json"))]
    assert len(texts) == 4
    assert all("Infinity" not in t for t in texts)
    assert all(json.loads(t)["vorticity"]["min_holder_margin"] is None for t in texts[1:])


def test_replay_reproduces_inline_csvs(tmp_path):
    for kind in ("additive", "linear_multiplicative"):
        _check_replay_reproduces_inline_csvs(tmp_path / kind, kind)


def _check_replay_reproduces_inline_csvs(root, kind):
    doc = base_config(root)
    doc["noise"]["kind"] = kind
    doc["output"]["save_snapshots"] = True
    doc["ensemble"]["paths"] = 1
    cfg = ExperimentConfig.parse(doc)
    run_experiment(cfg)
    out = Path(doc["output"]["directory"])
    inline_csv = out / "paths" / "energy_bump_000000.csv"
    traj_dir = out / "trajectory_000000"
    manifest = traj_dir / "manifest.json"
    # a trajectory is its state snapshots: no pressure is written
    assert sorted(p.name for p in traj_dir.iterdir()) == [
        "manifest.json", "state_000000.lsns", "state_000001.lsns", "state_000002.lsns"]
    written = replay(manifest, doc["diagnostics"], output_dir=root / "replayed")
    assert set(written) == {"energy:bump", "vorticity:default"}
    for path in map(Path, written.values()):
        assert (out / "paths" / path.name).read_bytes() == path.read_bytes()

    # the old layout, with a checksummed pressure snapshot per state, still replays
    traj = load_trajectory(traj_dir, cfg.noise_model())
    meta = json.loads(manifest.read_text())
    for step, view in zip(traj.stored_steps, views_from_trajectory(traj)):
        name = f"pressure_{step:06d}.lsns"
        write_snapshot(traj_dir / name, view.pressure, view.t)
        meta["checksums"][name] = hashlib.sha256((traj_dir / name).read_bytes()).hexdigest()
    manifest.write_text(json.dumps(meta))
    written = replay(manifest, doc["diagnostics"], output_dir=root / "replayed_old")
    assert inline_csv.read_bytes() == Path(written["energy:bump"]).read_bytes()

    # replay with a new test function produces a new ledger, old untouched
    before = inline_csv.read_bytes()
    new_diag = json.loads(json.dumps(doc["diagnostics"]))
    new_diag["test_functions"].append(
        {"name": "wide", "spatial": {"exponent": 1},
         "temporal": {"a": 0.03125, "b": 0.09375, "ramp": 0.015625}}
    )
    written2 = replay(manifest, new_diag, output_dir=root / "replayed2")
    assert "energy:wide" in written2
    assert inline_csv.read_bytes() == before


def test_bad_initial_condition_fails_at_parse_time(tmp_path):
    write_snapshot(tmp_path / "scalar.lsns", ScalarField(G8, np.zeros((8, 8, 8), complex)), 0.0)
    specs = [
        ({"kind": "vortex_ring"}, "unknown kind"),
        ({"kind": "snapshot"}, "path: missing"),
        ({"kind": "snapshot", "path": str(tmp_path / "missing.lsns")}, "missing.lsns"),
        ({"kind": "snapshot", "path": str(tmp_path / "scalar.lsns")}, "scalar field"),
    ]
    for i, (spec, message) in enumerate(specs):
        doc = base_config(tmp_path)
        doc["run"]["initial_condition"] = spec
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.parse(doc)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["run", str(path)])
        assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


def test_spectra_of_complex_fields_fail_at_parse_time(tmp_path):
    # a solenoidal perturbation with c[n] != conj c[-n] survives the Leray
    # projection, but its samples have an imaginary part
    real = tmp_path / "real.lsns"
    write_snapshot(real, taylor_green(G8, 0.6), 0.0)
    c = taylor_green(G8, 0.6).coeffs.copy()
    c[1, 1, 0, 0] += 0.05j
    bad = tmp_path / "complex.lsns"
    write_snapshot(bad, SpectralField(G8, c), 0.0)
    ic = base_config(tmp_path)
    ic["run"]["initial_condition"] = {"kind": "snapshot", "path": str(real)}
    noise = base_config(tmp_path)
    noise["run"]["epsilon"] = 1.0  # N = 2 fits the two stored fields
    noise["noise"] = {"kind": "additive", "coefficient_files": [str(real), str(real)]}
    for doc in (ic, noise):
        ExperimentConfig.parse(doc)
    ic["run"]["initial_condition"]["path"] = str(bad)
    noise["noise"]["coefficient_files"][1] = str(bad)
    for i, (doc, where) in enumerate([(ic, r"run\.initial_condition\.path"),
                                      (noise, r"noise\.coefficient_files\[1\]")]):
        with pytest.raises(ConfigurationError, match=where + ".*not the spectrum of a real field"):
            ExperimentConfig.parse(doc)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["run", str(path)])
        assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


def test_bad_events_and_supermartingale_windows_fail_at_parse_time(tmp_path):
    # each of these parsed and then failed in summarize, after every path ran
    cases = [
        ([{"kind": "low_enrgy"}], None, "unknown event kind 'low_enrgy'"),
        ([{"kind": "low_energy", "at": 0.0, "q": 1.5}], None, r"q=1.5 outside \[0, 1\]"),
        (None, {"s": 0.1, "t": 0.11}, "time 0.1 not on the stored step grid"),
        (None, {"s": 0.125, "t": 0.0625}, r"need s <= t"),
        ([{"kind": "low_energy", "at": 0.125}], {"s": 0.03125, "t": 0.125},
         "event at t=0.125 peeks beyond conditioning time s=0.03125"),
    ]
    for i, (events, window, message) in enumerate(cases):
        doc = base_config(tmp_path)
        doc["run"]["dt"] = 1.0 / 32
        if events is not None:
            doc["diagnostics"]["events"] = events
        if window is not None:
            doc["diagnostics"]["supermartingale"] = window
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.parse(doc)
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli_main, ["run", str(path)])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_aggregates(tmp_path):
    cfg = ExperimentConfig.parse(base_config(tmp_path))
    run_experiment(cfg)
    payload = report(cfg.output_block()["directory"])
    assert "energy_bump" in payload["ensemble_csv"]
    agg = Path(payload["ensemble_csv"]["energy_bump"])
    assert agg.exists()
    # the row-0 Hoelder margin is undefined: left empty, never inf or nan
    text = Path(payload["ensemble_csv"]["vorticity"]).read_text().lower()
    assert "nan" not in text and "inf" not in text
    with pytest.raises(ConfigurationError):
        report(tmp_path)  # no summary.json here


def test_noise_off_verdict_is_degenerate_not_pass(tmp_path):
    # every path is the same deterministic path: zero spread is no evidence
    doc = base_config(tmp_path)
    doc["noise"] = {"kind": "off"}
    doc["ensemble"]["paths"] = 2
    summary = run_experiment(ExperimentConfig.parse(doc))
    block = summary["tests"]["energy:bump"]
    assert block["terminal_martingale"]["stderr"] == 0.0
    assert block["zero_mean_pass"] is False
    status = {v["test"]: v for v in summary["verdicts"]}
    verdict = status["energy:bump/terminal_martingale"]
    assert verdict["status"] == "degenerate" and "stderr = 0" in verdict["reason"]
    assert summary["all_passed"] is False


def test_few_paths_give_degenerate_verdicts(tmp_path):
    # 3 paths with nonzero spread: the statistics are written, but every
    # normal-bar verdict is degenerate below MIN_PATHS
    summary = run_experiment(ExperimentConfig.parse(base_config(tmp_path)))
    block = summary["tests"]["energy:bump"]
    assert block["terminal_martingale"]["stderr"] > 0.0
    assert block["zero_mean_pass"] is False and block["qv_consistency_pass"] is False
    assert block["supermartingale"]["passed"] is False
    assert summary["tests"]["vorticity"]["zero_mean_pass"] is False
    status = {v["test"]: v for v in summary["verdicts"]}
    for test in ["energy:bump/terminal_martingale", "energy:bump/qv_gap",
                 "energy:bump/supermartingale", "energy:bump/lei/one",
                 "energy:bump/lei/inv_sup_energy", "vorticity/terminal_martingale"]:
        assert status[test]["status"] == "degenerate", test
        assert status[test]["reason"].startswith(f"n = 3 < {MIN_PATHS} paths"), test
    assert summary["all_passed"] is False


def test_cauchy_trend_needs_three_ells(tmp_path):
    # one or two ell values give fewer than two Cauchy differences: there is
    # no trend to compare, so the verdict is degenerate, never a pass
    for ells in ([0.25, 0.125], [0.25]):
        doc = base_config(tmp_path / str(len(ells)))
        doc["noise"] = {"kind": "off"}
        doc["diagnostics"]["dissipation"] = {"ell_values": ells}
        doc["ensemble"]["paths"] = 2
        summary = run_experiment(ExperimentConfig.parse(doc))
        block = summary["tests"]["dissipation"]
        assert len(block["mean_cauchy_differences"]) == len(ells) - 1
        assert block["nonincreasing"] is False
        verdict = {v["test"]: v for v in summary["verdicts"]}["dissipation/cauchy_trend"]
        assert verdict["status"] == "degenerate"
        assert verdict["reason"].startswith(f"{len(ells)} ell values give {len(ells) - 1} ")
        assert summary["all_passed"] is False


def test_summary_vorticity_block_is_the_report(tmp_path):
    # summarize builds its vorticity block from vorticity_bounds_report over
    # the path records' payloads, not from a second reduction of its own
    doc = base_config(tmp_path)
    doc["ensemble"]["paths"] = 2
    summary = run_experiment(ExperimentConfig.parse(doc))
    records = [json.loads((tmp_path / "out" / "paths" / f"path_{pid:06d}.json").read_text())
               for pid in range(2)]
    rep = vorticity_bounds_report([r["vorticity"] for r in records])
    block = summary["tests"]["vorticity"]
    assert block["mean_sup_l1"] == rep.mean_sup_l1
    assert block["mean_grad_norm"] == rep.mean_grad_norm
    assert block["min_holder_margin"] == rep.min_holder_margin
    assert block["holder_pass"] is rep.holder_ok
    assert block["norm_chain_pass"] is rep.norm_chain_ok


# terminal values of the pinned run below, computed with the hand-written
# ledgers that the series table replaced; "replay." values come from replay()'s files
PINNED = {
    '0:energy.martingale': 0.0001660504076410439,
    '0:energy.compensator': 2.709568437925631e-07,
    '0:energy.compensator_projected': 3.350047359940438e-07,
    '0:energy.energy_functional': 0.00016632136448483647,
    '0:energy.qv_predicted': 1.751670525534813e-09,
    '0:energy.qv_realized': 3.612452426977474e-08,
    '0:energy.state_l2': 0.14853133501786564,
    '0:vorticity.martingale': 0.03693803908388871,
    '0:vorticity.qv_predicted': 0.0006927032397217424,
    '0:vorticity.qv_realized': 0.0006939758606070048,
    '0:vorticity.sup_l1': 1.8935886106176638,
    '0:vorticity.grad_norm': 3.8709086685588874,
    '0:vorticity.min_holder_margin': 4.963278956193157,
    '0:dissipation.0.125': 1.5476710717664522e-07,
    '0:dissipation.0.25': 3.6964943308538514e-07,
    '0:replay.vorticity.w_integral': 0.4831629296912563,
    '0:replay.vorticity.hessian_enstrophy': 14.74775070479735,
    '0:replay.vorticity.stretching': -0.0012692754501031922,
    '0:replay.vorticity.noise_compensator': 0.00015056372094424388,
    '0:replay.vorticity.martingale': 0.03693803908388871,
    '0:replay.dissipation.0.125': 1.5476710717664522e-07,
    '0:replay.dissipation.0.25': 3.6964943308538514e-07,
    '1:energy.martingale': 0.0001489579520251502,
    '1:energy.compensator': 2.770256274964047e-07,
    '1:energy.compensator_projected': 3.4260753302991675e-07,
    '1:energy.energy_functional': 0.0001492349776526466,
    '1:energy.qv_predicted': 1.8281516172564019e-09,
    '1:energy.qv_realized': 3.835354932105562e-08,
    '1:energy.state_l2': 0.1422651700381143,
    '1:vorticity.martingale': 0.005718662519586901,
    '1:vorticity.qv_predicted': 0.0007021549471241413,
    '1:vorticity.qv_realized': 0.0005670477141832077,
    '1:vorticity.sup_l1': 1.8935886106176638,
    '1:vorticity.grad_norm': 3.888442573135012,
    '1:vorticity.min_holder_margin': 4.806720208077355,
    '1:dissipation.0.125': 1.9187061026604815e-07,
    '1:dissipation.0.25': 4.695123540787434e-07,
    '1:replay.vorticity.w_integral': 0.4502899510450287,
    '1:replay.vorticity.hessian_enstrophy': 14.831315422505611,
    '1:replay.vorticity.stretching': -0.0012865933924945225,
    '1:replay.vorticity.noise_compensator': 0.00015093805079239046,
    '1:replay.vorticity.martingale': 0.005718662519586901,
    '1:replay.dissipation.0.125': 1.9187061026604815e-07,
    '1:replay.dissipation.0.25': 4.695123540787434e-07,
}


def test_pinned_terminal_values(tmp_path):
    # 2 paths, M=8, linear-multiplicative noise, all three ledgers inline,
    # snapshots, then replay: terminal values pinned at rel 1e-9
    doc = base_config(tmp_path)
    doc["run"]["dt"] = 1.0 / 32
    doc["noise"] = {"kind": "linear_multiplicative", "amplitude": 0.3, "ratio": 0.5,
                    "max_k": 8}
    doc["diagnostics"]["dissipation"] = {"ell_values": [0.25, 0.125], "quadrature": 16}
    doc["ensemble"]["paths"] = 2
    doc["output"]["save_snapshots"] = True
    run_experiment(ExperimentConfig.parse(doc))
    out = tmp_path / "out"
    got = {}
    for pid in range(2):
        rec = json.loads((out / "paths" / f"path_{pid:06d}.json").read_text())
        e, v, d = rec["energy"]["bump"], rec["vorticity"], rec["dissipation"]
        for k in ("martingale", "compensator", "compensator_projected",
                  "energy_functional", "qv_predicted", "qv_realized", "state_l2"):
            got[f"{pid}:energy.{k}"] = e[k][-1]
        for k in ("martingale", "qv_predicted", "qv_realized"):
            got[f"{pid}:vorticity.{k}"] = v[k][-1]
        for k in ("sup_l1", "grad_norm", "min_holder_margin"):
            got[f"{pid}:vorticity.{k}"] = v[k]
        for ell, series in d["series"].items():
            got[f"{pid}:dissipation.{ell}"] = series[-1]
        written = replay(out / f"trajectory_{pid:06d}" / "manifest.json",
                         doc["diagnostics"], output_dir=tmp_path / f"replay_{pid}")
        with open(written["vorticity:default"]) as fh:
            last = list(csv.DictReader(fh))[-1]
        for k in ("w_integral", "hessian_enstrophy", "stretching", "noise_compensator",
                  "martingale"):
            got[f"{pid}:replay.vorticity.{k}"] = float(last[k])
        dr = json.loads(Path(written["dissipation:default"]).read_text())
        for ell, series in dr["series"].items():
            got[f"{pid}:replay.dissipation.{ell}"] = series[-1]
    assert got.keys() == PINNED.keys()
    for key, want in PINNED.items():
        assert got[key] == pytest.approx(want, rel=1e-9), key


def test_resume_recomputes_records_of_another_config(tmp_path):
    doc = base_config(tmp_path)
    doc["ensemble"]["paths"] = 2
    first = run_experiment(ExperimentConfig.parse(doc))
    doc["run"]["nu"] = 0.03
    doc["noise"]["amplitude"] = 0.2
    cfg = ExperimentConfig.parse(doc)
    second = run_experiment(cfg)
    fresh = [run_one_path(cfg, pid) for pid in range(2)]
    for pid in range(2):
        rec = json.loads((tmp_path / "out" / "paths" / f"path_{pid:06d}.json").read_text())
        assert rec["config_digest"] == cfg.results_digest()
        assert rec == json.loads(json.dumps(fresh[pid]))
    assert second["tests"] != first["tests"]

    # the output block, path count and workers do not enter the digest
    doc["output"]["write_csv"] = False
    doc["ensemble"]["workers"] = 2
    doc["ensemble"]["paths"] = 3
    assert ExperimentConfig.parse(doc).results_digest() == cfg.results_digest()


def test_bad_ledger_plans_fail_at_parse_time(tmp_path):
    doc = base_config(tmp_path)
    doc["diagnostics"] = {"dissipation": {"ell_values": [0.25, 0.125]}}
    with pytest.raises(ConfigurationError, match="test function"):
        ExperimentConfig.parse(doc)

    doc = base_config(tmp_path)
    doc["diagnostics"]["lei_xi"] = ["one", "golden"]
    with pytest.raises(ConfigurationError, match="lei_xi"):
        ExperimentConfig.parse(doc)

    doc = base_config(tmp_path)
    doc["output"]["save_snapshots"] = True
    doc["ensemble"]["paths"] = 1
    run_experiment(ExperimentConfig.parse(doc))
    manifest = tmp_path / "out" / "trajectory_000000" / "manifest.json"
    with pytest.raises(ConfigurationError, match="test function"):
        replay(manifest, {"dissipation": {"ell_values": [0.25, 0.125]}}, tmp_path / "r")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dissipation": {"ell_values": [0.25, 0.125]}}))
    res = CliRunner().invoke(cli_main, ["replay", str(manifest), str(spec)])
    assert res.exit_code == 2, res.output


def test_wide_test_function_fails_at_parse_time(tmp_path):
    # at M = 8 (K = 2) the ledgers are exact while 3K + exponent < 2M = 16
    doc = base_config(tmp_path)
    doc["diagnostics"]["test_functions"][0]["spatial"]["exponent"] = 9
    ExperimentConfig.parse(doc)
    doc["diagnostics"]["test_functions"][0]["spatial"]["exponent"] = 10
    with pytest.raises(ConfigurationError, match=r"'bump'.*3K \+ exponent = 16 >= 2M = 16"):
        ExperimentConfig.parse(doc)

    # a Nyquist-wide cutoff puts state on planes no finer grid can carry
    doc = base_config(tmp_path)
    doc["run"]["dealias_cutoff"] = 4
    with pytest.raises(ConfigurationError, match="dealias_cutoff < M/2"):
        ExperimentConfig.parse(doc)
    del doc["diagnostics"]
    ExperimentConfig.parse(doc)


def test_nyquist_noise_modes_fail_at_parse_time(tmp_path):
    # at M = 4 the built-in table modes from k = 11 on lie on a Nyquist plane
    doc = base_config(tmp_path)
    doc["run"]["m"] = 4
    doc["noise"]["max_k"] = 10
    ExperimentConfig.parse(doc)
    doc["noise"]["max_k"] = 11
    with pytest.raises(ConfigurationError, match=r"k=11 .*M=4"):
        ExperimentConfig.parse(doc)


def test_strided_snapshots_with_ledgers(tmp_path):
    csvs = {}
    for stride in (1, 2):
        doc = base_config(tmp_path / f"s{stride}")
        doc["output"].update(stride=stride, save_snapshots=True)
        doc["ensemble"]["paths"] = 1
        summary = run_experiment(ExperimentConfig.parse(doc))
        assert summary["paths_completed"] == 1
        out = Path(doc["output"]["directory"])
        csvs[stride] = (out / "paths" / "energy_bump_000000.csv").read_bytes()
    assert csvs[2] == csvs[1]
    manifest = tmp_path / "s2" / "out" / "trajectory_000000" / "manifest.json"
    assert json.loads(manifest.read_text())["stored_steps"] == [0, 2]
    with pytest.raises(ConfigurationError, match="stride-1"):
        replay(manifest, doc["diagnostics"], tmp_path / "r")


def test_initial_field_kinds(tmp_path):
    doc = base_config(tmp_path)
    doc["run"]["initial_condition"] = {"kind": "random_solenoidal", "seed": 3,
                                       "amplitude": 0.5, "smooth": 0.1}
    cfg = ExperimentConfig.parse(doc)
    u = initial_field(cfg)
    from lsns.spectral import divergence_residual

    assert divergence_residual(u) < 1e-12

    doc["run"]["initial_condition"] = {"kind": "blob"}
    with pytest.raises(ConfigurationError):
        initial_field(ExperimentConfig.parse(doc))


def test_cli_surface(tmp_path):
    runner = CliRunner()
    doc = base_config(tmp_path)
    doc["ensemble"]["paths"] = 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    res = runner.invoke(cli_main, ["run", str(cfg_path)])
    assert res.exit_code in (0, 1), res.output
    assert (tmp_path / "out" / "summary.json").exists()

    res = runner.invoke(cli_main, ["validate-noise", str(cfg_path)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["linear_growth"]["passed"]

    res = runner.invoke(cli_main, ["report", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output

    res = runner.invoke(cli_main, ["oracle-suite"])
    assert res.exit_code == 0, res.output
    assert "PASS spectral_core.forward_transform[M=8]" in res.output

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(cli_main, ["run", str(bad)])
    assert res.exit_code == 2

    bad2 = tmp_path / "bad2.json"
    doc_bad = base_config(tmp_path)
    doc_bad["run"]["dt"] = -1.0
    bad2.write_text(json.dumps(doc_bad))
    res = runner.invoke(cli_main, ["run", str(bad2)])
    assert res.exit_code == 2


def test_noise_coefficient_files(tmp_path):
    # per-k coefficient fields supplied as snapshot files
    from lsns.noise import single_mode_vector_field
    from lsns.persist import write_snapshot

    files = []
    for k, (mode, amp) in enumerate([((1, 0, 0), 0.2), ((0, 1, 0), 0.1)]):
        f = single_mode_vector_field(G8, mode, amp)
        path = tmp_path / f"sigma_{k}.lsns"
        write_snapshot(path, f, 0.0)
        files.append(str(path))
    doc = base_config(tmp_path)
    doc["run"]["epsilon"] = 1.0  # N = 2 fits the two stored fields
    doc["noise"] = {"kind": "additive", "coefficient_files": files}
    cfg = ExperimentConfig.parse(doc)
    model = cfg.noise_model()
    assert model.max_k == 2
    assert model.l2_norms() == pytest.approx([0.2, 0.1], rel=1e-12)
    rec = run_one_path(cfg, 0)
    assert not rec["blown_up"]

    # scalar files rejected for a vector family
    from lsns.spectral import ScalarField
    import numpy as np

    s = ScalarField(G8, np.zeros((8, 8, 8), dtype=complex))
    spath = tmp_path / "scalar.lsns"
    write_snapshot(spath, s, 0.0)
    doc["noise"] = {"kind": "additive", "coefficient_files": [str(spath)]}
    with pytest.raises(ConfigurationError):
        ExperimentConfig.parse(doc)

    # a field with content on a Nyquist plane (index M/2 = 4) is named
    c = single_mode_vector_field(G8, (1, 0, 0), 0.2).coeffs.copy()
    c[1, 4, 0, 0] = 0.05
    npath = tmp_path / "nyquist.lsns"
    write_snapshot(npath, SpectralField(G8, c), 0.0)
    doc["noise"] = {"kind": "additive", "coefficient_files": [files[0], str(npath)]}
    named = r"coefficient_files\[1\] \(.*nyquist\.lsns\).*Nyquist"
    with pytest.raises(ConfigurationError, match=named):
        ExperimentConfig.parse(doc)
