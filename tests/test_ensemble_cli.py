import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lsns.cli import main as cli_main
from lsns.config import ExperimentConfig, canonical_json, initial_field
from lsns.ensemble import replay, report, run_experiment, run_one_path
from lsns.errors import ConfigurationError
from lsns.integrate import RunParams, integrate
from lsns.noise import make_noise_model
from lsns.persist import (
    load_trajectory,
    read_snapshot,
    save_trajectory,
    write_snapshot,
)
from lsns.spectral import Grid, ScalarField

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


def test_replay_reproduces_inline_csvs(tmp_path):
    doc = base_config(tmp_path)
    doc["output"]["save_snapshots"] = True
    doc["ensemble"]["paths"] = 1
    cfg = ExperimentConfig.parse(doc)
    run_experiment(cfg)
    out = Path(doc["output"]["directory"])
    inline_csv = out / "paths" / "energy_bump_000000.csv"
    manifest = out / "trajectory_000000" / "manifest.json"
    written = replay(manifest, doc["diagnostics"], output_dir=tmp_path / "replayed")
    replay_csv = Path(written["energy:bump"])
    assert inline_csv.read_bytes() == replay_csv.read_bytes()

    # replay with a new test function produces a new ledger, old untouched
    before = inline_csv.read_bytes()
    new_diag = json.loads(json.dumps(doc["diagnostics"]))
    new_diag["test_functions"].append(
        {"name": "wide", "spatial": {"exponent": 1},
         "temporal": {"a": 0.03125, "b": 0.09375, "ramp": 0.015625}}
    )
    written2 = replay(manifest, new_diag, output_dir=tmp_path / "replayed2")
    assert "energy:wide" in written2
    assert inline_csv.read_bytes() == before


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
