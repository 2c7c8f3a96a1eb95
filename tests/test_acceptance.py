"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.

Monte Carlo criteria drive the full ensemble pipeline (parallel workers,
path records, summary reduction); spectral/algebraic criteria call the
operations directly. Free knobs not pinned by a criterion (dt, horizons,
noise amplitudes, quadrature resolution) are fixed here, calibrated so the
stated statistical bars hold with margin.
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from lsns.config import ExperimentConfig
from lsns.dissipation import commutator_identity_check, dr_oracle_agreement
from lsns.energy import EnergyLedger
from lsns.ensemble import run_experiment
from lsns.integrate import RunParams, integrate
from lsns.noise import make_noise_model, validate_linear_growth, validate_tail_decay
from lsns.oracles import oracle_suite
from lsns.spectral import Grid, divergence_residual
from lsns.stepview import drive, iter_views
from lsns.testfunc import SpatialBump, TemporalWindow, TestFunction
from lsns.vorticity import HFunction, VorticityLedger, hessian_bounds_check

from helpers import random_solenoidal, taylor_green

G16 = Grid(16)


def announce(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_spectral_oracle_suite():
    t0 = time.perf_counter()
    results = oracle_suite("fast")
    elapsed = time.perf_counter() - t0
    spectral = [r for r in results if r.module == "spectral_core"]
    ok = all(r.passed for r in spectral) and elapsed < 60
    worst = max(r.error / r.tolerance for r in spectral)
    announce(1, ok, f"spectral oracles at M=8, worst err/tol = {worst:.2e}, {elapsed:.0f}s")
    assert ok
    for r in spectral:
        assert r.passed, (r.operation, r.error)


def test_criterion_02_divergence_free_1000_steps():
    t0 = time.perf_counter()
    worst = {}
    for kind in ["additive", "linear_multiplicative", "cosine"]:
        noise = make_noise_model(G16, kind, amplitude=0.3, ratio=0.5, max_k=8)
        p = RunParams(nu=0.02, epsilon=0.25, dt=1e-3, t_end=1.0, grid=G16,
                      seed=20260809, stride=1000)
        traj = integrate(p, taylor_green(G16, 0.8), noise)
        assert traj.stored_steps[-1] == 1000
        worst[kind] = max(divergence_residual(s) for s in traj.states)
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-12 for v in worst.values()) and elapsed < 300
    announce(2, ok, "divergence-free after 1000 steps (M=16): "
             + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_03_deterministic_lee_order():
    t0 = time.perf_counter()
    t_end = 0.5
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    sups, terminals = [], []
    for div in [1, 2, 4]:
        p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / (64 * div), t_end=t_end,
                      grid=G16, seed=1)
        led = EnergyLedger(phi)
        drive(iter_views(p, taylor_green(G16), None), [led])
        sups.append(float(np.max(np.abs(np.asarray(led.martingale)))))
        terminals.append(led.martingale[-1])
    pairwise = [float(np.log2(a / b)) for a, b in zip(sups, sups[1:])]
    # least-squares slope of log-residual vs log-dt over the three runs: the
    # standard empirical-order estimator (pairwise ratios wobble +-3% around
    # the true first-order rate)
    order = float(np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(sups), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = order >= 1.0 and elapsed < 600
    announce(3, ok, f"deterministic LEE residual: empirical order {order:.3f} "
             f"(pairwise {pairwise[0]:.2f}, {pairwise[1]:.2f}), "
             f"residual(T) = {terminals[-1]:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_04_commutator_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(300, 320):
        u = random_solenoidal(G16, seed=seed, amp=1.0)
        for ell in [1.0 / 4, 1.0 / 8, 1.0 / 16]:
            worst = max(worst, commutator_identity_check(u, ell))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120
    announce(4, ok, f"commutator identity on 20 random M=16 fields x 3 scales, "
             f"worst residual {worst:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_05_dr_displacement_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(400, 405):
        u = random_solenoidal(G16, seed=seed, amp=1.0)
        worst = max(worst, dr_oracle_agreement(u, 1.0 / 8, resolution=40))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 300
    announce(5, ok, f"Fourier vs displacement quadrature on 5 random fields, "
             f"worst {worst:.2e} (40^3 nodes), {elapsed:.0f}s")
    assert ok


def _ensemble_config(tmp_path, paths, seed, run_over=None, diag_over=None,
                     noise_over=None):
    doc = {
        "schema_version": 1,
        "run": {
            "nu": 0.02, "epsilon": 0.25, "dt": 1.0 / 512, "t_end": 0.25, "m": 16,
            "initial_condition": {"kind": "taylor_green", "amplitude": 1.0},
        },
        "noise": {"kind": "additive", "amplitude": 0.1, "ratio": 0.7, "max_k": 8},
        "diagnostics": {
            "test_functions": [
                {"name": "phi", "spatial": {"exponent": 1},
                 "temporal": {"a": 0.0625, "b": 0.1875, "ramp": 0.03125}},
            ],
        },
        "ensemble": {"paths": paths, "seed": seed, "workers": 2},
        "output": {"directory": str(tmp_path), "stride": 1,
                   "save_snapshots": False, "write_csv": False},
    }
    if run_over:
        doc["run"].update(run_over)
    if noise_over:
        doc["noise"].update(noise_over)
    if diag_over:
        doc["diagnostics"].update(diag_over)
    return ExperimentConfig.parse(doc)


def test_criterion_06_martingale_zero_mean_and_qv(tmp_path):
    t0 = time.perf_counter()
    cfg = _ensemble_config(tmp_path / "c6", paths=512, seed=2026)
    summary = run_experiment(cfg)
    block = summary["tests"]["energy:phi"]
    zn = block["terminal_martingale"]["z"]
    zq = block["qv_gap"]["z"]
    elapsed = time.perf_counter() - t0
    ok = (abs(zn) <= 4.0 and abs(zq) <= 4.0
          and summary["paths_completed"] == 512 and elapsed < 1800)
    announce(6, ok, f"512-path additive M=16: mean N_T z = {zn:+.2f}, "
             f"QV gap z = {zq:+.2f} (bars 4.0), {elapsed:.0f}s")
    assert ok


def test_criterion_07_and_08_supermartingale_and_lei(tmp_path):
    t0 = time.perf_counter()
    cfg = _ensemble_config(
        tmp_path / "c78", paths=256, seed=3026,
        run_over={"dt": 1.0 / 256,
                  "initial_condition": {"kind": "taylor_green", "amplitude": 0.7}},
        noise_over={"amplitude": 0.4, "ratio": 0.5},
        diag_over={
            "events": [{"kind": "all"}, {"kind": "low_energy", "at": 0.125},
                       {"kind": "high_energy", "at": 0.125}],
            "supermartingale": {"s": 0.125, "t": 0.25},
            "lei_xi": ["one", "inv_sup_energy"],
        },
    )
    summary = run_experiment(cfg)
    block = summary["tests"]["energy:phi"]
    stats = block["supermartingale"]["statistics"]
    sup_ok = block["supermartingale"]["passed"]
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{s['event']}:{s['statistic']:+.2f}" for s in stats)
    ok7 = sup_ok and summary["paths_completed"] == 256 and elapsed < 1200
    announce(7, ok7, f"supermartingale one-sided statistics ({detail}) <= +3, "
             f"256 paths, {elapsed:.0f}s")
    assert ok7

    lei = block["lei"]["outcomes"]
    ok8 = all(v["passed"] for v in lei.values())
    announce(8, ok8, "LEI scalar check, xi in {1, 1/(1+||u||^2_CL2)}: "
             + ", ".join(f"{k}: lhs-rhs within 3 stderr" for k in lei))
    assert ok8


def test_criterion_09_vorticity_transform_inequalities():
    t0 = time.perf_counter()
    mins = {}
    for delta in [0.1, 0.25, 0.5]:
        rep = hessian_bounds_check(HFunction(delta), samples=1_000_000,
                                   seed=90_000 + int(delta * 100))
        assert rep.passed
        mins[delta] = rep.min_lower_margin
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60 and all(m > 0 for m in mins.values())
    announce(9, ok, "10^6-sample Hessian/gradient/sandwich bounds, zero violations "
             f"(min lower margins {mins}), {elapsed:.0f}s")
    assert ok


def test_criterion_10_vorticity_ledger(tmp_path):
    t0 = time.perf_counter()
    # noise-off residual order under dt halving (least-squares estimate)
    sups = []
    for div in [1, 2, 4]:
        p = RunParams(nu=0.05, epsilon=0.25, dt=1.0 / (64 * div), t_end=0.25,
                      grid=G16, seed=4)
        led = VorticityLedger(HFunction(0.5))
        drive(iter_views(p, taylor_green(G16, 0.8), None), [led])
        sups.append(float(np.max(np.abs(np.asarray(led.martingale)))))
    order = float(np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(sups), 1)[0])

    # the energy test window (T/4, 3T/4), ramp T/8, of this shorter horizon
    t_end = 0.125
    cfg = _ensemble_config(
        tmp_path / "c10", paths=256, seed=4026,
        run_over={"t_end": t_end,
                  "initial_condition": {"kind": "taylor_green", "amplitude": 0.8}},
        noise_over={"amplitude": 0.4, "ratio": 0.5},
        diag_over={
            "test_functions": [
                {"name": "phi", "spatial": {"exponent": 1},
                 "temporal": {"a": t_end / 4, "b": 3 * t_end / 4, "ramp": t_end / 8}},
            ],
            "vorticity": {"delta": 0.5},
        },
    )
    summary = run_experiment(cfg)
    block = summary["tests"]["vorticity"]
    zn = block["terminal_martingale"]["z"]
    elapsed = time.perf_counter() - t0
    ok = (order >= 1.0 and abs(zn) <= 4.0 and block["holder_pass"]
          and block["norm_chain_pass"] and summary["paths_completed"] == 256
          and elapsed < 1800)
    announce(10, ok, f"vorticity identity: noise-off order {order:.2f}, ensemble z "
             f"= {zn:+.2f}, Hoelder margin >= {block['min_holder_margin']:.2e} "
             f"at every step, {elapsed:.0f}s")
    assert ok


def test_criterion_11_noise_validators():
    t0 = time.perf_counter()
    grid = Grid(16)
    model = make_noise_model(grid, "cosine", amplitude=1.0, ratio=0.5, max_k=16)
    samples = [random_solenoidal(grid, seed=1100 + i, amp=0.7) for i in range(12)]
    growth = validate_linear_growth(model, samples, n=16)
    tails = validate_tail_decay(model, samples, [1, 2, 4, 8])
    analytic_tail = [sum(4.0 ** (-k) for k in range(n + 1, 17)) + model.tail_beyond_max_k
                     for n in [1, 2, 4, 8]]
    tail_ok = all(e <= a * 1.05 + 1e-14 for e, a in zip(tails.empirical, analytic_tail))
    match_ok = all(abs(a - b) <= 0.05 * a for a, b in zip(tails.analytic, analytic_tail))
    elapsed = time.perf_counter() - t0
    ok = (growth.empirical <= 1.0 / 3.0 * 1.05 and growth.passed
          and tails.passed and tail_ok and match_ok and elapsed < 60)
    announce(11, ok, f"cosine family ||f_k|| = 2^-k: growth ratio "
             f"{growth.empirical:.4f} <= 1/3 + 5%, tail curve within 5% of "
             f"geometric tail, {elapsed:.0f}s")
    assert ok


def test_criterion_12_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    docs = []
    for tag in ["a", "b"]:
        cfg = _ensemble_config(
            tmp_path / tag, paths=3, seed=5026,
            run_over={"m": 8, "dt": 1.0 / 32, "t_end": 0.125,
                      "initial_condition": {"kind": "taylor_green", "amplitude": 0.6}},
            diag_over={
                "test_functions": [
                    {"name": "phi", "spatial": {"exponent": 2},
                     "temporal": {"a": 0.03125, "b": 0.09375, "ramp": 0.015625}},
                ],
                "vorticity": {"delta": 0.5},
            },
        )
        run_experiment(cfg)
        docs.append(tmp_path / tag)
    identical = True
    for pid in range(3):
        rec_a = (docs[0] / "paths" / f"path_{pid:06d}.json").read_bytes()
        rec_b = (docs[1] / "paths" / f"path_{pid:06d}.json").read_bytes()
        identical = identical and rec_a == rec_b
    sa = json.loads((docs[0] / "summary.json").read_text())
    sb = json.loads((docs[1] / "summary.json").read_text())
    identical = identical and (json.dumps(sa["tests"], sort_keys=True)
                               == json.dumps(sb["tests"], sort_keys=True))
    elapsed = time.perf_counter() - t0
    announce(12, identical, f"re-running the config reproduces every numeric "
             f"output bit-exactly (3 paths, all ledgers), {elapsed:.0f}s")
    assert identical
