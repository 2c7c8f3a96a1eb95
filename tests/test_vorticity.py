import numpy as np
import pytest

from lsns.errors import ConfigurationError
from lsns import stepview
from lsns.integrate import RunParams
from lsns.noise import make_noise_model
from lsns.spectral import Grid, SpectralField, curl, forward_transform, synthesize
from lsns.stepview import drive, iter_views
from lsns.vorticity import (
    BoundViolation,
    HFunction,
    VorticityLedger,
    _noise_rates,
    h_eval,
    hessian_bounds_check,
    ladder_trend_table,
    q_gradient_hessian,
    vorticity_bounds_report,
)

from helpers import random_solenoidal, taylor_green

G16 = Grid(16)
G8 = Grid(8)


def params(grid=G16, **kw):
    base = dict(nu=0.05, epsilon=0.25, dt=1.0 / 128, t_end=0.25, grid=grid, seed=3)
    base.update(kw)
    return RunParams(**base)


def run_vort(p, u0, noise, hf=HFunction(0.5)):
    led = VorticityLedger(hf)
    drive(iter_views(p, u0, noise), [led])
    return led


def test_h_eval_paper_values():
    hf = HFunction(0.5)
    h, hp, hpp = h_eval(hf, 1.0)
    assert h == pytest.approx(0.0, abs=1e-15)          # 1 - 1/(2*(1/2))
    assert hp == pytest.approx(0.25, abs=1e-15)        # 1/2 - 1/4
    with pytest.raises(ConfigurationError):
        h_eval(hf, 0.5)
    with pytest.raises(ConfigurationError):
        HFunction(0.0)
    with pytest.raises(ConfigurationError):
        HFunction(0.6)


def test_h_derivatives_match_finite_differences():
    for delta in [0.1, 0.3, 0.5]:
        hf = HFunction(delta)
        for r in [1.5, 4.0, 25.0]:
            h = 1e-5 * r
            fd1 = (hf.h(r + h) - hf.h(r - h)) / (2 * h)
            fd2 = (hf.h_prime(r + h) - hf.h_prime(r - h)) / (2 * h)
            assert abs(hf.h_prime(r) - fd1) <= 1e-7 * abs(fd1)
            assert abs(hf.h_second(r) - fd2) <= 1e-7 * abs(fd2)


def test_q_gradient_hessian_closed_forms():
    hf = HFunction(0.4)
    q0, g0, h0 = q_gradient_hessian(hf, np.zeros(3))
    assert np.allclose(g0, 0.0)
    assert np.allclose(h0, 2.0 * hf.h_prime(1.0) * np.eye(3))

    gen = np.random.Generator(np.random.Philox(key=5))
    for _ in range(50):
        y = gen.standard_normal(3) * 10 ** gen.uniform(-1, 2)
        eta = gen.standard_normal(3)
        q, grad, hess = q_gradient_hessian(hf, y)
        assert np.linalg.norm(grad) <= 1.0 + 1e-12
        # quadratic form equals the parallel/perpendicular decomposition
        alpha = 1.0 + y @ y
        ny = y / np.linalg.norm(y)
        eta_par = (eta @ ny) * ny
        eta_perp = eta - eta_par
        expect = (
            2.0 * hf.h_prime(alpha) * (eta_perp @ eta_perp)
            + (eta_par @ eta_par) * (2.0 * hf.h_prime(alpha)
                                     + 4.0 * (y @ y) * hf.h_second(alpha))
        )
        assert eta @ hess @ eta == pytest.approx(expect, rel=1e-10)


def test_hessian_bounds_monte_carlo():
    for delta in [0.1, 0.25, 0.5]:
        rep = hessian_bounds_check(HFunction(delta), samples=200_000, seed=77)
        assert rep.passed
        assert rep.min_lower_margin > 0.0
        assert rep.min_grad_margin >= 0.0
        assert rep.min_sandwich_margin >= -1e-14
    with pytest.raises(ConfigurationError):
        hessian_bounds_check(HFunction(0.5), samples=0)


def test_hessian_bounds_violation_witness():
    # negative control: a corrupted h' breaks the upper Hessian bound and the
    # checker must surface a witness
    class Corrupted(HFunction):
        def h_prime(self, r):
            return 2.0 / np.sqrt(r)

    with pytest.raises(BoundViolation) as exc:
        hessian_bounds_check(Corrupted(0.5), samples=10_000, seed=7)
    y, eta = exc.value.witness
    assert len(y) == 3 and len(eta) == 3


def test_zero_path_ledger():
    hf = HFunction(0.5)
    p = params(grid=G8, dt=1.0 / 32)
    zero = SpectralField(G8, np.zeros((3, 8, 8, 8), dtype=complex))
    led = run_vort(p, zero, None, hf)
    assert np.allclose(led.l1_norm, 0.0)
    assert np.allclose(led.w_integral, hf.h(1.0))
    assert np.max(np.abs(np.asarray(led.martingale))) == 0.0
    assert np.allclose(led.stretching, 0.0)
    assert all(led.norm_chain_ok)


def test_shear_mode_stretching_vanishes_and_first_order():
    x = G16.points()
    samples = np.zeros((3, 16, 16, 16))
    samples[1] = 0.8 * np.sin(2 * np.pi * x[0])
    shear = forward_transform(G16, samples)
    sups = []
    for div in [1, 2]:
        p = params(dt=1.0 / (64 * div))
        led = run_vort(p, shear, None)
        assert np.max(np.abs(np.asarray(led.stretching))) == 0.0
        sups.append(np.max(np.abs(np.asarray(led.martingale))))
    assert np.log2(sups[0] / sups[1]) >= 0.9


def test_taylor_green_identity_first_order():
    sups = []
    for div in [1, 2]:
        p = params(dt=1.0 / (64 * div))
        led = run_vort(p, taylor_green(G16, 0.8), None)
        sups.append(np.max(np.abs(np.asarray(led.martingale))))
        assert led.min_holder_margin() >= 0.0
        assert all(led.norm_chain_ok)
    assert np.log2(sups[0] / sups[1]) >= 0.9


def test_stochastic_residual_zero_mean():
    # low viscosity and short horizon keep the deterministic O(dt) band of
    # the residual well inside the martingale spread
    noise = make_noise_model(G16, "additive", amplitude=0.4, max_k=6)
    nts = []
    ledgers = []
    for pid in range(24):
        p = params(nu=0.02, dt=1.0 / 256, t_end=0.125, path_id=pid)
        led = run_vort(p, taylor_green(G16, 0.8), noise)
        ledgers.append(led)
        nts.append(led.martingale[-1])
    nts = np.array(nts)
    stderr = nts.std(ddof=1) / np.sqrt(len(nts))
    assert abs(nts.mean()) <= 4 * stderr

    rep = vorticity_bounds_report([led.payload() for led in ledgers])
    assert rep.holder_ok and rep.norm_chain_ok
    assert rep.mean_sup_l1 > 0


@pytest.mark.parametrize("field", ["taylor_green", "random"])
def test_vorticity_ledger_pad_convergence(monkeypatch, field):
    # the pointwise transforms of omega are not band-limited, so the 2M pad
    # is not exact: against 4M, the terminal series agree to 5e-4 relative
    # and the martingale to 3e-4 absolute (measured at M=16: up to 2.1e-4
    # relative in the surrogate and 1.1e-4 in the martingale on Taylor-Green,
    # below 1e-6 on this random field)
    noise = make_noise_model(G16, "additive", amplitude=0.4, ratio=0.5, max_k=8)
    p = params(nu=0.05, dt=1.0 / 64, t_end=0.25)
    u0 = taylor_green(G16, 0.8) if field == "taylor_green" else \
        random_solenoidal(G16, seed=7, amp=0.8)
    terminal = {}
    for factor in (2, 4):
        monkeypatch.setattr(stepview, "PAD_FACTOR", factor)
        led = run_vort(p, u0, noise)
        terminal[factor] = {k: v[-1] for k, v in led.columns.items()}
    fine = terminal[4]
    for name in ["l1_norm", "sqrt_moment", "w_integral", "hessian_enstrophy", "surrogate",
                 "stretching", "noise_compensator", "grad_norm", "qv_predicted"]:
        assert terminal[2][name] == pytest.approx(fine[name], rel=5e-4), name
    assert terminal[2]["martingale"] == pytest.approx(fine["martingale"], abs=3e-4)


def test_omega_from_velocity_gradient():
    # the antisymmetric part of the grad u samples against a synthesis of curl u
    view = next(iter_views(params(t_end=1.0 / 128), random_solenoidal(G16, seed=9), None))
    om = view.omega_phys(view.pad)
    ref = synthesize(curl(view.u), view.pad)
    assert np.max(np.abs(om - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_batched_noise_rates_match_per_k_loop():
    noise = make_noise_model(G16, "linear_multiplicative", amplitude=0.4, ratio=0.7, max_k=8)
    view = next(iter_views(params(t_end=1.0 / 128), random_solenoidal(G16, seed=10), noise))
    hf, p = HFunction(0.5), view.pad
    om = view.omega_phys(p)
    alpha = 1.0 + np.sum(om * om, axis=0)
    hp, hpp = hf.h_prime(alpha), hf.h_second(alpha)
    gradq = 2.0 * om * hp[None]
    rho = view.noise_phys("curl", p)
    assert len(rho) == 5
    comp, qv = 0.0, 0.0
    for r in rho:
        rdot = np.sum(r * om, axis=0)
        comp += 0.5 * float(np.mean(2.0 * hp * np.sum(r * r, axis=0) + 4.0 * hpp * rdot**2))
        qv += float(np.mean(np.sum(r * gradq, axis=0))) ** 2
    batched = _noise_rates(rho, om, gradq, hp, hpp)
    assert batched == pytest.approx((comp, qv), rel=1e-13)


def test_mixed_epsilon_rejected():
    p1 = params(grid=G8, dt=1.0 / 32, t_end=0.125, epsilon=0.25)
    p2 = params(grid=G8, dt=1.0 / 32, t_end=0.125, epsilon=0.125)
    l1 = run_vort(p1, taylor_green(G8, 0.6), None)
    l2 = run_vort(p2, taylor_green(G8, 0.6), None)
    with pytest.raises(ConfigurationError):
        vorticity_bounds_report([l1.payload(), l2.payload()])


def test_ladder_trend_table():
    reports = []
    for eps in [1.0 / 4, 1.0 / 8, 1.0 / 16]:
        p = params(grid=G8, dt=1.0 / 64, t_end=0.125, epsilon=eps)
        noise = make_noise_model(G8, "additive", amplitude=0.2, max_k=20)
        ledgers = [run_vort(params(grid=G8, dt=1.0 / 64, t_end=0.125,
                                   epsilon=eps, path_id=pid),
                            taylor_green(G8, 0.6), noise) for pid in range(4)]
        reports.append((eps, vorticity_bounds_report([led.payload() for led in ledgers])))
    rows, ok = ladder_trend_table(reports)
    assert len(rows) == 3
    assert ok  # no monotone blow-up across the ladder

