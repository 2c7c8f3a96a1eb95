import numpy as np
import pytest

from lsns.energy import (
    EnergyLedger,
    Event,
    lei_scalar_check,
    supermartingale_test,
)
from lsns.errors import ConfigurationError
from lsns.integrate import Hooks, RunParams, integrate
from lsns.noise import MODE_TABLE, make_noise_model
from lsns.spectral import Grid, SpectralField, synthesize
from lsns.stepview import drive, iter_views, views_from_trajectory
from lsns.testfunc import SpatialBump, TemporalWindow, TestFunction
from lsns.vorticity import HFunction, VorticityLedger

from helpers import random_solenoidal, taylor_green

G8 = Grid(8)
G16 = Grid(16)


def params(grid=G8, **kw):
    base = dict(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=0.25, grid=grid,
                seed=99, path_id=0)
    base.update(kw)
    return RunParams(**base)


def window(t_end=0.25):
    return TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8)


def run_ledger(p, u0, noise, phi):
    led = EnergyLedger(phi)
    drive(iter_views(p, u0, noise), [led])
    return led


def test_zero_path_all_zero():
    phi = TestFunction(SpatialBump(exponent=2), window())
    zero = SpectralField(G8, np.zeros((3, 8, 8, 8), dtype=complex))
    led = run_ledger(params(), zero, None, phi)
    for name in ["local_energy", "enstrophy", "transport", "flux",
                 "compensator", "martingale"]:
        assert np.max(np.abs(np.asarray(getattr(led, name)))) == 0.0


def test_constant_phi_reduces_to_global_energy_balance():
    # phi == 1: grad/lap terms vanish and the ledger is the global balance
    # d ||u||^2 = -2 nu ||grad u||^2 dt, closed by the residual
    phi = TestFunction()  # constant 1 in space and time
    p = params(grid=G16, dt=1.0 / 128, t_end=0.25)
    led = run_ledger(p, taylor_green(G16), None, phi)
    assert np.max(np.abs(np.asarray(led.transport))) == 0.0
    assert np.max(np.abs(np.asarray(led.flux))) < 1e-13
    # energy falls, enstrophy accumulates, residual small (order dt)
    assert led.local_energy[-1] < led.local_energy[0]
    assert led.enstrophy[-1] > 0
    assert abs(led.martingale[-1]) <= 20 * p.dt * led.local_energy[0]


def test_before_support_everything_zero():
    phi = TestFunction(SpatialBump(exponent=2), window())
    p = params(dt=1.0 / 64)
    noise = make_noise_model(G8, "additive", amplitude=0.2, max_k=8)
    led = run_ledger(p, taylor_green(G8, 0.5), noise, phi)
    # accumulators vanish identically while t <= a = T/4
    a = phi.support[0]
    for i, t in enumerate(led.time):
        if t <= a + 1e-12:
            assert led.martingale[i] == 0.0
            assert led.compensator[i] == 0.0
            assert led.local_energy[i] == 0.0


@pytest.mark.parametrize("exponent", [2, 4])
def test_spatial_integrals_match_refined_riemann_oracle(exponent):
    # each per-step spatial integral compared against a Riemann sum on a
    # 3x refined grid (exact for band-limited integrands)
    phi = TestFunction(SpatialBump(exponent=exponent), window(0.125))
    p = params(dt=1.0 / 32, t_end=0.125)
    noise = make_noise_model(G8, "additive", amplitude=0.3, max_k=6)
    u0 = random_solenoidal(G8, seed=5, amp=0.7)

    views = list(iter_views(p, u0, noise))
    v = views[2]  # inside the temporal window, theta(t_2) > 0
    pr = 3 * G8.m
    s = phi.spatial_values(pr)
    grad_s = phi.spatial_grad(pr)
    lap_s = phi.spatial_laplacian(pr)
    u_r = synthesize(v.u, pr)
    usq_r = np.sum(u_r**2, axis=0)

    led = EnergyLedger(phi)
    led.begin(views[0])
    for a, b in zip(views, views[1:]):
        led.advance(a, b)
    # the quadratic terms on the smallest exact grid: P > 2K + exponent
    assert led._pq == {2: 8, 4: 10}[exponent]

    # local energy at t_2
    assert phi.theta(v.t) > 0
    oracle = phi.theta(v.t) * np.mean(usq_r * s)
    assert led.local_energy[2] == pytest.approx(oracle, rel=1e-6, abs=1e-15)

    # flux increment over the step from t_2 (left endpoint, exact theta weight)
    from lsns.mollifier import make_mollifier, mollify

    mol = make_mollifier(G8, p.epsilon)
    v_r = synthesize(mollify(v.u, mol), pr)
    p_r = synthesize(v.pressure, pr)
    w1 = phi.theta_integral(v.t, views[3].t)
    flux_inc = w1 * (
        np.mean(usq_r * np.einsum("ixyz,ixyz->xyz", v_r, grad_s))
        + 2.0 * np.mean(p_r * np.einsum("ixyz,ixyz->xyz", u_r, grad_s))
    )
    assert led.flux[3] - led.flux[2] == pytest.approx(flux_inc, rel=1e-6, abs=1e-18)

    # transport increment
    trans_inc = (
        phi.theta_increment(v.t, views[3].t) * np.mean(usq_r * s)
        + p.nu * w1 * np.mean(usq_r * lap_s)
    )
    assert led.transport[3] - led.transport[2] == pytest.approx(trans_inc, rel=1e-6, abs=1e-18)


@pytest.mark.parametrize("ledger", ["energy", "vorticity"])
@pytest.mark.parametrize("noise_kind", ["additive", "linear_multiplicative", "cosine"])
def test_replay_views_reproduce_inline_bitwise(noise_kind, ledger):
    # a stored stride-1 trajectory driven through drive() gives every series
    # of the inline ledger bit for bit
    phi = TestFunction(SpatialBump(exponent=2), window())
    p = params(dt=1.0 / 32, t_end=0.125)
    noise = make_noise_model(G8, noise_kind, amplitude=0.2, max_k=6)
    u0 = taylor_green(G8, 0.5)
    make = (lambda: EnergyLedger(phi)) if ledger == "energy" else \
        (lambda: VorticityLedger(HFunction(0.5)))
    inline = drive(iter_views(p, u0, noise), [make()])[0]
    replay = drive(views_from_trajectory(integrate(p, u0, noise)), [make()])[0]
    assert inline.columns.keys() == replay.columns.keys()
    for name, series in inline.columns.items():
        assert series == replay.columns[name], name
    assert list(inline.rows()) == list(replay.rows())


@pytest.mark.parametrize("noise_kind", ["additive", "linear_multiplicative"])
def test_inline_path_evaluates_noise_and_drift_once_per_state(noise_kind, monkeypatch):
    # the step leaves the pressure and sigma_k(u) in its state's cache, so the
    # ledger's view of that state evaluates neither again; state-free noise
    # is evaluated once per path
    import lsns.integrate
    from lsns.noise import NoiseModel

    calls = {"eval_all": 0, "drift_and_pressure": 0}

    def counted(name, f):
        def wrapper(*args, **kw):
            calls[name] += 1
            return f(*args, **kw)
        return wrapper

    monkeypatch.setattr(NoiseModel, "eval_all", counted("eval_all", NoiseModel.eval_all))
    monkeypatch.setattr(lsns.integrate, "drift_and_pressure",
                        counted("drift_and_pressure", lsns.integrate.drift_and_pressure))
    p = params(dt=1.0 / 32, t_end=0.125)
    noise = make_noise_model(G8, noise_kind, amplitude=0.2, max_k=6)
    led = run_ledger(p, taylor_green(G8, 0.5), noise,
                     TestFunction(SpatialBump(exponent=2), window(0.125)))
    assert led.compensator[-1] > 0.0 and led.flux[-1] != 0.0  # both were read
    assert calls["drift_and_pressure"] == p.n_steps
    assert calls["eval_all"] == (1 if noise_kind == "additive" else p.n_steps)


def test_noise_off_residual_first_order_in_dt():
    phi = TestFunction(SpatialBump(exponent=2), window(0.5))
    sups = []
    for div in [1, 2, 4]:
        p = params(grid=G16, dt=1.0 / (64 * div), t_end=0.5)
        led = run_ledger(p, taylor_green(G16), None, phi)
        sups.append(np.max(np.abs(np.asarray(led.martingale))))
    assert np.log2(sups[0] / sups[1]) >= 0.9
    assert np.log2(sups[1] / sups[2]) >= 0.9


def test_frozen_drift_exact_ito_oracle():
    # drift disabled, nu = 0, constant-in-time phi: the residual equals the
    # Ito sum plus its exactly computable quadratic correction
    phi = TestFunction(SpatialBump(exponent=2), None)
    p = params(nu=0.0, dt=1.0 / 64, t_end=0.25, scheme="em_explicit",
               hooks=Hooks(disable_nonlinearity=True))
    noise = make_noise_model(G8, "additive", amplitude=0.25, max_k=6)
    u0 = random_solenoidal(G8, seed=12, amp=0.6)
    traj = integrate(p, u0, noise)
    led = EnergyLedger(phi)
    drive(views_from_trajectory(traj), [led])

    from lsns.integrate import Workspace

    ws = Workspace(p, noise)
    pr = 2 * G8.m
    s = phi.spatial_values(pr)
    g_phys = synthesize(ws.noise_modes("projected", u0, {}), pr, G8)
    g_unproj = synthesize(ws.noise_modes("injected", u0, {}), pr, G8)
    ito = 0.0
    for j in range(p.n_steps):
        u_phys = synthesize(traj.states[j], pr)
        db = traj.incs.step_increments(j, p.truncation.n)
        eta = sum(g * b for g, b in zip(g_phys, db))
        ito += 2.0 * np.mean(np.sum(u_phys * eta, axis=0) * s)
        ito += np.mean(np.sum(eta * eta, axis=0) * s)
        ito -= p.dt * sum(np.mean(np.sum(g * g, axis=0) * s) for g in g_unproj)
        got = led.martingale[j + 1]
        assert got == pytest.approx(ito, rel=1e-9, abs=1e-14)


def test_qv_estimate_zero_noise_and_frozen_slope():
    phi = TestFunction(SpatialBump(exponent=2), window())
    p = params(dt=1.0 / 64)
    led = run_ledger(p, taylor_green(G8, 0.5), None, phi)
    pred, real = led.qv_predicted, led.qv_realized
    assert np.max(pred) == 0.0
    # realized QV of the deterministic residual: O(dt^3) quadrature junk
    assert np.max(real) <= 1e-8

    # phi == 0
    zero_phi = TestFunction(SpatialBump(exponent=2),
                            TemporalWindow(0.26, 0.27, 0.005))
    p2 = params(dt=1.0 / 64, t_end=0.25)
    noise = make_noise_model(G8, "additive", amplitude=0.3, max_k=6)
    led2 = run_ledger(p2, taylor_green(G8, 0.5), noise, zero_phi)
    # support outside [0, T]: everything stays zero
    assert np.max(np.abs(led2.qv_predicted)) == 0.0


def test_qv_frozen_u_monte_carlo():
    # drift disabled: predicted QV slope is (nearly) constant and the
    # realized QV matches it across an ensemble
    phi = TestFunction(SpatialBump(exponent=2), None)
    noise = make_noise_model(G8, "additive", amplitude=0.05, max_k=6)
    u0 = random_solenoidal(G8, seed=21, amp=1.0)
    diffs, preds = [], []
    paths = 96
    for pid in range(paths):
        p = params(nu=0.0, dt=1.0 / 64, t_end=0.25, scheme="em_explicit",
                   hooks=Hooks(disable_nonlinearity=True), path_id=pid)
        led = run_ledger(p, u0, noise, phi)
        pred, real = led.qv_predicted, led.qv_realized
        diffs.append(real[-1] - pred[-1])
        preds.append(pred[-1])
    diffs = np.array(diffs)
    stderr = diffs.std(ddof=1) / np.sqrt(paths)
    assert abs(diffs.mean()) <= 4 * stderr
    # slope approximately linear in t: ends close to steps * mean increment
    assert np.mean(preds) > 0


def test_supermartingale_events_and_errors():
    phi = TestFunction(SpatialBump(exponent=2), window())
    # dt fine enough that the discretization bias sits inside the noise band
    noise = make_noise_model(G8, "additive", amplitude=0.4, max_k=6)
    ledgers = []
    for pid in range(32):
        p = params(dt=1.0 / 128, path_id=pid)
        ledgers.append(run_ledger(p, taylor_green(G8, 0.7), noise, phi))
    events = [Event("all"), Event("low_energy", at=0.125),
              Event("high_energy", at=0.125)]
    rep = supermartingale_test(ledgers, s=0.125, t=0.25, events=events)
    assert rep.passed
    assert all(st.statistic <= 3.0 for st in rep.statistics)

    with pytest.raises(ConfigurationError):
        supermartingale_test(ledgers, s=0.125, t=0.25,
                             events=[Event("low_energy", at=0.2)])
    with pytest.raises(ConfigurationError):
        supermartingale_test(ledgers[:1], 0.125, 0.25, [Event("all")])
    # t = s: statistic identically zero
    rep0 = supermartingale_test(ledgers, s=0.125, t=0.125, events=[Event("all")])
    assert rep0.statistics[0].statistic == 0.0


def test_supermartingale_noise_off_deterministic():
    # the regularized smooth system satisfies the energy balance with
    # equality, so the deterministic X_t - X_s must vanish (from whichever
    # sign) at first order in dt; nonpositive values pass outright
    phi = TestFunction(SpatialBump(exponent=2), window())
    means = []
    for div in [1, 2]:
        p = params(grid=G16, dt=1.0 / (256 * div), t_end=0.25)
        led = run_ledger(p, taylor_green(G16), None, phi)
        rep = supermartingale_test([led, led], s=0.125, t=0.25, events=[Event("all")])
        means.append(rep.statistics[0].mean)
    if means[0] > 0:
        assert means[1] <= max(0.7 * means[0], 1e-12)
    else:
        assert means[1] <= 1e-12


def test_lei_scalar_check_cases():
    phi = TestFunction(SpatialBump(exponent=2), window())
    noise = make_noise_model(G8, "additive", amplitude=0.25, max_k=6)
    ledgers = []
    for pid in range(16):
        p = params(dt=1.0 / 64, path_id=pid)
        ledgers.append(run_ledger(p, taylor_green(G8, 0.7), noise, phi))

    # N is defined as the residual, so the check is an identity: degenerate
    rep = lei_scalar_check(ledgers, xi=lambda led: 1.0)
    assert rep.passed is None and rep.reason.startswith("identity")
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    rep0 = lei_scalar_check(ledgers, xi=lambda led: 0.0)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0 and rep0.passed is None

    bounded = lambda led: 1.0 / (1.0 + max(led.state_l2) ** 2)
    assert lei_scalar_check(ledgers, xi=bounded).passed is None

    with pytest.raises(ConfigurationError):
        lei_scalar_check(ledgers, xi=lambda led: -1.0)


def test_zero_mean_multiplicative_and_cosine_families():
    # additive is exercised at full scale by the acceptance suite; the other
    # two built-in families are checked here at reduced scale (their
    # projection gap columns stay far below the martingale spread)
    phi = TestFunction(SpatialBump(exponent=2), window())
    for kind in ["linear_multiplicative", "cosine"]:
        noise = make_noise_model(G8, kind, amplitude=0.4, ratio=0.5, max_k=8)
        nts, gaps = [], []
        for pid in range(32):
            p = params(dt=1.0 / 128, path_id=pid)
            led = run_ledger(p, taylor_green(G8, 0.7), noise, phi)
            nts.append(led.martingale[-1])
            gaps.append(abs(led.compensator[-1] - led.compensator_projected[-1]))
        nts = np.array(nts)
        stderr = nts.std(ddof=1) / np.sqrt(len(nts))
        assert abs(nts.mean()) <= 4 * stderr, kind
        assert max(gaps) <= nts.std(ddof=1), kind


def test_unmollified_compensator_matches_refined_riemann_mean():
    # sum_k int_0^t int |sigma_k(u)|^2 s with sigma_k(u) = c_k u, against an
    # independent Riemann mean on the 4M grid: c_k in closed form, u
    # synthesized there (|c_k u|^2 s has per-axis degree 2(K + 2) + 2 < 2M,
    # so both grids are exact)
    amp, ratio, beta = 0.3, 0.5, 0.5
    noise = make_noise_model(G16, "linear_multiplicative", amplitude=amp, ratio=ratio,
                             max_k=8, flatness=beta)
    phi = TestFunction(SpatialBump(exponent=2), window(0.125))
    p = params(grid=G16, dt=1.0 / 64, t_end=0.125)
    traj = integrate(p, random_solenoidal(G16, seed=12, amp=0.7), noise)
    led = EnergyLedger(phi)
    drive(views_from_trajectory(traj), [led])

    pr = 4 * G16.m
    x = np.stack(np.meshgrid(*[np.arange(pr) / pr] * 3, indexing="ij"))
    c2 = 0.0
    for k in range(1, traj.workspace.n_noise + 1):
        n = np.array(MODE_TABLE[(k - 1) % len(MODE_TABLE)], dtype=float)
        c_k = amp * ratio**k * (1 + beta * np.cos(2 * np.pi * np.einsum("i,i...->...", n, x)))
        c2 = c2 + (c_k / (1 + beta)) ** 2
    weight = c2 * phi.spatial_values(pr)
    oracle = [0.0]
    for j, u in enumerate(traj.states[:-1]):
        usq = np.sum(synthesize(u, pr) ** 2, axis=0)
        w1 = phi.theta_integral(j * p.dt, (j + 1) * p.dt)
        oracle.append(oracle[-1] + w1 * float(np.mean(usq * weight)))
    assert oracle[-1] > 0
    np.testing.assert_allclose(led.compensator_unmollified, oracle, rtol=1e-12, atol=0)
