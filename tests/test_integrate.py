import numpy as np
import pytest

from lsns.errors import BlowUpError, ConfigurationError
from lsns.integrate import (
    Hooks,
    RunParams,
    Trajectory,
    Workspace,
    drift_and_pressure,
    fractional_sobolev_norm,
    initial_condition,
    integrate,
    noise_term_path,
)
from lsns.mollifier import mollify, radial_multiplier
from lsns.noise import make_noise_model
from lsns.oracles import convolution_oracle
from lsns.rng import BrownianIncrements
from lsns.spectral import (
    Grid,
    SpectralField,
    divergence_residual,
    forward_transform,
    l2_norm,
    leray_project,
    scatter,
    synthesize,
)
from lsns.stepview import views_from_trajectory

from helpers import random_solenoidal, taylor_green

G8 = Grid(8)
G16 = Grid(16)


def params(grid=G8, **kw):
    base = dict(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=0.25, grid=grid,
                seed=1234, path_id=0)
    base.update(kw)
    return RunParams(**base)


def zero_field(grid):
    return SpectralField(grid, np.zeros((3, grid.m, grid.m, grid.m), dtype=complex))


def test_run_params_validation():
    with pytest.raises(ConfigurationError):
        params(dt=-1.0)
    with pytest.raises(ConfigurationError):
        params(dt=0.5, t_end=0.25)
    with pytest.raises(ConfigurationError):
        params(dt=0.3, t_end=1.0)  # not an integer number of steps
    with pytest.raises(ConfigurationError):
        params(scheme="milstein")
    with pytest.warns(UserWarning):
        params(grid=G16, scheme="em_explicit", nu=1.0, dt=1.0 / 64)


def test_brownian_increments_reproducible_and_independent():
    incs = BrownianIncrements(seed=42, path_id=3, dt=0.01)
    a = incs.step_increments(7, 5)
    b = incs.step_increments(7, 5)
    assert np.array_equal(a, b)
    assert incs.increment(2, 7) == a[1]
    other = BrownianIncrements(seed=42, path_id=4, dt=0.01)
    assert not np.array_equal(a, other.step_increments(7, 5))
    # variance sanity over many keys
    draws = np.array([incs.increment(1, j) for j in range(4000)])
    assert abs(np.var(draws) - 0.01) < 0.001
    assert abs(np.mean(draws)) < 0.01


def test_initial_condition_cases():
    assert np.max(np.abs(initial_condition(zero_field(G8), 0.25).coeffs)) == 0.0
    u0 = random_solenoidal(G8, seed=4)
    near = initial_condition(u0, 1e-9)
    assert np.max(np.abs(near.coeffs - u0.coeffs)) <= 1e-10 * np.max(np.abs(u0.coeffs))
    # single mode scaled by the quadrature multiplier
    c = np.zeros((3, 8, 8, 8), dtype=complex)
    c[2, 1, 1, 0] = 0.5
    c[2, -1, -1, 0] = 0.5
    u0 = SpectralField(G8, c)
    out = initial_condition(u0, 0.25)
    fac = radial_multiplier("paper_bump", 0.25 * np.sqrt(2.0))
    assert abs(out.coeffs[2, 1, 1, 0] - 0.5 * fac) < 1e-13


def test_rest_state_stays_at_rest():
    p = params()
    traj = integrate(p, zero_field(G8), noise=None)
    assert all(np.max(np.abs(s.coeffs)) == 0.0 for s in traj.states)


def test_shear_mode_exact_viscous_decay():
    # u = (0, g(x1), 0) has vanishing self-advection: semi-implicit stepping
    # must reproduce the exact heat factor per mode.
    x = G16.points()
    samples = np.zeros((3, 16, 16, 16))
    samples[1] = np.sin(2 * np.pi * x[0]) + 0.3 * np.cos(2 * np.pi * 3 * x[0])
    u0 = forward_transform(G16, samples)
    p = params(grid=G16, nu=0.05, epsilon=1e-8, dt=1.0 / 32, t_end=1.0 / 32)
    traj = integrate(p, u0, noise=None)
    u1 = traj.states[-1]
    for mode, k2 in [((1, 0, 0), 1), ((3, 0, 0), 9)]:
        fac = np.exp(-4 * np.pi**2 * p.nu * k2 * p.dt)
        got = u1.coeffs[1][mode]
        want = fac * u0.coeffs[1][mode]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_additive_increment_summation_oracle():
    # nu = 0, nonlinearity disabled: u(T) - u(0) = sum_k P[psi*sigma_k] B_k(T)
    noise = make_noise_model(G8, "additive", amplitude=0.2, ratio=0.5, max_k=8)
    p = params(nu=0.0, epsilon=0.25, dt=1.0 / 32, t_end=0.25,
               scheme="em_explicit", hooks=Hooks(disable_nonlinearity=True))
    u0 = random_solenoidal(G8, seed=10)
    traj = integrate(p, u0, noise)
    ws = Workspace(p, noise)
    n = p.truncation.n
    projected = scatter(G8, ws.noise_modes("projected", u0, {}))
    total = np.zeros_like(u0.coeffs)
    for j in range(p.n_steps):
        db = traj.incs.step_increments(j, n)
        for g, b in zip(projected, db):
            total += g * b
    diff = traj.states[-1].coeffs - traj.states[0].coeffs
    assert np.max(np.abs(diff - total)) <= 1e-12 * max(np.max(np.abs(total)), 1e-30)


def test_t_zero_trajectory():
    p = params(t_end=0.0)
    traj = integrate(p, random_solenoidal(G8, seed=11), noise=None)
    assert len(traj.states) == 1 and traj.stored_steps == [0]
    assert next(views_from_trajectory(traj)).pressure is not None


def test_determinism_bit_identical():
    noise = make_noise_model(G8, "cosine", amplitude=0.2, max_k=8)
    p = params(dt=1.0 / 32)
    u0 = random_solenoidal(G8, seed=12)
    t1 = integrate(p, u0, noise)
    t2 = integrate(p, u0, noise)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.coeffs, b.coeffs)
    for a, b in zip(views_from_trajectory(t1), views_from_trajectory(t2)):
        assert np.array_equal(a.pressure.coeffs, b.pressure.coeffs)


def test_divergence_free_every_step_all_families():
    for kind in ["additive", "linear_multiplicative", "cosine"]:
        noise = make_noise_model(G8, kind, amplitude=0.3, max_k=8)
        p = params(dt=1.0 / 64, t_end=0.125)
        traj = integrate(p, taylor_green(G8, 0.5), noise)
        for s in traj.states:
            assert divergence_residual(s) <= 1e-12


def test_noise_off_energy_nonincreasing_semi_implicit():
    p = params(grid=G16, nu=0.02, dt=1.0 / 128, t_end=0.25)
    traj = integrate(p, taylor_green(G16), noise=None)
    norms = [l2_norm(s) for s in traj.states]
    assert all(b <= a * (1 + 1e-13) for a, b in zip(norms, norms[1:]))


def test_richardson_self_convergence_order_one():
    # noise off, Taylor-Green, dt vs dt/2 vs dt/4: empirical order >= 1
    u0 = taylor_green(G16)
    errs = []
    sols = {}
    for div in [1, 2, 4, 8]:
        p = params(grid=G16, nu=0.02, dt=1.0 / (64 * div), t_end=0.25,
                   stride=64 * div)
        sols[div] = integrate(p, u0, noise=None).states[-1]
    for a, b in [(1, 2), (2, 4), (4, 8)]:
        errs.append(l2_norm(sols[a] - sols[b]))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 0.9 and order2 >= 0.9


def test_blowup_carries_step_and_partial():
    p = params(grid=G8, nu=0.0, dt=1.0 / 8, t_end=1.0, scheme="em_explicit",
               energy_cap=1.5)
    noise = make_noise_model(G8, "additive", amplitude=200.0, ratio=0.9, max_k=8)
    with pytest.raises(BlowUpError) as exc:
        integrate(p, zero_field(G8), noise)
    err = exc.value
    assert isinstance(err.partial, Trajectory)
    assert err.step >= 0
    assert all(v.pressure is not None for v in views_from_trajectory(err.partial))


def test_noise_term_path_zero_noise_and_start():
    # explicit scheme: the reconstruction telescopes exactly; tolerance
    # covers only floating-point regrouping
    p = params(dt=1.0 / 32, scheme="em_explicit")
    traj = integrate(p, taylor_green(G8, 0.5), noise=None)
    series = noise_term_path(traj)
    assert np.max(np.abs(series[0].coeffs)) == 0.0
    worst = max(np.max(np.abs(s.coeffs)) for s in series)
    assert worst <= 1e-10 * np.max(np.abs(traj.states[0].coeffs))

    # semi-implicit: zero to one-step quadrature accumulation, O(dt)
    p2 = params(dt=1.0 / 64)
    traj2 = integrate(p2, taylor_green(G8, 0.5), noise=None)
    series2 = noise_term_path(traj2)
    worst2 = max(np.max(np.abs(s.coeffs)) for s in series2)
    assert worst2 <= 10 * p2.dt * np.max(np.abs(traj2.states[0].coeffs))


def test_noise_term_path_matches_increments_exactly_for_linear_hook():
    noise = make_noise_model(G8, "additive", amplitude=0.3, ratio=0.6, max_k=8)
    p = params(nu=0.0, epsilon=0.25, dt=1.0 / 32, t_end=0.25, scheme="em_explicit",
               hooks=Hooks(disable_nonlinearity=True))
    traj = integrate(p, random_solenoidal(G8, seed=14), noise)
    series = noise_term_path(traj)
    ws = Workspace(p, noise)
    projected = scatter(G8, ws.noise_modes("projected", traj.states[0], {}))
    acc = np.zeros_like(traj.states[0].coeffs)
    for j in range(p.n_steps):
        db = traj.incs.step_increments(j, p.truncation.n)
        for g, b in zip(projected, db):
            acc += g * b
        got = series[j + 1].coeffs
        assert np.max(np.abs(got - acc)) <= 1e-12 * max(np.max(np.abs(acc)), 1e-30)


def test_noise_term_requires_stride_one():
    p = params(stride=2)
    traj = integrate(p, taylor_green(G8, 0.5), noise=None)
    with pytest.raises(ConfigurationError):
        noise_term_path(traj)


def test_fractional_sobolev_norm_closed_forms():
    u = random_solenoidal(G8, seed=15)
    dt = 0.1
    const = [u, u, u, u]
    alpha, r = 0.25, 2.0
    got = fractional_sobolev_norm(const, alpha, r, dt)
    assert got == pytest.approx(4 * dt * l2_norm(u) ** 2, rel=1e-12)

    two = [u, 2.0 * u]
    got = fractional_sobolev_norm(two, alpha, r, dt)
    n2 = l2_norm(u) ** 2
    expect = dt * (n2 + 4 * n2) + 2 * dt * dt * n2 / dt ** (1 + alpha * r)
    assert got == pytest.approx(expect, rel=1e-12)

    with pytest.raises(ConfigurationError):
        fractional_sobolev_norm(two, 0.7, 2.0, dt)
    with pytest.raises(ConfigurationError):
        fractional_sobolev_norm(two, 0.25, 1.0, dt)


def test_fractional_sobolev_brownian_bound():
    # Brownian-driven paths: E ||N||_W^{alpha,2}^2 bounded by a fitted constant
    # times E int sum_k ||psi*sigma_k(u)||^2 ds  (finiteness + stability check)
    noise = make_noise_model(G8, "additive", amplitude=0.3, ratio=0.5, max_k=8)
    p = params(nu=0.02, dt=1.0 / 64, t_end=0.25)
    ratios = []
    for pid in range(6):
        pp = params(nu=0.02, dt=1.0 / 64, t_end=0.25, path_id=pid)
        traj = integrate(pp, taylor_green(G8, 0.5), noise)
        series = noise_term_path(traj)
        wnorm = fractional_sobolev_norm(series, alpha=0.25, r=2.0, dt=pp.dt)
        ws = Workspace(pp, noise)
        projected = scatter(G8, ws.noise_modes("projected", traj.states[0], {}))
        rhs = p.dt * sum(
            sum(l2_norm(SpectralField(G8, g)) ** 2 for g in projected)
            for _ in range(pp.n_steps)
        )
        assert np.isfinite(wnorm)
        ratios.append(wnorm / rhs)
    assert max(ratios) < 50.0  # loose constant: the bound holds with margin


def test_noise_term_ensemble_zero_mean_on_probe_modes():
    # across >= 256 paths the ensemble mean of the reconstructed noise term
    # vanishes; checked per vector component on the active probe modes
    noise = make_noise_model(G8, "additive", amplitude=0.3, ratio=0.6, max_k=6)
    p0 = params(nu=0.02, dt=1.0 / 64, t_end=0.25)
    probes = [(0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1)),
              (0, (1, 1, 0)), (1, (0, 1, 1)), (2, (1, 0, 1))]
    vals = {pr: [] for pr in probes}
    for pid in range(256):
        p = params(nu=0.02, dt=1.0 / 64, t_end=0.25, path_id=pid)
        traj = integrate(p, taylor_green(G8, 0.6), noise)
        nt = noise_term_path(traj)[-1]
        for comp, mode in probes:
            vals[(comp, mode)].append(nt.coeffs[comp][mode])
    for pr, series in vals.items():
        arr = np.array(series)
        for part in (arr.real, arr.imag):
            stderr = part.std(ddof=1) / np.sqrt(len(part))
            if stderr > 0:
                assert abs(part.mean()) <= 4 * stderr, pr


def test_drift_and_pressure_match_convolution_oracle():
    # the drift the EM step runs, against brute-force convolutions of
    # v = psi_eps * u with u: drift = -2 pi i (n.T + n p), p = -(n.T.n)/|n|^2
    g = G8
    u = random_solenoidal(g, seed=81)
    ws = Workspace(params(), None)
    v = mollify(u, ws.mol)
    t = np.array([[convolution_oracle(v.coeffs[i], u.coeffs[j], g.dealias_cutoff)
                   for j in range(3)] for i in range(3)])
    n = g.wavenumbers
    k2 = g.k2.copy()
    k2[0, 0, 0] = 1.0
    nt = np.einsum("ixyz,ijxyz->jxyz", n, t)
    p_want = -np.einsum("jxyz,jxyz->xyz", nt, n) / k2
    p_want[0, 0, 0] = 0.0
    drift_want = -2j * np.pi * (nt + n * p_want)

    assert np.max(np.abs(drift_want)) > 0.0
    drift, p = drift_and_pressure(u, ws)
    assert np.max(np.abs(drift - drift_want)) <= 1e-12 * np.max(np.abs(drift_want))
    assert np.max(np.abs(p.coeffs - p_want)) <= 1e-12 * np.max(np.abs(p_want))
    # Hermitian: both are spectra of real fields
    m3 = g.m ** 3
    for c in (drift, p.coeffs):
        phys = np.fft.ifftn(c * m3, axes=(-3, -2, -1))
        assert np.max(np.abs(phys.imag)) <= 1e-14 * np.max(np.abs(phys.real))
    # nothing outside the dealias cut
    assert not drift[:, ~g.dealias_mask].any()
    assert not p.coeffs[~g.dealias_mask].any()


@pytest.mark.parametrize("grid", [G8, G16], ids=["M8", "M16"])
@pytest.mark.parametrize("kind", ["linear_multiplicative", "cosine"])
def test_state_dependent_increment_matches_full_layout(kind, grid):
    # the increment summed and projected on the retained modes, against the
    # full-layout expression P[sum_k Q(psi_eps * sigma_k(u)) dB_k]
    noise = make_noise_model(grid, kind, amplitude=0.3, max_k=8)
    ws = Workspace(params(grid=grid), noise)
    u = random_solenoidal(grid, seed=91, amp=0.8)
    db = BrownianIncrements(5, 0, 1.0 / 64).step_increments(3, ws.n_noise)
    acc = np.zeros_like(u.coeffs)
    sigma = noise.sample(range(1, ws.n_noise + 1), grid.m, synthesize(u, grid.m))
    for s, b in zip(sigma, db):
        acc += mollify(forward_transform(grid, s), ws.mol).coeffs * grid.dealias_mask * b
    want = leray_project(SpectralField(grid, acc)).coeffs

    got = ws.noise_increment(u, db, {})
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    phys = np.fft.ifftn(got * grid.m ** 3, axes=(-3, -2, -1))
    assert np.max(np.abs(phys.imag)) <= 1e-14
    assert not got[:, ~grid.dealias_mask].any()


@pytest.mark.parametrize("kind", ["additive", "linear_multiplicative", "cosine"])
def test_em_step_makes_no_blas_call(kind, monkeypatch):
    # a BLAS call starts BLAS threads, which contend with the ensemble's
    # worker processes: the step runs on FFTs and elementwise work only
    noise = make_noise_model(G8, kind, amplitude=0.3, max_k=8)
    p = params(t_end=2.0 / 64)
    u0 = random_solenoidal(G8, seed=93)

    def blas(*args, **kwargs):
        raise AssertionError("BLAS call in the EM step")

    for name in ("dot", "vdot", "tensordot", "matmul", "inner"):
        monkeypatch.setattr(np, name, blas)
    assert integrate(p, u0, noise).stored_steps == [0, 1, 2]
