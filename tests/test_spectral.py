import numpy as np
import pytest

from lsns.errors import ConfigurationError, GridMismatchError
from lsns.oracles import convolution_oracle, dft_oracle
from lsns.spectral import (
    Grid,
    SpectralField,
    curl,
    dealias,
    divergence,
    divergence_residual,
    forward_transform,
    gradient,
    l2_norm,
    leray_project,
    mean_mode,
    nonlinear_term,
    solve_pressure,
    synthesize,
)

from helpers import (
    random_field,
    random_solenoidal,
    random_vector_samples,
    taylor_green,
)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(7)
    with pytest.raises(ConfigurationError):
        Grid(8, dealias_cutoff=5)
    g = Grid(16)
    assert g.dealias_cutoff == 5
    assert Grid(8).dealias_cutoff == 2
    assert Grid(32).dealias_cutoff == 10


def test_forward_constant_field():
    g = Grid(8)
    samples = np.zeros((3, 8, 8, 8))
    samples[0] = 1.0
    f = forward_transform(g, samples)
    assert np.allclose(mean_mode(f), [1.0, 0.0, 0.0])
    c = f.coeffs.copy()
    c[:, 0, 0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-15


def test_forward_single_cosine():
    g = Grid(8)
    x = g.points()
    samples = np.zeros((3, 8, 8, 8))
    samples[0] = np.cos(2 * np.pi * x[0])
    f = forward_transform(g, samples)
    assert abs(f.coeffs[0, 1, 0, 0] - 0.5) < 1e-14
    assert abs(f.coeffs[0, -1, 0, 0] - 0.5) < 1e-14
    zeroed = f.coeffs.copy()
    zeroed[0, 1, 0, 0] = zeroed[0, -1, 0, 0] = 0.0
    assert np.max(np.abs(zeroed)) < 1e-14


def test_forward_matches_direct_dft_oracle():
    g = Grid(8)
    samples = random_vector_samples(g, seed=701)
    f = forward_transform(g, samples)
    oracle = dft_oracle(samples)
    assert np.max(np.abs(f.coeffs - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("m", [8, 16, 32])
def test_round_trip_and_parseval(m):
    g = Grid(m)
    samples = random_vector_samples(g, seed=100 + m)
    f = forward_transform(g, samples)
    back = synthesize(f, m)
    assert np.max(np.abs(back - samples)) <= 1e-12 * np.max(np.abs(samples))
    phys = np.sum(samples**2) / m**3
    spec = np.sum(np.abs(f.coeffs) ** 2)
    assert abs(phys - spec) <= 1e-12 * phys


def test_dimension_mismatch_is_configuration_error():
    g = Grid(8)
    with pytest.raises(GridMismatchError):
        forward_transform(g, np.zeros((3, 4, 4, 4)))


def test_leray_annihilates_gradients():
    g = Grid(8)
    s = forward_transform(g, np.random.Generator(np.random.Philox(key=3)).standard_normal((8, 8, 8)))
    v = gradient(s)
    proj = leray_project(v)
    # the mean mode of a gradient is zero, so the whole projection vanishes
    assert np.max(np.abs(proj.coeffs)) <= 1e-13 * max(np.max(np.abs(v.coeffs)), 1.0)


def test_leray_idempotent_and_divergence_free():
    g = Grid(8)
    v = random_field(g, seed=11)
    p1 = leray_project(v)
    p2 = leray_project(p1)
    assert np.max(np.abs(p1.coeffs - p2.coeffs)) == 0.0
    assert divergence_residual(p1) <= 1e-12
    assert np.allclose(mean_mode(p1), mean_mode(v))
    already = random_solenoidal(g, seed=12)
    again = leray_project(already)
    assert np.max(np.abs(again.coeffs - already.coeffs)) <= 1e-13 * np.max(np.abs(already.coeffs))


def test_leray_matches_per_mode_matrix_oracle():
    g = Grid(8)
    v = random_field(g, seed=13)
    proj = leray_project(v)
    n = g.wavenumbers
    out = np.empty_like(v.coeffs)
    for ix in np.ndindex(8, 8, 8):
        nv = np.array([n[0][ix], n[1][ix], n[2][ix]])
        k2 = nv @ nv
        mat = np.eye(3) if k2 == 0 else np.eye(3) - np.outer(nv, nv) / k2
        out[(slice(None),) + ix] = mat @ v.coeffs[(slice(None),) + ix]
    assert np.max(np.abs(out - proj.coeffs)) <= 1e-12 * np.max(np.abs(v.coeffs))


def test_pressure_zero_cases():
    g = Grid(8)
    const = np.zeros((3, 8, 8, 8))
    const[1] = 2.5
    u = forward_transform(g, const)
    assert np.max(np.abs(solve_pressure(u).coeffs)) < 1e-14
    zero = SpectralField(g, np.zeros((3, 8, 8, 8), dtype=complex))
    assert np.max(np.abs(solve_pressure(zero).coeffs)) < 1e-15


def test_pressure_single_mode_oracle():
    # shear flow: T = u (x) u depends on y only through T_00, and n^T T n
    # vanishes for n along the y axis, so the pressure is exactly zero
    g = Grid(16)
    x = g.points()
    samples = np.zeros((3, 16, 16, 16))
    samples[0] = np.sin(2 * np.pi * x[1])
    u = forward_transform(g, samples)
    p = solve_pressure(u)
    assert np.max(np.abs(p.coeffs)) < 1e-14

    # Taylor-Green field: explicit mode-arithmetic oracle
    u = taylor_green(g)
    p = solve_pressure(u)
    from lsns.spectral import advection_tensor, laplacian

    t_hat = advection_tensor(u, u)
    n = g.wavenumbers
    lhs = laplacian(p).coeffs
    rhs = (2 * np.pi * 1j) ** 2 * np.einsum("ixyz,ijxyz,jxyz->xyz", n, t_hat, n)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs + rhs)) <= 1e-11 * scale  # Delta p = -div div T
    # explicit per-mode oracle
    k2 = g.k2.copy()
    k2[0, 0, 0] = 1.0
    oracle = -np.einsum("ixyz,ijxyz,jxyz->xyz", n, t_hat, n) / k2
    oracle[0, 0, 0] = 0.0
    assert np.max(np.abs(oracle - p.coeffs)) <= 1e-12 * max(np.max(np.abs(oracle)), 1e-30)
    assert p.coeffs[0, 0, 0] == 0.0


def test_nonlinear_zero_and_constant_advection():
    g = Grid(8)
    zero = SpectralField(g, np.zeros((3, 8, 8, 8), dtype=complex))
    v = random_solenoidal(g, seed=21)
    assert np.max(np.abs(nonlinear_term(zero, v).coeffs)) == 0.0

    # constant advecting velocity, single-mode u: pure transport 2 pi i (n.v) u_hat
    const = np.zeros((3, 8, 8, 8))
    const[0], const[1], const[2] = 0.3, -1.1, 0.7
    vconst = forward_transform(g, const)
    x = g.points()
    samples = np.zeros((3, 8, 8, 8))
    samples[2] = np.cos(2 * np.pi * (x[0] + x[1]))  # mode n = (1,1,0), u = e_z comp
    u = forward_transform(g, samples)
    out = nonlinear_term(u, vconst)
    nv = np.array([0.3, -1.1, 0.7])
    expected = u.coeffs * 0.0
    for nvec in [(1, 1, 0), (-1, -1, 0)]:
        fac = 2 * np.pi * 1j * (nv @ np.array(nvec))
        expected[2][nvec] = fac * u.coeffs[2][nvec]
    assert np.max(np.abs(out.coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_nonlinear_matches_convolution_oracle():
    g = Grid(8)
    u = random_solenoidal(g, seed=31)
    v = random_solenoidal(g, seed=32)
    from lsns.spectral import advection_tensor

    t_hat = advection_tensor(u, v)
    for i in range(3):
        for j in range(3):
            oracle = convolution_oracle(v.coeffs[i], u.coeffs[j], g.dealias_cutoff)
            assert np.max(np.abs(t_hat[i, j] - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_nonlinear_skew_symmetry():
    g = Grid(8)
    for seed in range(41, 44):
        u = random_solenoidal(g, seed=seed)
        v = random_solenoidal(g, seed=seed + 100)
        adv = nonlinear_term(u, v)
        inner = np.sum(np.conj(u.coeffs) * adv.coeffs).real
        scale = l2_norm(u) * l2_norm(adv)
        assert abs(inner) <= 1e-10 * max(scale, 1e-30)


def test_curl_cases():
    g = Grid(8)
    const = np.zeros((3, 8, 8, 8))
    const[0] = 1.0
    assert np.max(np.abs(curl(forward_transform(g, const)).coeffs)) < 1e-15

    x = g.points()
    samples = np.zeros((3, 8, 8, 8))
    samples[1] = np.sin(2 * np.pi * x[0])
    w = curl(forward_transform(g, samples))
    expected = np.zeros((3, 8, 8, 8))
    expected[2] = 2 * np.pi * np.cos(2 * np.pi * x[0])
    assert np.max(np.abs(synthesize(w, 8) - expected)) <= 1e-12 * 2 * np.pi

    u = random_field(g, seed=51)
    w = curl(u)
    dw = divergence(w)
    assert np.max(np.abs(dw.coeffs)) <= 1e-12 * max(np.max(np.abs(w.coeffs)), 1e-30)


def test_synthesize_refines_exactly():
    g = Grid(8)
    u = random_solenoidal(g, seed=61)
    fine = synthesize(u, 16)
    # exact trig interpolation: subsampling the fine grid returns the coarse one
    coarse = synthesize(u, 8)
    assert np.max(np.abs(fine[:, ::2, ::2, ::2] - coarse)) <= 1e-12 * np.max(np.abs(coarse))


def test_synthesize_refuses_nyquist_content():
    # a populated Nyquist plane has no exact real extension to a finer grid
    g = Grid(8)
    u = random_field(g, seed=81)
    assert np.any(u.coeffs[:, 4] != 0)
    with pytest.raises(ConfigurationError, match="Nyquist"):
        synthesize(u, 16)
    assert np.allclose(forward_transform(g, synthesize(u, 8)).coeffs, u.coeffs, rtol=0, atol=1e-14)  # native grid: no loss
    # round-off on a Nyquist plane, as an FFT of samples leaves, is dropped
    v = random_solenoidal(g, seed=82)
    w = v.coeffs.copy()
    w[:, 4, 1, 2] = 1e-18
    assert np.array_equal(synthesize(SpectralField(g, w), 16), synthesize(v, 16))


def test_native_synthesis_matches_the_complex_inverse_transform():
    # P = M is one c2r transform of the z half-spectrum: exact for Hermitian
    # spectra, populated Nyquist planes included
    import scipy.fft as sfft
    from lsns.integrate import RunParams, Workspace
    from lsns.noise import make_noise_model
    from lsns.spectral import grad_components, scatter

    def inverse(c, m):
        return sfft.ifftn(c * m**3, axes=(-3, -2, -1)).real

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    g = Grid(8)
    u = random_field(g, seed=81)
    assert np.any(u.coeffs[:, 4] != 0) and np.any(u.coeffs[..., 4] != 0)
    assert rel(synthesize(u, 8), inverse(u.coeffs, 8)) <= 1e-15

    g16 = Grid(16)
    v = random_solenoidal(g16, seed=83)
    grad = grad_components(v)
    got = synthesize(grad, 16, g16)
    assert got.shape == (3, 3, 16, 16, 16)
    assert rel(got, inverse(grad, 16)) <= 1e-15

    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=0.25, grid=g16, seed=1)
    ws = Workspace(p, make_noise_model(g16, "cosine", amplitude=0.3, max_k=8))
    stack = ws.noise_modes("projected", v, {})
    assert stack.shape == (ws.n_noise, 3, g16.modes.full.size)
    assert rel(synthesize(stack, 16, g16), inverse(scatter(g16, stack), 16)) <= 1e-15


def test_dealias_masks_high_modes():
    g = Grid(8)
    u = random_field(g, seed=71)
    d = dealias(u)
    assert np.max(np.abs(d.coeffs[:, ~g.dealias_mask])) == 0.0


def _mode_stacks(g):
    """Retained-mode stacks of each kind a StepView synthesizes: a vector
    field (3, R), its gradient (3, 3, R), a scalar pressure (R,) and a
    noise stack (N, 3, R)."""
    from lsns.integrate import RunParams, Workspace
    from lsns.noise import make_noise_model
    from lsns.spectral import TWO_PI, gather

    u = random_solenoidal(g, seed=91)
    um = gather(g, u.coeffs)
    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=0.25, grid=g, seed=1)
    ws = Workspace(p, make_noise_model(g, "cosine", amplitude=0.3, max_k=8))
    return {"vector": um, "gradient": TWO_PI * 1j * g.modes.n[:, None] * um[None],
            "pressure": gather(g, solve_pressure(u).coeffs),
            "noise": ws.noise_modes("curl", u, {})}


@pytest.mark.parametrize("m", [8, 16])
def test_mode_stacks_synthesize_bitwise_as_their_full_layout(m):
    # the retained modes go straight into the box kernel; their full layout
    # is cut to the larger box |n_i| < M/2, whose extra lines are zero
    import scipy.fft as sfft
    from lsns.spectral import scatter

    g = Grid(m)
    for kind, modes in _mode_stacks(g).items():
        full = scatter(g, modes)
        for p in (m + 2, 2 * m):
            got = synthesize(modes, p, g)
            assert got.shape == modes.shape[:-1] + (p, p, p), kind
            assert np.array_equal(got, synthesize(full, p, g)), (kind, p)
        # P = M: one irfftn of the scattered z half-spectrum per field
        lead = modes.shape[:-1]
        want = np.empty(lead + (m, m, m))
        for i in np.ndindex(lead[:-1]):
            want[i] = sfft.irfftn(full[i][..., :m // 2 + 1], s=(m, m, m), axes=(-3, -2, -1),
                                  norm="forward")
        assert np.array_equal(synthesize(modes, m, g), want), kind


def test_mode_stacks_with_nyquist_content_are_refused_on_finer_grids():
    # with K = M/2 the retained modes reach the Nyquist planes
    from lsns.spectral import gather

    g = Grid(8, dealias_cutoff=4)
    u = random_field(g, seed=81)
    modes = gather(g, u.coeffs)
    with pytest.raises(ConfigurationError, match="Nyquist"):
        synthesize(modes, 16, g)
    assert np.array_equal(synthesize(modes, 8, g), synthesize(u, 8))  # native grid: no loss
    # without it they synthesize as their full layout does
    v = SpectralField(g, random_solenoidal(Grid(8), seed=82).coeffs)
    assert np.array_equal(synthesize(gather(g, v.coeffs), 16, g), synthesize(v, 16))


def test_warm_gradient_synthesis_allocates_little_beyond_its_output():
    # the y and x passes run in buffers kept across calls and the z pass
    # writes into the output, so a warm (3, 3, R) synthesis on the 2M pad
    # allocates little besides its output
    import tracemalloc

    g = Grid(16)
    grad = _mode_stacks(g)["gradient"]
    synthesize(grad, 32, g)
    tracemalloc.start()
    try:
        out = synthesize(grad, 32, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes
