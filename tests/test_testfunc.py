import numpy as np
import pytest

from lsns.errors import ConfigurationError
from lsns.testfunc import (
    SpatialBump,
    TemporalWindow,
    TestFunction,
    chi,
    chi_prime,
    builtin_test_functions,
)


def test_chi_endpoints_and_range():
    assert chi(-1.0) == 0.0 and chi(0.0) == 0.0
    assert chi(1.0) == 1.0 and chi(2.0) == 1.0
    r = np.linspace(-0.5, 1.5, 201)
    v = chi(r)
    assert np.all(v >= 0) and np.all(v <= 1)
    assert np.all(np.diff(v) >= -1e-15)


def test_chi_prime_matches_finite_differences():
    h = 1e-6
    for r in [0.1, 0.3, 0.5, 0.7, 0.9]:
        fd = (chi(r + h) - chi(r - h)) / (2 * h)
        assert abs(chi_prime(r) - fd) <= 1e-7 * max(1.0, abs(fd))


def test_temporal_window_support_and_derivative():
    w = TemporalWindow(0.25, 0.75, 0.1)
    assert w.value(0.2) == 0.0 and w.value(0.8) == 0.0
    assert w.value(0.5) == 1.0
    h = 1e-6
    for t in [0.27, 0.3, 0.5, 0.7, 0.73]:
        fd = (w.value(t + h) - w.value(t - h)) / (2 * h)
        assert abs(w.derivative(t) - fd) <= 1e-6 * max(1.0, abs(fd)) + 1e-9

    with pytest.raises(ConfigurationError):
        TemporalWindow(0.5, 0.4, 0.05)
    with pytest.raises(ConfigurationError):
        TemporalWindow(0.0, 1.0, 0.6)


def test_temporal_integral_exactness():
    w = TemporalWindow(0.25, 0.75, 0.1)
    # integral over a flat region is the interval length
    assert w.integral(0.4, 0.5) == pytest.approx(0.1, abs=1e-14)
    # over a ramp, compare with a fine Riemann sum
    ts = np.linspace(0.26, 0.34, 20001)
    riemann = np.trapezoid([w.value(t) for t in ts], ts)
    assert w.integral(0.26, 0.34) == pytest.approx(riemann, rel=1e-7)


@pytest.mark.parametrize("dt", [1.0 / 512, 1.0 / 256])
@pytest.mark.parametrize("temporal", [TemporalWindow(0.0625, 0.1875, 0.03125), None])
def test_step_weights_equal_the_scalar_helpers(dt, temporal):
    # the table the ledgers build once per path has the bits of the one-step
    # helpers, on a grid running past the support on both sides
    phi = TestFunction(SpatialBump(exponent=2), temporal)
    n = 128
    times = np.arange(n + 1) * dt
    w1, w2, dth, theta = phi.step_weights(times)
    steps = list(zip(times[:-1], times[1:]))
    assert np.array_equal(w1, [phi.theta_integral(a, b) for a, b in steps])
    assert np.array_equal(w2, [phi.theta_integral(a, b, power=2) for a, b in steps])
    assert np.array_equal(dth, [phi.theta_increment(a, b) for a, b in steps])
    assert np.array_equal(theta, [phi.theta(t) for t in times])
    if temporal is not None:  # outside the support every weight is exactly 0.0
        outside = (times[1:] <= temporal.a) | (times[:-1] >= temporal.b)
        assert outside.any() and not outside.all()
        assert not np.any(w1[outside]) and not np.any(w2[outside])
        assert not np.any(dth[outside])
    else:
        assert np.all(theta == 1.0) and not np.any(dth)


def test_spatial_bump_nonnegative_and_derivatives():
    for m in [1, 2, 4]:
        bump = SpatialBump(center=(0.3, 0.5, 0.7), exponent=m)
        p = 16
        vals = bump.values(p)
        assert vals.min() >= 0.0
        # spectral derivative oracle on the sample grid
        import scipy.fft as sfft

        n1 = np.fft.fftfreq(p, d=1.0 / p)
        nx, ny, nz = np.meshgrid(n1, n1, n1, indexing="ij")
        f_hat = sfft.fftn(vals)
        for i, ni in enumerate([nx, ny, nz]):
            d = sfft.ifftn(2j * np.pi * ni * f_hat).real
            assert np.max(np.abs(d - bump.grad(p)[i])) <= 1e-10 * np.max(np.abs(d) + 1e-30)
        lap = sfft.ifftn(-(2 * np.pi) ** 2 * (nx**2 + ny**2 + nz**2) * f_hat).real
        assert np.max(np.abs(lap - bump.laplacian(p))) <= 1e-10 * np.max(np.abs(lap))


def test_test_function_composition():
    phi = TestFunction(SpatialBump(exponent=2), TemporalWindow(0.25, 0.75, 0.1))
    assert phi.theta(0.1) == 0.0
    assert phi.support == (0.25, 0.75)
    assert phi.spatial_bandwidth == 2
    const = TestFunction()
    assert const.theta(0.3) == 1.0 and const.theta_dot(0.3) == 0.0
    assert np.all(const.spatial_values(8) == 1.0)
    assert const.theta_integral(0.1, 0.3) == pytest.approx(0.2)


def test_library_shapes():
    lib = builtin_test_functions(1.0)
    assert len(lib) == 6
    for phi in lib.values():
        assert phi.support == (0.25, 0.75)
        assert phi.theta(0.5) >= 0.0
