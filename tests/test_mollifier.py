import numpy as np
import pytest
from scipy.integrate import quad

from lsns.errors import ConfigurationError, GridMismatchError
from lsns.mollifier import (
    _bump_radial,
    bump_mass,
    make_mollifier,
    mollify,
    multiplier_on_modes,
    radial_multiplier,
)
from lsns.spectral import Grid, l2_norm, mean_mode

from helpers import random_field, random_solenoidal


def test_kernel_is_in_the_admissible_class():
    # unit mass, values in [0, 1], support in the unit ball
    c = 1.0 / bump_mass()
    assert 0.0 < c * _bump_radial(0.0) <= 1.0
    assert _bump_radial(1.0) == 0.0
    mass, _ = quad(lambda r: 4 * np.pi * r * r * c * _bump_radial(r), 0, 1,
                   epsabs=1e-12, epsrel=1e-11)
    assert abs(mass - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["paper_bump", "gaussian"])
def test_multiplier_invariants(kind):
    g = Grid(16)
    for eps in [0.05, 0.25, 1.0]:
        m = make_mollifier(g, eps, kind)
        assert m.multiplier[0, 0, 0] == 1.0
        assert np.all(m.multiplier > 0.0)
        assert np.all(m.multiplier <= 1.0)
        # monotone nonincreasing along |n|
        k = np.sqrt(g.k2).ravel()
        v = m.multiplier.ravel()
        order = np.argsort(k)
        ks, vs = k[order], v[order]
        # group by radius, compare group maxima/minima along increasing radius
        prev = 1.0 + 1e-15
        for radius in np.unique(ks):
            sel = vs[ks == radius]
            assert np.max(sel) <= prev + 1e-12
            prev = np.min(sel)


def test_mean_mode_preserved_and_identity_limit():
    g = Grid(8)
    f = random_field(g, seed=5)
    for eps in [1e-6, 0.1, 0.3]:
        out = mollify(f, make_mollifier(g, eps, "paper_bump"))
        assert np.allclose(mean_mode(out), mean_mode(f), rtol=0, atol=1e-14)
    tiny = mollify(f, make_mollifier(g, 1e-8, "paper_bump"))
    assert np.max(np.abs(tiny.coeffs - f.coeffs)) <= 1e-10 * np.max(np.abs(f.coeffs))


def test_l2_contraction():
    g = Grid(16)
    f = random_solenoidal(g, seed=6)
    for kind in ["paper_bump", "gaussian"]:
        for eps in [0.1, 0.25]:
            out = mollify(f, make_mollifier(g, eps, kind))
            assert l2_norm(out) <= l2_norm(f) * (1 + 1e-14)


def test_bump_multiplier_matches_adaptive_quadrature_oracle():
    # eps = 0.25, n = (4,0,0): q = 1, inside the exact (main-lobe) region.
    # Oracle: direct 3-D quadrature of int psi_eps(x) e^{-2 pi i n.x} dx reduced
    # to the radial integral for the normalized bump.
    eps, n = 0.25, 4.0
    q = eps * n
    c = 1.0 / bump_mass()

    def integrand(r):
        return 4 * np.pi * r * c * _bump_radial(r) * np.sin(2 * np.pi * q * r) / (2 * np.pi * q)

    oracle, _ = quad(integrand, 0, 1, epsabs=1e-13, epsrel=1e-12, limit=300)
    g = Grid(16)
    m = make_mollifier(g, eps, "paper_bump")
    got = m.multiplier[4, 0, 0]
    assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_gaussian_flagged_profile():
    # gaussian multiplier is the closed-form transform; spot check q = 1
    assert abs(radial_multiplier("gaussian", 1.0) - np.exp(-0.5 * np.pi**2)) < 1e-14


def test_grid_mismatch_and_bad_args():
    g8, g16 = Grid(8), Grid(16)
    f = random_field(g8, seed=7)
    m = make_mollifier(g16, 0.1)
    with pytest.raises(GridMismatchError):
        mollify(f, m)
    with pytest.raises(ConfigurationError):
        make_mollifier(g8, -0.1)
    with pytest.raises(ConfigurationError):
        make_mollifier(g8, 0.1, kind="box")


def test_multiplier_on_modes_agrees_with_grid_array():
    g = Grid(8)
    m = make_mollifier(g, 0.25, "paper_bump")
    vals = multiplier_on_modes("paper_bump", 0.25, g.k2)
    assert np.max(np.abs(vals - m.multiplier)) < 1e-14
