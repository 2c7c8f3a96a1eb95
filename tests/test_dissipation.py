import numpy as np
import pytest
import scipy.fft

from lsns.dissipation import (
    DRConfig,
    DRKernel,
    DRLedger,
    DRPairing,
    commutator_identity_check,
    dissipation_submartingale_test,
    dr_integrand,
    dr_oracle_agreement,
)
from lsns.energy import EnergyLedger, Event
from lsns.errors import ConfigurationError
from lsns.integrate import RunParams, Workspace
from lsns.noise import make_noise_model
from lsns.spectral import Grid, SpectralField, forward_transform, synthesize
from lsns.stepview import StepView, drive, iter_views
from lsns.testfunc import SpatialBump, TemporalWindow, TestFunction

from helpers import random_solenoidal, taylor_green

G16 = Grid(16)
G8 = Grid(8)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DRConfig(ell_values=(1.0 / 8, 1.0 / 4))  # increasing
    with pytest.raises(ConfigurationError):
        DRConfig(ell_values=(0.3,))  # kernel support too large
    with pytest.raises(ConfigurationError):
        DRConfig(ell_values=())
    cfg = DRConfig(ell_values=(1.0 / 4, 1.0 / 16))
    with pytest.raises(ConfigurationError):
        cfg.validate_resolution(G8)  # 1/16 < 1/M for M = 8
    DRConfig().validate_resolution(Grid(32))  # the default ladder resolves on M=32


def test_constant_and_zero_fields_give_zero():
    c = np.zeros((3, 16, 16, 16), dtype=complex)
    c[1, 0, 0, 0] = 0.7
    const = SpectralField(G16, c)
    d = dr_integrand(const, 1.0 / 8)
    assert np.max(np.abs(d.coeffs)) < 1e-15
    zero = SpectralField(G16, np.zeros_like(c))
    assert np.max(np.abs(dr_integrand(zero, 1.0 / 8).coeffs)) == 0.0
    assert commutator_identity_check(zero, 1.0 / 8) == 0.0


def test_single_shear_mode_identity_tight():
    x = G16.points()
    samples = np.zeros((3, 16, 16, 16))
    samples[1] = np.sin(2 * np.pi * x[0])
    u = forward_transform(G16, samples)
    assert commutator_identity_check(u, 1.0 / 8) <= 1e-12


def test_commutator_identity_random_fields():
    for seed in range(60, 66):
        u = random_solenoidal(G16, seed=seed, amp=1.0)
        for ell in [1.0 / 4, 1.0 / 8, 1.0 / 16]:
            assert commutator_identity_check(u, ell) <= 1e-10


def test_identity_kind_independent():
    u = random_solenoidal(G16, seed=70, amp=1.0)
    assert commutator_identity_check(u, 1.0 / 8, kind="gaussian") <= 1e-10


def test_ell_out_of_range():
    u = random_solenoidal(G16, seed=71)
    with pytest.raises(ConfigurationError):
        dr_integrand(u, 1.0 / 64)
    with pytest.raises(ConfigurationError):
        dr_integrand(u, 0.3)


def test_displacement_oracle_converges_to_fourier_route():
    u = random_solenoidal(G16, seed=72, amp=1.0)
    coarse = dr_oracle_agreement(u, 1.0 / 8, resolution=24)
    fine = dr_oracle_agreement(u, 1.0 / 8, resolution=40)
    assert coarse <= 2e-3
    assert fine <= 1e-4
    assert fine < coarse


def test_displacement_oracle_gaussian_kind():
    # gaussian kernel, small ell so the 3-sigma box stays inside the cell
    u = random_solenoidal(G16, seed=73, amp=1.0, smooth=0.05)
    agr = dr_oracle_agreement(u, 1.0 / 8, kind="gaussian", resolution=32)
    assert agr <= 5e-3


def make_ledgers(p, u0, noise, phi, cfg):
    el = EnergyLedger(phi)
    dl = DRLedger(phi, cfg)
    drive(iter_views(p, u0, noise), [el, dl])
    return el, dl


def test_ledgers_tabulate_temporal_weights_once_per_path(monkeypatch):
    # the energy and DR ledgers read their temporal weights from one table per
    # path: no per-step quadrature
    calls = {"integral": 0, "integrals": 0}

    def counted(name, f):
        def wrapper(*args, **kw):
            calls[name] += 1
            return f(*args, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(TemporalWindow, name, counted(name, getattr(TemporalWindow, name)))
    t_end = 0.125
    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=t_end, grid=G8, seed=5)
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    noise = make_noise_model(G8, "additive", amplitude=0.2, max_k=6)
    el, dl = make_ledgers(p, taylor_green(G8, 0.5), noise, phi,
                          DRConfig(ell_values=(1.0 / 4, 1.0 / 8)))
    assert el.compensator[-1] > 0.0 and dl.series[0.25][-1] != 0.0  # both were active
    assert calls == {"integral": 0, "integrals": 2}


def test_dr_ledger_smooth_field_cauchy_trend():
    # noise off, smooth decaying solution: D^l -> 0 with l, and consecutive
    # Cauchy differences shrink
    t_end = 0.25
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    cfg = DRConfig(ell_values=(1.0 / 4, 1.0 / 8, 1.0 / 16))
    p = RunParams(nu=0.05, epsilon=0.25, dt=1.0 / 64, t_end=t_end, grid=G16, seed=5)
    el, dl = make_ledgers(p, taylor_green(G16, 0.8), None, phi, cfg)
    finals = [abs(dl.series[v][-1]) for v in cfg.ell_values]
    assert finals[-1] < finals[0]  # smaller l, smaller dissipation pairing
    cauchy = dl.cauchy_differences()
    assert cauchy[-1] < cauchy[0]
    # frozen constant field: all series identically zero
    c = np.zeros((3, 16, 16, 16), dtype=complex)
    c[0, 0, 0, 0] = 0.4
    el2, dl2 = make_ledgers(p, SpectralField(G16, c), None, phi, cfg)
    for v in cfg.ell_values:
        assert np.max(np.abs(dl2.series[v])) == 0.0


def test_submartingale_monte_carlo():
    t_end = 0.25
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    cfg = DRConfig(ell_values=(1.0 / 8, 1.0 / 16))
    noise = make_noise_model(G16, "additive", amplitude=0.3, max_k=10)
    ledgers = []
    for pid in range(24):
        p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 128, t_end=t_end,
                      grid=G16, seed=6, path_id=pid)
        _, dl = make_ledgers(p, taylor_green(G16, 0.8), noise, phi, cfg)
        ledgers.append(dl)
    events = [Event("all"), Event("low_energy", at=0.125),
              Event("high_energy", at=0.125)]
    rep = dissipation_submartingale_test(ledgers, 1.0 / 16, s=0.125, t=0.25,
                                         events=events)
    assert rep.passed
    rep0 = dissipation_submartingale_test(ledgers, 1.0 / 16, s=0.125, t=0.125,
                                          events=[Event("all")])
    assert rep0.statistics[0].statistic == 0.0
    with pytest.raises(ConfigurationError):
        dissipation_submartingale_test(ledgers[:1], 1.0 / 16, 0.125, 0.25,
                                       [Event("all")])


def test_noise_off_submartingale_near_zero():
    t_end = 0.25
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    cfg = DRConfig(ell_values=(1.0 / 8,))
    p = RunParams(nu=0.05, epsilon=0.25, dt=1.0 / 128, t_end=t_end, grid=G16, seed=7)
    _, dl = make_ledgers(p, taylor_green(G16, 0.6), None, phi, cfg)
    rep = dissipation_submartingale_test([dl, dl], 1.0 / 8, s=0.125, t=0.25,
                                         events=[Event("all")])
    # smooth deterministic run: the D increment is tiny, either sign
    assert abs(rep.statistics[0].mean) <= 1e-4


# ---------------------------------------------------------------------------
# the ledger's Parseval pairing against the pointwise kernel

LADDER = (1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 8)  # resolved on M = 8 and 16
DT = 1.0 / 64


def _state(grid, field):
    if field == "random":
        return random_solenoidal(grid, seed=74, amp=1.0)
    # Taylor-Green after 8 steps: D^l of the vortex itself integrates to 0
    p = RunParams(nu=0.02, epsilon=0.25, dt=DT, t_end=8 * DT, grid=grid, seed=8)
    return list(iter_views(p, taylor_green(grid, 0.8), None))[-1].u


def _phi(exponent):
    return TestFunction(SpatialBump(exponent=exponent) if exponent else None)


def _pointwise(u, phi, ell):
    """0.25 mean(s 4 D^l) on the 2M grid, from the pointwise terms."""
    kernel, mult = DRKernel.of(u, ell, "paper_bump")
    return 0.25 * float(np.mean(sum(kernel.terms(mult)) * phi.spatial_values(kernel.p)))


def _begun(u, phi, ladder):
    """A DR ledger begun on a frozen state u, and two views of u one step apart."""
    ws = Workspace(RunParams(nu=0.02, epsilon=0.25, dt=DT, t_end=DT, grid=u.grid, seed=0),
                   None)
    led = DRLedger(phi, DRConfig(ell_values=ladder))
    v0 = StepView(ws, u, 0)
    led.begin(v0)
    return led, v0, StepView(ws, u, 1)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("field", ["taylor_green", "random"])
@pytest.mark.parametrize("exponent", [0, 1, 2])
def test_parseval_ledger_matches_pointwise_kernel(m, field, exponent):
    u, phi = _state(Grid(m), field), _phi(exponent)
    led, v0, v1 = _begun(u, phi, LADDER)
    led.advance(v0, v1)
    assert led._pairing.p == min(2 * m, 2 * ((3 * Grid(m).dealias_cutoff + exponent) // 2 + 1))
    for ell in LADDER:
        ref = _pointwise(u, phi, ell)
        assert ref != 0.0
        assert abs(led.series[ell][1] / DT - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("m, exponent", [(8, 2), (16, 1), (16, 2)])
def test_parseval_pairing_below_exact_grid_misses(m, exponent):
    # negative control: on the even grid below P > 3K + bw the pairings alias
    u, phi = _state(Grid(m), "random"), _phi(exponent)
    p = _begun(u, phi, LADDER)[0]._pairing.p - 2
    assert p >= m
    pairing = DRPairing(phi.spatial_values(p))
    u_phys = synthesize(u, p)
    g = pairing.weight(u_phys, np.sum(u_phys * u_phys, axis=0))
    for ell in LADDER:
        ref = _pointwise(u, phi, ell)
        coarse = 0.25 * float(np.sum(pairing.multiplier("paper_bump", ell) * g))
        assert abs(coarse - ref) > 1e-3 * abs(ref)


def test_ell_ladder_adds_no_transform(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        fn = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name,
                            lambda *a, _f=fn, _n=name, **k: calls.append(_n) or _f(*a, **k))
    u, phi = _state(G16, "random"), _phi(2)
    counts = []
    for ladder in (LADDER[:2], LADDER):
        led, v0, v1 = _begun(u, phi, ladder)
        calls.clear()
        led.advance(v0, v1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
