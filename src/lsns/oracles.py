"""Registered brute-force oracle comparisons, runnable as one suite.

Every [derived-value] oracle used by the test suite is registered here with
the module and operation it guards, the random seed it uses, and its
tolerance, so a fresh checkout can be smoke-checked from the command line.
``fast`` runs everything at M = 8; ``full`` adds the M = 16 variants.

The suite also contains a deliberate negative control: re-running the
nonlinear-term comparison with dealiasing corrupted through the mutation
hook must FAIL, proving the oracle has teeth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .integrate import Hooks, RunParams, Workspace, integrate
from .mollifier import bump_mass, radial_multiplier
from .noise import make_noise_model
from .spectral import (
    Grid,
    advection_tensor,
    forward_transform,
    leray_project,
    random_solenoidal,
    scatter,
    solve_pressure,
)

_MUTATION_HOOKS: dict = {"corrupt_dealiasing": False}


@dataclass
class OracleResult:
    module: str
    operation: str
    seed: int
    error: float
    tolerance: float
    passed: bool
    seconds: float


def dft_oracle(samples: np.ndarray) -> np.ndarray:
    """Direct O(M^6) DFT sum, the brute-force oracle for forward_transform."""
    m = samples.shape[-1]
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    x1 = np.arange(m) / m
    w = np.exp(-2j * np.pi * np.outer(n1, x1))  # w[n, j] = e^{-2 pi i n x_j}
    return np.einsum("ax,by,cz,...xyz->...abc", w, w, w, samples) / m**3


def _oracle_forward_dft(m: int, seed: int) -> float:
    grid = Grid(m)
    gen = np.random.Generator(np.random.Philox(key=seed))
    samples = gen.standard_normal((3, m, m, m))
    f = forward_transform(grid, samples)
    oracle = dft_oracle(samples)
    return float(np.max(np.abs(f.coeffs - oracle)) / np.max(np.abs(oracle)))


def _oracle_leray_matrix(m: int, seed: int) -> float:
    grid = Grid(m)
    gen = np.random.Generator(np.random.Philox(key=seed))
    v = forward_transform(grid, gen.standard_normal((3, m, m, m)))
    proj = leray_project(v)
    n = grid.wavenumbers
    out = np.empty_like(v.coeffs)
    for ix in np.ndindex(m, m, m):
        nv = np.array([n[0][ix], n[1][ix], n[2][ix]])
        k2 = nv @ nv
        mat = np.eye(3) if k2 == 0 else np.eye(3) - np.outer(nv, nv) / k2
        out[(slice(None),) + ix] = mat @ v.coeffs[(slice(None),) + ix]
    return float(np.max(np.abs(out - proj.coeffs)) / np.max(np.abs(v.coeffs)))


def _oracle_pressure(m: int, seed: int) -> float:
    grid = Grid(m)
    u = random_solenoidal(grid, seed)
    p = solve_pressure(u)
    t_hat = advection_tensor(u, u)
    n = grid.wavenumbers
    k2 = grid.k2.copy()
    k2[0, 0, 0] = 1.0
    oracle = -np.einsum("ixyz,ijxyz,jxyz->xyz", n, t_hat, n) / k2
    oracle[0, 0, 0] = 0.0
    scale = max(np.max(np.abs(oracle)), 1e-30)
    err = float(np.max(np.abs(oracle - p.coeffs)) / scale)
    # spectral residual of Delta p = -div div T
    from .spectral import laplacian

    lhs = laplacian(p).coeffs
    rhs = (2 * np.pi * 1j) ** 2 * np.einsum("ixyz,ijxyz,jxyz->xyz", n, t_hat, n)
    err = max(err, float(np.max(np.abs(lhs + rhs)) / max(np.max(np.abs(rhs)), 1e-30)))
    return err


def convolution_oracle(a_hat: np.ndarray, b_hat: np.ndarray, cutoff: int) -> np.ndarray:
    """Exact convolution of two M-grid spectra restricted to |n_i| <= cutoff.

    A sum outside the grid's wavenumbers (possible when cutoff >= M/2) is
    dropped, not wrapped."""
    m = a_hat.shape[-1]
    n1 = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    out = np.zeros_like(a_hat)
    idx = {int(n): i for i, n in enumerate(n1)}
    for na in np.ndindex(m, m, m):
        va = a_hat[na]
        if va == 0.0:
            continue
        pa = (n1[na[0]], n1[na[1]], n1[na[2]])
        for nb in np.ndindex(m, m, m):
            vb = b_hat[nb]
            if vb == 0.0:
                continue
            s = (pa[0] + n1[nb[0]], pa[1] + n1[nb[1]], pa[2] + n1[nb[2]])
            if max(abs(s[0]), abs(s[1]), abs(s[2])) <= cutoff and all(v in idx for v in s):
                out[idx[s[0]], idx[s[1]], idx[s[2]]] += va * vb
    return out


def _oracle_nonlinear_convolution(m: int, seed: int) -> float:
    if _MUTATION_HOOKS["corrupt_dealiasing"]:
        # negative control: a cutoff beyond the 2/3 rule lets the physical
        # product alias into retained modes, so the comparison must fail
        grid = Grid(m, dealias_cutoff=m // 2)
    else:
        grid = Grid(m)
    u = random_solenoidal(grid, seed)
    v = random_solenoidal(grid, seed + 1)
    t_hat = advection_tensor(u, v)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            oracle = convolution_oracle(v.coeffs[i], u.coeffs[j], grid.dealias_cutoff)
            scale = max(np.max(np.abs(oracle)), 1e-30)
            worst = max(worst, float(np.max(np.abs(t_hat[i, j] * grid.dealias_mask - oracle)) / scale))
    return worst


def _oracle_mollifier_quadrature(m: int, seed: int) -> float:
    from scipy.integrate import quad

    eps, n_mode = 0.25, 4.0
    q = eps * n_mode
    c = 1.0 / bump_mass()

    def bump(r):
        return np.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0

    oracle, _ = quad(
        lambda r: 4 * np.pi * r * c * bump(r) * np.sin(2 * np.pi * q * r) / (2 * np.pi * q),
        0, 1, epsabs=1e-13, epsrel=1e-12, limit=300,
    )
    got = radial_multiplier("paper_bump", q)
    return float(abs(got - oracle) / abs(oracle))


def _oracle_increment_summation(m: int, seed: int) -> float:
    grid = Grid(m)
    noise = make_noise_model(grid, "additive", amplitude=0.2, ratio=0.5, max_k=8)
    p = RunParams(nu=0.0, epsilon=0.25, dt=1.0 / 32, t_end=0.25, grid=grid,
                  seed=seed, scheme="em_explicit",
                  hooks=Hooks(disable_nonlinearity=True))
    u0 = random_solenoidal(grid, seed)
    traj = integrate(p, u0, noise)
    ws = Workspace(p, noise)
    total = np.zeros_like(u0.coeffs)
    projected = scatter(grid, ws.noise_modes("projected", u0, {}))
    for j in range(p.n_steps):
        db = traj.incs.step_increments(j, p.truncation.n)
        for g, b in zip(projected, db):
            total += g * b
    diff = traj.states[-1].coeffs - traj.states[0].coeffs
    return float(np.max(np.abs(diff - total)) / max(np.max(np.abs(total)), 1e-30))


def _oracle_finite_differences(m: int, seed: int) -> float:
    from .testfunc import chi, chi_prime
    from .vorticity import HFunction

    h = 1e-6
    worst = 0.0
    for r in [0.2, 0.5, 0.8]:
        fd = (chi(r + h) - chi(r - h)) / (2 * h)
        worst = max(worst, abs(chi_prime(r) - fd) / max(abs(fd), 1.0))
    hf = HFunction(0.3)
    for r in [1.5, 4.0]:
        step_r = 1e-5 * r
        fd = (hf.h(r + step_r) - hf.h(r - step_r)) / (2 * step_r)
        worst = max(worst, abs(hf.h_prime(r) - fd) / abs(fd))
    return worst


def _oracle_riemann_ledger(m: int, seed: int) -> float:
    from .energy import EnergyLedger
    from .stepview import iter_views
    from .testfunc import SpatialBump, TemporalWindow, TestFunction

    grid = Grid(m)
    t_end = 0.125
    phi = TestFunction(SpatialBump(exponent=2),
                       TemporalWindow(t_end / 4, 3 * t_end / 4, t_end / 8))
    noise = make_noise_model(grid, "additive", amplitude=0.3, max_k=6)
    p = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 32, t_end=t_end, grid=grid, seed=seed)
    u0 = random_solenoidal(grid, seed, amp=0.7)
    views = list(iter_views(p, u0, noise))
    led = EnergyLedger(phi)
    led.begin(views[0])
    led.advance(views[0], views[1])
    led.advance(views[1], views[2])
    # refined Riemann oracle for the local energy at t_2 (inside the window)
    from .spectral import synthesize

    pr = 3 * m
    s = phi.spatial_values(pr)
    u_r = synthesize(views[2].u, pr)
    oracle = phi.theta(views[2].t) * float(np.mean(np.sum(u_r**2, axis=0) * s))
    if phi.theta(views[2].t) == 0.0:
        raise RuntimeError("oracle misconfigured: comparison time outside phi support")
    scale = max(abs(oracle), 1e-30)
    return abs(led.local_energy[2] - oracle) / scale


def _oracle_dr_displacement(m: int, seed: int) -> float:
    from .dissipation import dr_oracle_agreement

    grid = Grid(m)
    u = random_solenoidal(grid, seed)
    resolution = 24 if m <= 8 else 40
    return dr_oracle_agreement(u, 1.0 / 8, resolution=resolution)


_REGISTRY = [
    # (module, operation, fn, tolerance, fast_m, full_m)
    ("spectral_core", "forward_transform", _oracle_forward_dft, 1e-12, 8, None),
    ("spectral_core", "leray_project", _oracle_leray_matrix, 1e-12, 8, 16),
    ("spectral_core", "solve_pressure", _oracle_pressure, 1e-11, 8, 16),
    ("spectral_core", "nonlinear_term", _oracle_nonlinear_convolution, 1e-10, 8, None),
    ("spectral_core", "mollify", _oracle_mollifier_quadrature, 1e-10, 8, None),
    ("leray_integrator", "noise_increments", _oracle_increment_summation, 1e-12, 8, 16),
    ("energy_ledger", "chi_and_h_derivatives", _oracle_finite_differences, 1e-7, 8, None),
    ("energy_ledger", "spatial_integrals", _oracle_riemann_ledger, 1e-6, 8, 16),
    ("dissipation_dr", "displacement_quadrature", _oracle_dr_displacement, 2e-3, 8, 16),
]


def oracle_suite(level: str = "fast", seed: int = 1000) -> list[OracleResult]:
    """Run every registered oracle comparison; level is 'fast' or 'full'."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown oracle level {level!r}")
    results = []
    for module, op, fn, tol, fast_m, full_m in _REGISTRY:
        sizes = [fast_m]
        if level == "full" and full_m is not None:
            sizes.append(full_m)
        for m in sizes:
            t0 = time.perf_counter()
            # the M=16 displacement comparison earns the tight tolerance
            eff_tol = 1e-4 if (op == "displacement_quadrature" and m == 16) else tol
            err = fn(m, seed)
            results.append(OracleResult(module, f"{op}[M={m}]", seed, float(err),
                                        eff_tol, bool(err <= eff_tol),
                                        time.perf_counter() - t0))
    # negative control: corrupted dealiasing must break the convolution oracle
    _MUTATION_HOOKS["corrupt_dealiasing"] = True
    try:
        t0 = time.perf_counter()
        err = _oracle_nonlinear_convolution(8, seed)
        results.append(OracleResult(
            "ensemble_cli", "negative_control[corrupt_dealiasing]", seed,
            float(err), 1e-10, bool(err > 1e-10), time.perf_counter() - t0,
        ))
    finally:
        _MUTATION_HOOKS["corrupt_dealiasing"] = False
    return results
