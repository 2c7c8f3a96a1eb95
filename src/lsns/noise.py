"""Noise coefficient families and numerical validators for their growth,
tail-decay and vorticity-control conditions.

Three families are built in:

* ``additive``              sigma_k(u) = sigma_k, a fixed vector field per k;
* ``linear_multiplicative`` sigma_k(u)(x) = c_k(x) u(x) with scalar c_k;
* ``cosine``                sigma_k(u)(x) = f_k(x) cos(k sqrt(1 + |u(x)|^2)).

The built-in constructors use single-Fourier-mode coefficient fields with a
geometric amplitude sequence, so every norm entering the analytic bounds is
known in closed form. The additive/cosine vector fields are chosen
divergence-free. Arbitrary coefficient fields (e.g. loaded from snapshot
files) are accepted as well.

The true suprema in the three conditions run over all of L^2/H^1 and are not
computable; the validators report the empirical supremum over a supplied
sample ensemble next to the family's analytic constant. Samples are expected
divergence-free (and, for the multiplicative vorticity bound, mean-free so
the Poincare inequality applies); this restriction is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .mollifier import Mollifier, mollify
from .spectral import (
    Grid,
    ScalarField,
    SpectralField,
    curl,
    forward_transform,
    h1_seminorm,
    inverse_transform,
    l2_norm,
    synthesize,
)

KINDS = ("additive", "linear_multiplicative", "cosine")

# deterministic low-mode table cycled by the built-in constructors
MODE_TABLE = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (1, -1, 0), (0, 1, -1), (-1, 0, 1),
    (1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2),
)


@dataclass(frozen=True)
class TruncationLevel:
    """Pairs the mollifier scale with the noise truncation N = [1/eps] + 1."""

    epsilon: float
    n: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        want = int(math.floor(1.0 / self.epsilon + 1e-9)) + 1
        if self.n != want:
            raise ConfigurationError(
                f"truncation N={self.n} inconsistent with [1/eps]+1={want} at eps={self.epsilon}"
            )

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "TruncationLevel":
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        return cls(float(epsilon), int(math.floor(1.0 / epsilon + 1e-9)) + 1)


def _unit_polarization(n: tuple[int, int, int]) -> np.ndarray:
    nv = np.array(n, dtype=float)
    ref = np.array([0.0, 0.0, 1.0])
    if abs(nv @ ref) >= 0.999 * np.linalg.norm(nv):
        ref = np.array([1.0, 0.0, 0.0])
    p = np.cross(nv, ref)
    return p / np.linalg.norm(p)


def single_mode_vector_field(grid: Grid, n: tuple[int, int, int],
                             amplitude: float) -> SpectralField:
    """sqrt(2) * a * p * cos(2 pi n.x) with p unit, p . n = 0; L2 norm = a."""
    p = _unit_polarization(n)
    c = np.zeros((3, grid.m, grid.m, grid.m), dtype=complex)
    half = amplitude / np.sqrt(2.0)
    pos = tuple(v % grid.m for v in n)
    neg = tuple((-v) % grid.m for v in n)
    for i in range(3):
        c[i][pos] += half * p[i]
        c[i][neg] += half * p[i]
    return SpectralField(grid, c)


def single_mode_scalar_field(grid: Grid, n: tuple[int, int, int],
                             amplitude: float, flatness: float) -> ScalarField:
    """a * (1 + beta cos(2 pi n.x)) / (1 + beta): sup norm = a, inf >= 0."""
    c = np.zeros((grid.m, grid.m, grid.m), dtype=complex)
    beta = flatness
    c[0, 0, 0] = amplitude / (1.0 + beta)
    half = amplitude * beta / (2.0 * (1.0 + beta))
    c[tuple(v % grid.m for v in n)] += half
    c[tuple((-v) % grid.m for v in n)] += half
    return ScalarField(grid, c)


@dataclass(frozen=True)
class NoiseModel:
    """One of the three coefficient families, truncated at max_k for storage."""

    kind: str
    grid: Grid
    max_k: int
    vector_fields: tuple = ()   # per-k SpectralField (additive sigma_k / cosine f_k)
    scalar_fields: tuple = ()   # per-k ScalarField (multiplicative c_k)
    tail_beyond_max_k: float = 0.0  # analytic sum of ||.||^2-type bounds for k > max_k
    decay_note: str = ""
    _phys_cache: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        stored = self.vector_fields if self.kind != "linear_multiplicative" else self.scalar_fields
        if len(stored) != self.max_k:
            raise ConfigurationError(
                f"{self.kind} noise stores {len(stored)} coefficient fields, want max_k={self.max_k}"
            )
        if not self._phys_cache:
            object.__setattr__(
                self, "_phys_cache", tuple(inverse_transform(f) for f in stored)
            )

    # -- closed-form norm data used by the analytic bounds ------------------

    def l2_norms(self) -> np.ndarray:
        """||sigma_k||_L2 (additive), ||c_k||_L2 (multiplicative), ||f_k||_L2 (cosine)."""
        stored = self.vector_fields if self.kind != "linear_multiplicative" else self.scalar_fields
        return np.array([l2_norm(f) for f in stored])

    def sup_norms(self) -> np.ndarray:
        """C^0 norms estimated on a refined grid (exact for single-mode built-ins)."""
        out = []
        for f in (self.vector_fields or self.scalar_fields):
            vals = synthesize(f, 2 * self.grid.m)
            if vals.ndim == 4:
                out.append(float(np.max(np.sqrt(np.sum(vals**2, axis=0)))))
            else:
                out.append(float(np.max(np.abs(vals))))
        return np.array(out)

    def curl_norms(self) -> np.ndarray:
        """||curl sigma_k||_L2 for the vector families (zeros for multiplicative)."""
        if self.kind == "linear_multiplicative":
            return np.zeros(self.max_k)
        return np.array([l2_norm(curl(f)) for f in self.vector_fields])

    def grad_sup_norms(self) -> np.ndarray:
        """sup |grad c_k| for the multiplicative family (refined-grid estimate)."""
        if self.kind != "linear_multiplicative":
            return np.zeros(self.max_k)
        from .spectral import gradient

        out = []
        for f in self.scalar_fields:
            g = synthesize(gradient(f), 2 * self.grid.m)
            out.append(float(np.max(np.sqrt(np.sum(g**2, axis=0)))))
        return np.array(out)

    # -- evaluation ----------------------------------------------------------

    def eval(self, k: int, u: SpectralField) -> SpectralField:
        """sigma_k(u) as a spectral field; k is 1-based; result not solenoidal
        in general. Pointwise nonlinearities are sampled on the native grid."""
        if not (1 <= k <= self.max_k):
            raise ConfigurationError(f"noise index k={k} outside 1..{self.max_k}")
        return self._evaluate([k], u)[0]

    def eval_all(self, n: int, u: SpectralField) -> list[SpectralField]:
        """sigma_1(u) .. sigma_n(u); shares the physical synthesis of u."""
        if n > self.max_k:
            raise ConfigurationError(f"truncation N={n} exceeds stored max_k={self.max_k}")
        return self._evaluate(range(1, n + 1), u)

    def _evaluate(self, ks, u: SpectralField) -> list[SpectralField]:
        if self.kind == "additive":
            return [self.vector_fields[k - 1] for k in ks]
        u_phys = inverse_transform(u)
        if self.kind == "linear_multiplicative":
            return [forward_transform(self.grid, self._phys_cache[k - 1][None] * u_phys)
                    for k in ks]
        mod = np.sqrt(1.0 + np.sum(u_phys**2, axis=0))
        return [forward_transform(self.grid, self._phys_cache[k - 1] * np.cos(k * mod)[None])
                for k in ks]

    def eval_curl(self, k: int, u: SpectralField, m: Mollifier) -> SpectralField:
        """rho_k = psi_eps * [curl sigma_k(u)]; curl and mollification commute."""
        return mollify(curl(self.eval(k, u)), m)

    # -- analytic per-family bounds -----------------------------------------

    def linear_growth_bound(self, n: int) -> float:
        """Sum_{k<=n} of the per-k constant in the linear-growth condition."""
        if self.kind == "linear_multiplicative":
            return float(np.sum(self.sup_norms()[:n] ** 2))
        return float(np.sum(self.l2_norms()[:n] ** 2))

    def tail_bound(self, n: int) -> float:
        """Analytic tail Sum_{k>n}, including the contribution beyond max_k."""
        if self.kind == "linear_multiplicative":
            head = np.sum(self.sup_norms()[n:] ** 2)
        else:
            head = np.sum(self.l2_norms()[n:] ** 2)
        return float(head + self.tail_beyond_max_k)

    def vorticity_control_bound(self, n: int) -> float:
        if self.kind == "additive":
            return float(np.sum(self.curl_norms()[:n] ** 2))
        if self.kind == "linear_multiplicative":
            # curl(c u) = c curl u - u x grad c; Poincare with constant 1/(2 pi)
            # for mean-free u turns the ||u|| term into a ||grad u|| term.
            sup2 = self.sup_norms()[:n] ** 2
            grad2 = self.grad_sup_norms()[:n] ** 2
            return float(np.sum(2.0 * sup2 + 2.0 * grad2 / (4.0 * np.pi**2)))
        ks = np.arange(1, n + 1, dtype=float)
        return float(
            np.sum(2.0 * (self.curl_norms()[:n] ** 2 + ks**2 * self.sup_norms()[:n] ** 2))
        )


# ---------------------------------------------------------------------------
# built-in constructors


def _geometric_tail(amp: float, ratio: float, max_k: int) -> float:
    if ratio <= 0 or ratio >= 1:
        return 0.0
    r2 = ratio * ratio
    return amp * amp * r2 ** (max_k + 1) / (1.0 - r2)


def make_noise_model(grid: Grid, kind: str, amplitude: float = 0.1,
                     ratio: float = 0.5, max_k: int = 64,
                     flatness: float = 0.5) -> NoiseModel:
    """Built-in family with a_k = amplitude * ratio^k and table modes.

    ``flatness`` is the modulation depth beta of the multiplicative scalars.
    """
    if kind not in KINDS:
        raise ConfigurationError(f"unknown noise kind {kind!r}")
    amps = amplitude * ratio ** np.arange(1, max_k + 1)
    modes = [MODE_TABLE[(k - 1) % len(MODE_TABLE)] for k in range(1, max_k + 1)]
    note = f"a_k = {amplitude} * {ratio}^k, modes cycled from table"
    tail = _geometric_tail(amplitude, ratio, max_k)
    if kind == "linear_multiplicative":
        fields = tuple(
            single_mode_scalar_field(grid, n, a, flatness) for n, a in zip(modes, amps)
        )
        return NoiseModel(kind, grid, max_k, scalar_fields=fields,
                          tail_beyond_max_k=tail, decay_note=note)
    fields = tuple(single_mode_vector_field(grid, n, a) for n, a in zip(modes, amps))
    return NoiseModel(kind, grid, max_k, vector_fields=fields,
                      tail_beyond_max_k=tail, decay_note=note)


# ---------------------------------------------------------------------------
# validators

SLACK = 1.05  # 5% slack on analytic bounds


@dataclass(frozen=True)
class ValidationReport:
    condition: str
    empirical: float
    analytic: float
    passed: bool
    samples: int
    note: str = "suprema estimated over divergence-free samples only"


def _growth_ratio(model: NoiseModel, u: SpectralField, n: int) -> float:
    total = sum(l2_norm(s) ** 2 for s in model.eval_all(n, u))
    return total / (1.0 + l2_norm(u) ** 2)


def validate_linear_growth(model: NoiseModel, samples: list[SpectralField],
                           n: int) -> ValidationReport:
    if not samples:
        raise ConfigurationError("linear-growth validation needs at least one sample")
    emp = max(_growth_ratio(model, u, n) for u in samples)
    bound = model.linear_growth_bound(n)
    return ValidationReport("linear_growth", emp, bound, emp <= bound * SLACK, len(samples))


@dataclass(frozen=True)
class TailDecayReport:
    n_values: tuple
    empirical: tuple        # sup over samples of the truncated tail sums
    analytic: tuple         # analytic tails including beyond-max_k part
    nonincreasing: bool
    passed: bool
    samples: int
    note: str = "empirical tails truncated at max_k"


def validate_tail_decay(model: NoiseModel, samples: list[SpectralField],
                        n_values: list[int]) -> TailDecayReport:
    if sorted(n_values) != list(n_values):
        raise ConfigurationError("tail-decay N values must be increasing")
    emp = []
    for n in n_values:
        worst = 0.0
        for u in samples:
            evaluated = model.eval_all(model.max_k, u)
            total = sum(l2_norm(s) ** 2 for s in evaluated[n:])
            worst = max(worst, total / (1.0 + l2_norm(u) ** 2))
        emp.append(worst)
    analytic = [model.tail_bound(n) for n in n_values]
    noninc = all(emp[i + 1] <= emp[i] + 1e-14 for i in range(len(emp) - 1))
    passed = noninc and all(e <= a * SLACK + 1e-14 for e, a in zip(emp, analytic))
    return TailDecayReport(tuple(n_values), tuple(emp), tuple(analytic),
                           noninc, passed, len(samples))


def validate_vorticity_control(model: NoiseModel, samples: list[SpectralField],
                               n: int) -> ValidationReport:
    if not samples:
        raise ConfigurationError("vorticity-control validation needs at least one sample")
    worst = 0.0
    for u in samples:
        total = sum(l2_norm(curl(s)) ** 2 for s in model.eval_all(n, u))
        worst = max(worst, total / (1.0 + h1_seminorm(u) ** 2))
    bound = model.vorticity_control_bound(n)
    return ValidationReport("vorticity_control", worst, bound,
                            worst <= bound * SLACK, len(samples))
