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

sigma_k(u) is evaluated pointwise from the velocity's samples (``sample``):
on the ledgers' pad, and on the M grid, from where ``eval_all`` takes
sigma_1(u) .. sigma_N(u) onto the retained modes as one (N, 3, R) stack
by one batched rfftn.

The true suprema in the three conditions run over all of L^2/H^1 and are not
computable; the validators report the empirical supremum over a supplied
sample ensemble (of the untruncated fields, sampled on the M grid) next to
the family's analytic constant. Samples are expected divergence-free (and,
for the multiplicative vorticity bound, mean-free so the Poincare
inequality applies); this restriction is recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .errors import ConfigurationError
from .spectral import (
    Grid,
    ScalarField,
    SpectralField,
    curl,
    forward_transform,
    gather,
    gradient,
    h1_seminorm,
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


def _refined_sups(fields) -> np.ndarray:
    """sup |f| of each field on the 2M grid, synthesized one at a time: the
    stack of max_k fields there would hold them all at once."""
    sups = []
    for f in fields:
        vals = synthesize(f, 2 * f.grid.m)
        sups.append(float(np.max(np.sqrt(np.sum(vals.reshape(-1, *vals.shape[-3:]) ** 2, axis=0)))))
    return np.array(sups)


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
    _samples: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        stored = self.vector_fields if self.kind != "linear_multiplicative" else self.scalar_fields
        if len(stored) != self.max_k:
            raise ConfigurationError(
                f"{self.kind} noise stores {len(stored)} coefficient fields, want max_k={self.max_k}"
            )

    # -- closed-form norm data used by the analytic bounds ------------------

    def l2_norms(self) -> np.ndarray:
        """||sigma_k||_L2 (additive), ||c_k||_L2 (multiplicative), ||f_k||_L2 (cosine)."""
        stored = self.vector_fields if self.kind != "linear_multiplicative" else self.scalar_fields
        return np.array([l2_norm(f) for f in stored])

    def sup_norms(self) -> np.ndarray:
        """C^0 norms estimated on a refined grid (exact for single-mode built-ins)."""
        return _refined_sups(self.vector_fields or self.scalar_fields)

    def curl_norms(self) -> np.ndarray:
        """||curl sigma_k||_L2 for the vector families (zeros for multiplicative)."""
        if self.kind == "linear_multiplicative":
            return np.zeros(self.max_k)
        return np.array([l2_norm(curl(f)) for f in self.vector_fields])

    def grad_sup_norms(self) -> np.ndarray:
        """sup |grad c_k| for the multiplicative family (refined-grid estimate)."""
        if self.kind != "linear_multiplicative":
            return np.zeros(self.max_k)
        return _refined_sups([gradient(f) for f in self.scalar_fields])

    # -- evaluation ----------------------------------------------------------

    @property
    def state_free(self) -> bool:
        """Whether sigma_k(u) is the same field for every u (additive noise)."""
        return self.kind == "additive"

    def eval_all(self, n: int, u: SpectralField) -> np.ndarray:
        """sigma_1(u) .. sigma_n(u) on the retained modes, stacked (n, 3, R):
        the stored fields for state-free noise, else the samples on the M
        grid (``sample``) in one batched rfftn. Not solenoidal in general."""
        ks, g = self._ks(n), self.grid
        if self.state_free:
            return np.stack([gather(g, self.vector_fields[k - 1].coeffs) for k in ks])
        s = self.sample(ks, g.m, synthesize(u, g.m))
        return sfft.rfftn(s, axes=(-3, -2, -1), norm="forward").reshape(n, 3, -1)[..., g.modes.half]

    def _ks(self, n: int) -> range:
        """The indices 1..n of the first n fields."""
        if n > self.max_k:
            raise ConfigurationError(f"truncation N={n} exceeds stored max_k={self.max_k}")
        return range(1, n + 1)

    def sample(self, ks, p: int, u_phys: np.ndarray | None) -> np.ndarray:
        """sigma_k(u) for k in ``ks`` on the P grid (P >= M), stacked, pointwise
        from the velocity samples ``u_phys`` (3, P, P, P) there (None for
        state-free noise, which returns its cached coefficient stack): the one
        rule behind ``eval_all`` on the M grid and the ledgers' noise on the pad."""
        coef = self._coefficient_samples(ks, p)
        if self.state_free:
            return coef
        if self.kind == "linear_multiplicative":
            return coef * u_phys
        mod = np.sqrt(1.0 + np.sum(u_phys**2, axis=0))
        return coef * np.cos(np.asarray(ks)[:, None, None, None] * mod)[:, None]

    def _coefficient_samples(self, ks, p: int) -> np.ndarray:
        """The stored coefficient fields k in ``ks`` on the P grid, stacked
        (len(ks), 3 or 1, P, P, P), cached per (ks, P) and read-only:
        state-free noise hands this stack to every consumer."""
        key = (tuple(ks), p)
        if key not in self._samples:
            m = self.grid.m
            stored = self.vector_fields or self.scalar_fields
            coeffs = np.stack([stored[k - 1].coeffs.reshape(-1, m, m, m) for k in key[0]])
            out = synthesize(coeffs, p, self.grid)
            out.flags.writeable = False
            self._samples[key] = out
        return self._samples[key]

    # -- analytic per-family bounds -----------------------------------------

    def _growth_norms(self) -> np.ndarray:
        """The per-k norms of the linear-growth condition."""
        return self.sup_norms() if self.kind == "linear_multiplicative" else self.l2_norms()

    def linear_growth_bound(self, n: int) -> float:
        """Sum_{k<=n} of the per-k constant in the linear-growth condition."""
        return float(np.sum(self._growth_norms()[:n] ** 2))

    def tail_bound(self, n: int) -> float:
        """Analytic tail Sum_{k>n}, including the contribution beyond max_k."""
        return float(np.sum(self._growth_norms()[n:] ** 2) + self.tail_beyond_max_k)

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
    amps = amplitude * ratio ** np.arange(1, max_k + 1)
    modes = [MODE_TABLE[(k - 1) % len(MODE_TABLE)] for k in range(1, max_k + 1)]
    for k, n in enumerate(modes, start=1):
        if 2 * max(map(abs, n)) >= grid.m:
            raise ConfigurationError(f"noise mode k={k} {n} lies on a Nyquist plane of M={grid.m}")
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


def _untruncated(model: NoiseModel, n: int, u: SpectralField) -> list[SpectralField]:
    """sigma_1(u) .. sigma_n(u) from their samples on the M grid, untruncated."""
    g = model.grid
    s = model.sample(model._ks(n), g.m, None if model.state_free else synthesize(u, g.m))
    return [forward_transform(g, x) for x in s]


def _sup_ratio(what: str, model: NoiseModel, samples: list[SpectralField], n: int,
               field_norm, state_norm) -> float:
    """The sup over samples u of sum_{k<=n} field_norm(sigma_k(u))^2 / (1 + state_norm(u)^2)."""
    if not samples:
        raise ConfigurationError(f"{what} validation needs at least one sample")
    return max(sum(field_norm(s) ** 2 for s in _untruncated(model, n, u))
               / (1.0 + state_norm(u) ** 2) for u in samples)


def validate_linear_growth(model: NoiseModel, samples: list[SpectralField],
                           n: int) -> ValidationReport:
    emp = _sup_ratio("linear-growth", model, samples, n, l2_norm, l2_norm)
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
    emp = [0.0] * len(n_values)
    for u in samples:  # each sample's fields are evaluated once, for every N
        sq = [l2_norm(s) ** 2 for s in _untruncated(model, model.max_k, u)]
        emp = [max(e, sum(sq[n:]) / (1.0 + l2_norm(u) ** 2)) for e, n in zip(emp, n_values)]
    analytic = [model.tail_bound(n) for n in n_values]
    noninc = all(emp[i + 1] <= emp[i] + 1e-14 for i in range(len(emp) - 1))
    passed = noninc and all(e <= a * SLACK + 1e-14 for e, a in zip(emp, analytic))
    return TailDecayReport(tuple(n_values), tuple(emp), tuple(analytic),
                           noninc, passed, len(samples))


def validate_vorticity_control(model: NoiseModel, samples: list[SpectralField],
                               n: int) -> ValidationReport:
    worst = _sup_ratio("vorticity-control", model, samples, n,
                       lambda s: l2_norm(curl(s)), h1_seminorm)
    bound = model.vorticity_control_bound(n)
    return ValidationReport("vorticity_control", worst, bound,
                            worst <= bound * SLACK, len(samples))
