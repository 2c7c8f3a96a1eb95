"""Nonnegative space-time test functions with analytic derivatives.

phi(t, x) = theta(t) s(x):

* s is a shifted raised-cosine bump, s(x) = prod_i ((1 + cos 2 pi (x_i - c_i))/2)^m,
  a low-order trigonometric polynomial (bandwidth m per axis) whose gradient
  and Laplacian are evaluated in closed form;
* theta is built from the smooth switch chi (chi(r) = 0 for r <= 0, 1 for
  r >= 1) as theta(t) = chi((t-a)/ramp) * chi((b-t)/ramp), compactly
  supported in (a, b).

Setting either factor to None gives the constant 1 (no temporal support
restriction); the energy ledger then keeps the initial-energy term that the
compactly supported case kills.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "chi", "chi_prime", "TemporalWindow", "SpatialBump",
    "TestFunction", "builtin_test_functions",
]


def _f(r):
    out = np.zeros_like(r, dtype=float)
    pos = r > 0
    out[pos] = np.exp(-1.0 / r[pos])
    return out


def _f_prime(r):
    out = np.zeros_like(r, dtype=float)
    pos = r > 0
    out[pos] = np.exp(-1.0 / r[pos]) / r[pos] ** 2
    return out


def chi(r):
    """Smooth switch: 0 for r <= 0, 1 for r >= 1, monotone in between."""
    r = np.asarray(r, dtype=float)
    num = _f(r)
    den = num + _f(1.0 - r)
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return out if out.ndim else float(out)


def chi_prime(r):
    """Analytic derivative of chi."""
    r = np.asarray(r, dtype=float)
    fr, f1 = _f(r), _f(1.0 - r)
    dfr, df1 = _f_prime(r), _f_prime(1.0 - r)
    den = (fr + f1) ** 2
    num = dfr * f1 + fr * df1
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return out if out.ndim else float(out)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class TemporalWindow:
    """chi-based cut-off supported in (a, b) with ramp width `ramp`."""

    a: float
    b: float
    ramp: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise ConfigurationError(f"empty temporal support ({self.a}, {self.b})")
        if not (0 < self.ramp <= (self.b - self.a) / 2):
            raise ConfigurationError(
                f"ramp {self.ramp} must lie in (0, (b-a)/2] for support ({self.a}, {self.b})"
            )

    def values(self, t) -> np.ndarray:
        """theta at every time of the array t."""
        t = np.asarray(t, dtype=float)
        return chi((t - self.a) / self.ramp) * chi((self.b - t) / self.ramp)

    def value(self, t: float) -> float:
        return float(self.values(t))

    def derivative(self, t: float) -> float:
        ca = chi((t - self.a) / self.ramp)
        cb = chi((self.b - t) / self.ramp)
        da = chi_prime((t - self.a) / self.ramp) / self.ramp
        db = -chi_prime((self.b - t) / self.ramp) / self.ramp
        return float(da * cb + ca * db)

    def integrals(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(int theta dt, int theta^2 dt) over each step [t_j, t_j+1] of the
        time grid ``times``, by 6-point Gauss quadrature summed in node order,
        so a step's integrals have the same bits on any grid."""
        times = np.asarray(times, dtype=float)
        t1, t2 = times[:-1, None], times[1:, None]
        half = 0.5 * (t2 - t1)
        vals = self.values(0.5 * (t1 + t2) + half * _GAUSS_NODES)
        return tuple(half[:, 0] * _node_sum(vals**power) for power in (1, 2))

    def integral(self, t1: float, t2: float, power: int = 1) -> float:
        """int_{t1}^{t2} theta(t)^power dt, power 1 or 2: the one-step case of
        ``integrals``."""
        if power not in (1, 2):
            raise ValueError(f"power must be 1 or 2, got {power}")
        return float(self.integrals((t1, t2))[power - 1][0])


def _node_sum(vals: np.ndarray) -> np.ndarray:
    """sum_q w_q vals[..., q] over the Gauss nodes, accumulated in node order."""
    acc = _GAUSS_WEIGHTS[0] * vals[..., 0]
    for q in range(1, len(_GAUSS_WEIGHTS)):
        acc = acc + _GAUSS_WEIGHTS[q] * vals[..., q]
    return acc


@lru_cache(maxsize=None)
def _axis_eval(center: float, m: int, p: int):
    """(g, g', g'') of g = ((1+cos 2 pi (x-c))/2)^m on the p-point axis grid."""
    x = np.arange(p) / p - center
    b = (1.0 + np.cos(2 * np.pi * x)) / 2.0
    bp = -np.pi * np.sin(2 * np.pi * x)
    bpp = -2.0 * np.pi**2 * np.cos(2 * np.pi * x)
    g = b**m
    gp = m * b ** (m - 1) * bp
    if m == 1:
        gpp = bpp
    else:
        gpp = m * (m - 1) * b ** (m - 2) * bp**2 + m * b ** (m - 1) * bpp
    return g, gp, gpp


@dataclass(frozen=True)
class SpatialBump:
    """Raised-cosine bump: prod_i ((1 + cos 2 pi (x_i - c_i))/2)^m, m >= 1."""

    center: tuple[float, float, float] = (0.5, 0.5, 0.5)
    exponent: int = 2

    def __post_init__(self):
        if self.exponent < 1:
            raise ConfigurationError("bump exponent must be >= 1")

    def values(self, p: int) -> np.ndarray:
        gs = [_axis_eval(c, self.exponent, p)[0] for c in self.center]
        return np.einsum("x,y,z->xyz", gs[0], gs[1], gs[2])

    def grad(self, p: int) -> np.ndarray:
        ev = [_axis_eval(c, self.exponent, p) for c in self.center]
        g = [e[0] for e in ev]
        gp = [e[1] for e in ev]
        out = np.empty((3, p, p, p))
        out[0] = np.einsum("x,y,z->xyz", gp[0], g[1], g[2])
        out[1] = np.einsum("x,y,z->xyz", g[0], gp[1], g[2])
        out[2] = np.einsum("x,y,z->xyz", g[0], g[1], gp[2])
        return out

    def laplacian(self, p: int) -> np.ndarray:
        ev = [_axis_eval(c, self.exponent, p) for c in self.center]
        g = [e[0] for e in ev]
        gpp = [e[2] for e in ev]
        return (
            np.einsum("x,y,z->xyz", gpp[0], g[1], g[2])
            + np.einsum("x,y,z->xyz", g[0], gpp[1], g[2])
            + np.einsum("x,y,z->xyz", g[0], g[1], gpp[2])
        )


@dataclass(frozen=True)
class TestFunction:
    """phi(t, x) = theta(t) s(x) >= 0; None factors mean the constant 1."""

    __test__ = False  # not a pytest class, despite the name

    spatial: SpatialBump | None = None
    temporal: TemporalWindow | None = None
    label: str = "phi"

    # temporal factor
    def step_weights(self, times) -> tuple[np.ndarray, ...]:
        """The deterministic time weights of every step of the grid ``times``
        (t_0 .. t_n): w1 and w2, the exact (Gauss) integrals of theta and
        theta^2 over [t_j, t_j+1], the increments theta(t_j+1) - theta(t_j)
        (the exact integral of dtheta/dt), and theta at every t_j. The
        ledgers tabulate them once per path, so only adapted factors are
        left-endpoint approximations."""
        times = np.asarray(times, dtype=float)
        if self.temporal is None:
            dt = np.diff(times)
            return dt, dt, np.zeros_like(dt), np.ones_like(times)
        theta = self.temporal.values(times)
        return (*self.temporal.integrals(times), np.diff(theta), theta)

    def theta(self, t: float) -> float:
        return 1.0 if self.temporal is None else self.temporal.value(t)

    def theta_dot(self, t: float) -> float:
        return 0.0 if self.temporal is None else self.temporal.derivative(t)

    def theta_integral(self, t1: float, t2: float, power: int = 1) -> float:
        """One step's ``step_weights`` w1 (power 1) or w2 (power 2)."""
        if self.temporal is None:
            return t2 - t1
        return self.temporal.integral(t1, t2, power)

    def theta_increment(self, t1: float, t2: float) -> float:
        """theta(t2) - theta(t1) (the exact integral of dtheta/dt)."""
        return self.theta(t2) - self.theta(t1)

    @property
    def support(self) -> tuple[float, float] | None:
        if self.temporal is None:
            return None
        return (self.temporal.a, self.temporal.b)

    @property
    def spatial_bandwidth(self) -> int:
        """Per-axis Fourier bandwidth of the spatial factor."""
        return 0 if self.spatial is None else self.spatial.exponent

    # spatial factor on a P^3 grid
    def spatial_values(self, p: int) -> np.ndarray:
        if self.spatial is None:
            return np.ones((p, p, p))
        return self.spatial.values(p)

    def spatial_grad(self, p: int) -> np.ndarray:
        if self.spatial is None:
            return np.zeros((3, p, p, p))
        return self.spatial.grad(p)

    def spatial_laplacian(self, p: int) -> np.ndarray:
        if self.spatial is None:
            return np.zeros((p, p, p))
        return self.spatial.laplacian(p)


def builtin_test_functions(t_end: float) -> dict[str, TestFunction]:
    """Built-in family: three spatial scales x two chi ramp widths on (T/4, 3T/4)."""
    out = {}
    a, b = t_end / 4.0, 3.0 * t_end / 4.0
    for m, scale_name in [(1, "wide"), (2, "mid"), (4, "narrow")]:
        for denom in [8, 16]:
            ramp = t_end / denom
            name = f"{scale_name}_ramp{denom}"
            out[name] = TestFunction(
                spatial=SpatialBump(exponent=m),
                temporal=TemporalWindow(a, b, ramp),
                label=name,
            )
    return out
