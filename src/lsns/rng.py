"""Reproducible Brownian increments from a counter-based generator.

Each increment Delta B_k at step j is drawn from a fresh Philox stream whose
key/counter encode (seed, path_id, k, step), so any single draw can be
regenerated bit-exactly without replaying the path and distinct keys give
independent streams. Workers may therefore integrate paths in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BrownianIncrements:
    """Gaussian increments Delta B_k^j ~ N(0, dt), keyed by (seed, path_id, k, step)."""

    seed: int
    path_id: int
    dt: float

    @cached_property
    def _philox(self):
        """One Philox generator and its fresh state: resetting the counter of
        that state gives the draws of a new Philox(key, counter) without
        building one per increment."""
        bg = np.random.Philox(key=[self.seed & 0xFFFFFFFFFFFFFFFF, self.path_id])
        return bg, np.random.Generator(bg), bg.state

    def increment(self, k: int, step: int) -> float:
        bg, gen, fresh = self._philox
        bg.state = {**fresh, "state": {"key": fresh["state"]["key"],
                                       "counter": np.array([0, 0, step, k], dtype=np.uint64)}}
        return float(gen.standard_normal() * np.sqrt(self.dt))

    def step_increments(self, step: int, n: int) -> np.ndarray:
        """Delta B_k for k = 1..n at the given step, shape (n,)."""
        return np.array([self.increment(k, step) for k in range(1, n + 1)])
