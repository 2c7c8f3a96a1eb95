"""Property tests of the noise stacks: each noise field is one (N, 3, R)
array on the retained modes, from ``NoiseModel.eval_all`` through
``Workspace.noise_modes`` to ``spectral.synthesize``, for every family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsns.integrate import RunParams, Workspace
from lsns.noise import KINDS, make_noise_model
from lsns.spectral import (
    Grid,
    SpectralField,
    curl,
    forward_transform,
    gather,
    scatter,
    synthesize,
)

from helpers import random_solenoidal

SETTINGS = settings(max_examples=5, deadline=None)
CASES = dict(seed=st.integers(0, 2**16), amp=st.floats(0.1, 2.0))
EVERY_FAMILY = pytest.mark.parametrize("kind", KINDS)
BOTH_GRIDS = pytest.mark.parametrize("m", [8, 16])


def _state(kind: str, m: int, seed: int, amp: float):
    grid = Grid(m)
    noise = make_noise_model(grid, kind, amplitude=0.3, ratio=0.7, max_k=8)
    params = RunParams(nu=0.02, epsilon=0.25, dt=1.0 / 64, t_end=1.0 / 64, grid=grid, seed=seed)
    return grid, noise, Workspace(params, noise), random_solenoidal(grid, seed, amp=amp)


@EVERY_FAMILY
@BOTH_GRIDS
@SETTINGS
@given(**CASES)
def test_eval_all_is_the_gathered_transform_of_the_samples(kind, m, seed, amp):
    grid, noise, ws, u = _state(kind, m, seed, amp)
    stack = noise.eval_all(ws.n_noise, u)
    samples = noise.sample(range(1, ws.n_noise + 1), m, synthesize(u, m))
    want = np.stack([gather(grid, forward_transform(grid, s).coeffs) for s in samples])
    assert stack.shape == want.shape == (ws.n_noise, 3, len(grid.modes.full))
    assert np.max(np.abs(stack - want)) <= 1e-13 * np.max(np.abs(want))


@EVERY_FAMILY
@BOTH_GRIDS
@SETTINGS
@given(**CASES)
def test_curl_stack_is_the_curl_of_the_injected_fields(kind, m, seed, amp):
    grid, _, ws, u = _state(kind, m, seed, amp)
    cache = {}
    injected = ws.noise_modes("injected", u, cache)
    want = np.stack([gather(grid, curl(SpectralField(grid, scatter(grid, c))).coeffs)
                     for c in injected])
    assert np.array_equal(ws.noise_modes("curl", u, cache), want)


@EVERY_FAMILY
@BOTH_GRIDS
@SETTINGS
@given(**CASES, tag=st.sampled_from(["injected", "projected", "curl"]),
       pad=st.sampled_from([1, 2]))
def test_synthesis_of_a_stack_is_the_per_field_synthesis(kind, m, seed, amp, tag, pad):
    grid, _, ws, u = _state(kind, m, seed, amp)
    stack = ws.noise_modes(tag, u, {})
    got = synthesize(stack, pad * m, grid)
    want = np.stack([synthesize(c, pad * m, grid) for c in stack])
    assert np.array_equal(got, want)

