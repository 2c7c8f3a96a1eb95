import numpy as np
import pytest

from lsns.errors import ConfigurationError
from lsns.mollifier import make_mollifier, mollify
from lsns.noise import (
    NoiseModel,
    TruncationLevel,
    make_noise_model,
    single_mode_scalar_field,
    validate_linear_growth,
    validate_tail_decay,
    validate_vorticity_control,
)
from lsns.spectral import (
    Grid,
    SpectralField,
    curl,
    divergence_residual,
    gather,
    l2_norm,
    scatter,
    synthesize,
)

from helpers import random_solenoidal

G = Grid(8)


def samples(count, start=900, amp=0.8):
    return [random_solenoidal(G, seed=start + i, amp=amp) for i in range(count)]


def test_truncation_level():
    assert TruncationLevel.from_epsilon(0.25).n == 5
    assert TruncationLevel.from_epsilon(1.0 / 8).n == 9
    assert TruncationLevel.from_epsilon(0.1).n == 11
    assert TruncationLevel.from_epsilon(0.3).n == 4
    with pytest.raises(ConfigurationError):
        TruncationLevel(0.25, 7)
    with pytest.raises(ConfigurationError):
        TruncationLevel.from_epsilon(0.0)


def test_builtin_norms_are_exact():
    model = make_noise_model(G, "additive", amplitude=0.2, ratio=0.5, max_k=6)
    a = 0.2 * 0.5 ** np.arange(1, 7)
    assert np.allclose(model.l2_norms(), a, rtol=1e-12)
    assert all(divergence_residual(f) < 1e-12 for f in model.vector_fields)

    mult = make_noise_model(G, "linear_multiplicative", amplitude=0.2, ratio=0.5, max_k=6)
    assert np.allclose(mult.sup_norms(), a, rtol=1e-12)
    # scalars stay nonnegative
    assert all(synthesize(f, G.m).min() > -1e-12 for f in mult.scalar_fields)


def test_additive_eval_ignores_state():
    model = make_noise_model(G, "additive", max_k=4)
    u1, u2 = samples(2)
    out1, out2 = model.eval_all(2, u1), model.eval_all(2, u2)
    assert np.array_equal(out1, out2)
    with pytest.raises(ConfigurationError, match="N=5 exceeds"):
        model.eval_all(5, u1)


def test_state_free_samples_are_one_read_only_stack():
    model = make_noise_model(G, "additive", max_k=4)
    stack = model.sample(range(1, 5), 16, None)
    assert model.sample(range(1, 5), 16, None) is stack
    with pytest.raises(ValueError):
        stack[0] = 0.0


def test_multiplicative_constant_scalar_scales_field():
    c = 0.37
    const = single_mode_scalar_field(G, (1, 0, 0), amplitude=c, flatness=0.0)
    model = NoiseModel("linear_multiplicative", G, 1, scalar_fields=(const,))
    u = samples(1)[0]
    out = model.eval_all(1, u)[0]
    want = c * gather(G, u.coeffs)
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(u.coeffs))


def test_cosine_at_zero_velocity():
    model = make_noise_model(G, "cosine", amplitude=0.3, ratio=0.5, max_k=3)
    zero = SpectralField(G, np.zeros((3, 8, 8, 8), dtype=complex))
    stack = model.eval_all(3, zero)
    for k in [1, 2, 3]:
        expect = gather(G, model.vector_fields[k - 1].coeffs) * np.cos(k)
        assert np.max(np.abs(stack[k - 1] - expect)) <= 1e-12 * max(np.max(np.abs(expect)), 1e-30)


def test_eval_deterministic_and_mollified_contraction():
    model = make_noise_model(G, "cosine", max_k=4)
    u = samples(1)[0]
    a = SpectralField(G, scatter(G, model.eval_all(3, u)[2]))
    b = SpectralField(G, scatter(G, model.eval_all(3, u)[2]))
    assert np.array_equal(a.coeffs, b.coeffs)
    mol = make_mollifier(G, 0.25)
    assert l2_norm(mollify(a, mol)) <= l2_norm(a) * (1 + 1e-14)


def test_linear_growth_additive_zero_sample():
    model = make_noise_model(G, "additive", amplitude=0.2, ratio=0.5, max_k=8)
    zero = SpectralField(G, np.zeros((3, 8, 8, 8), dtype=complex))
    rep = validate_linear_growth(model, [zero], n=5)
    assert abs(rep.empirical - model.linear_growth_bound(5)) < 1e-12
    assert rep.passed


def test_linear_growth_single_unit_multiplier():
    const = single_mode_scalar_field(G, (1, 0, 0), amplitude=1.0, flatness=0.0)
    model = NoiseModel("linear_multiplicative", G, 1, scalar_fields=(const,))
    for u in samples(3):
        rep = validate_linear_growth(model, [u], n=1)
        nu2 = l2_norm(u) ** 2
        assert abs(rep.empirical - nu2 / (1 + nu2)) < 1e-12
        assert rep.empirical < 1.0
        assert rep.passed


def test_linear_growth_cosine_geometric_bound():
    model = make_noise_model(G, "cosine", amplitude=1.0, ratio=0.5, max_k=10)
    rep = validate_linear_growth(model, samples(6), n=10)
    assert rep.analytic <= 1.0 / 3.0 + 1e-12
    assert rep.empirical <= rep.analytic * 1.05
    assert rep.passed


def test_linear_growth_requires_samples():
    model = make_noise_model(G, "additive", max_k=2)
    with pytest.raises(ConfigurationError):
        validate_linear_growth(model, [], n=2)


def test_tail_decay_curves():
    model = make_noise_model(G, "additive", amplitude=1.0, ratio=0.5, max_k=8)
    rep = validate_tail_decay(model, samples(3), [1, 2, 4, 8])
    assert rep.nonincreasing and rep.passed
    # N >= max_k with no geometric continuation beyond max_k: empirical tail = 0
    trunc = NoiseModel("additive", G, 4, vector_fields=model.vector_fields[:4])
    rep2 = validate_tail_decay(trunc, samples(2), [4, 5])
    assert rep2.empirical[0] == 0.0 and rep2.empirical[1] == 0.0

    cos = make_noise_model(G, "cosine", amplitude=1.0, ratio=0.5, max_k=12)
    rep3 = validate_tail_decay(cos, samples(4), [2])
    assert rep3.analytic[0] == pytest.approx(1.0 / 48.0, rel=1e-6)
    assert rep3.empirical[0] <= rep3.analytic[0] * 1.05
    assert rep3.passed


def test_tail_decay_rejects_unsorted():
    model = make_noise_model(G, "additive", max_k=4)
    with pytest.raises(ConfigurationError):
        validate_tail_decay(model, samples(1), [4, 2])


def test_vorticity_control_all_families():
    smooth = [random_solenoidal(G, seed=950 + i, amp=0.5, smooth=0.2) for i in range(5)]
    for kind in ["additive", "linear_multiplicative", "cosine"]:
        model = make_noise_model(G, kind, amplitude=0.3, ratio=0.5, max_k=6)
        rep = validate_vorticity_control(model, smooth, n=6)
        assert rep.passed, (kind, rep)

    # constant multiplicative scalar: curl(c u) = c curl(u)
    const = single_mode_scalar_field(G, (1, 0, 0), amplitude=0.8, flatness=0.0)
    model = NoiseModel("linear_multiplicative", G, 1, scalar_fields=(const,))
    rep = validate_vorticity_control(model, smooth, n=1)
    for u in smooth:
        got = l2_norm(curl(SpectralField(G, scatter(G, model.eval_all(1, u)[0]))))
        want = 0.8 * l2_norm(curl(u))
        assert abs(got - want) <= 1e-10 * want
    assert rep.passed


def test_validator_monotone_in_samples():
    model = make_noise_model(G, "cosine", amplitude=0.5, ratio=0.5, max_k=6)
    few = samples(2)
    more = few + samples(3, start=980)
    r1 = validate_linear_growth(model, few, n=6)
    r2 = validate_linear_growth(model, more, n=6)
    assert r2.empirical >= r1.empirical


def test_table_modes_on_the_nyquist_plane_are_rejected():
    # at M = 4 the table modes from k = 11 on have |n_i| = 2 = M/2, where the
    # +-n partners share one slot
    g4 = Grid(4)
    model = make_noise_model(g4, "additive", amplitude=0.1, ratio=0.5, max_k=10)
    assert np.allclose(model.l2_norms(), 0.1 * 0.5 ** np.arange(1, 11), rtol=1e-12)
    with pytest.raises(ConfigurationError, match=r"k=11 .*M=4"):
        make_noise_model(g4, "additive", amplitude=0.1, ratio=0.5, max_k=11)


def test_validators_synthesize_refined_sup_norms_once(monkeypatch):
    # the growth, tail and vorticity bounds share one model's sup norms on the
    # 2M grid: 64 fields and their 64 gradients, each synthesized once
    g16 = Grid(16)
    fields = [random_solenoidal(g16, seed=990 + i, amp=0.5) for i in range(3)]

    def model():
        return make_noise_model(g16, "linear_multiplicative", amplitude=0.3, max_k=64)

    validators = [lambda m: validate_linear_growth(m, fields, 8),
                  lambda m: validate_tail_decay(m, fields, [2, 4, 8, 64]),
                  lambda m: validate_vorticity_control(m, fields, 8)]
    alone = [v(model()) for v in validators]  # each on a model of its own

    import lsns.noise

    sizes = []

    def counted(f, p, grid=None):
        sizes.append(p)
        return synthesize(f, p, grid)

    monkeypatch.setattr(lsns.noise, "synthesize", counted)
    shared = model()
    assert [v(shared) for v in validators] == alone
    assert sizes.count(32) == 64 + 64
