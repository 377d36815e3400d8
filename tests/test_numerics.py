import math

import numpy as np
import pytest

from casdis import numerics as nm
from casdis.model import GumbelConfig
from casdis.numerics import Parameter, RngState


def max_rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(build, params, h=1e-5, tol=1e-4):
    """Analytic gradients of build() vs the central-difference oracle."""
    for p in params:
        p.reset_gradient()
    build().backward()
    analytic = [p.grad.copy() for p in params]
    estimates = nm.finite_difference_gradient(lambda: float(build().data), params, h=h)
    for p, a, e in zip(params, analytic, estimates):
        assert max_rel_err(a, e) < tol, f"gradient mismatch for {p.name}"


# ---------------------------------------------------------------------------
# softmax


def test_softmax_equal_logits_is_uniform():
    out = nm.softmax([0.0, 0.0, 0.0])
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_single_unmasked_position():
    out = nm.softmax([5.0, -123.0], mask=[True, False])
    assert out[0] == 1.0
    assert out[1] == 0.0


def test_softmax_two_logits_matches_direct_evaluation():
    # oracle: e^0.5 / (e^0.5 + e^0) computed directly
    expect = math.exp(0.5) / (math.exp(0.5) + 1.0)
    out = nm.softmax([0.5, 0.0])
    assert abs(out[0] - expect) < 1e-5
    assert abs(out[0] - 0.62246) < 1e-5
    assert abs(out[1] - 0.37754) < 1e-5


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=7) * 10
        shifted = nm.softmax(x + 123.456)
        assert np.max(np.abs(shifted - nm.softmax(x))) < 1e-9


def test_softmax_handles_large_logits():
    out = nm.softmax([1000.0, 1000.0, -1000.0])
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_errors():
    with pytest.raises(ValueError):
        nm.softmax([])
    with pytest.raises(ValueError):
        nm.softmax([1.0, 2.0], mask=[False, False])
    with pytest.raises(ValueError):
        nm.softmax([1.0, 2.0], mask=[True])


def test_softmax_masked_rows_are_exactly_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    mask = np.tril(np.ones((4, 6), dtype=bool))
    out = nm.softmax(x, mask)
    assert (out[~mask] == 0.0).all()
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# layer norm


def layer_norm(v, gain, bias):
    return nm.layer_norm_rows(np.asarray(v, dtype=np.float64), gain, bias).data


def test_layer_norm_constant_input_is_zero():
    out = layer_norm([1.0, 1.0, 1.0, 1.0], np.ones(4), np.zeros(4))
    assert np.allclose(out, 0.0)


def test_layer_norm_already_normalized():
    out = layer_norm([1.0, -1.0], np.ones(2), np.zeros(2))
    assert np.allclose(out, [1.0, -1.0], atol=1e-6)


def test_layer_norm_three_values():
    # oracle: (v - mean) / population std, computed directly
    v = np.array([1.0, 2.0, 3.0])
    expect = (v - v.mean()) / v.std()
    out = layer_norm(v, np.ones(3), np.zeros(3))
    assert np.max(np.abs(out - expect)) < 1e-6
    assert np.max(np.abs(out - [-1.22474, 0.0, 1.22474])) < 1e-4


def test_layer_norm_posts_on_random_input():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        v = rng.normal(size=d) * rng.uniform(0.5, 3.0)
        out = layer_norm(v, np.ones(d), np.zeros(d))
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6


def test_layer_norm_shape_mismatch():
    with pytest.raises(ValueError):
        layer_norm([1.0, 2.0, 3.0], np.ones(2), np.zeros(3))


# ---------------------------------------------------------------------------
# cosine similarity


def cosine(a, b):
    unit_a = nm.unit_rows(np.array([a], dtype=np.float64))
    unit_b = nm.unit_rows(np.array([b], dtype=np.float64))
    return float(nm.dot_rows(unit_a, unit_b).data[0, 0])


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_parallel_scale_invariant():
    assert cosine([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_45_degrees():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-5)


def test_cosine_scale_invariance_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=5)
        c = rng.uniform(0.1, 10.0)
        assert abs(cosine(c * a, b) - cosine(a, b)) < 1e-9


def test_cosine_bounded_and_zero_norm_safe():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9
    # clamped denominator, no division error
    out = cosine([0.0, 0.0], [1.0, 0.0])
    assert np.isfinite(out)


# ---------------------------------------------------------------------------
# gumbel softmax, as the model draws it: softmax((logits + g) / tau)


class _ConstantRng:
    """Stand-in rng whose uniform draws are all the same value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        return np.full(size, self.value) if size is not None else self.value


def gumbel_softmax(logits, tau, rng):
    x = np.asarray(logits, dtype=np.float64)
    return nm.softmax_rows(x + nm.gumbel_noise(x.shape, rng), scale=1.0 / tau).data


def test_gumbel_equal_logits_identical_noise():
    out = gumbel_softmax([0.0, 0.0], tau=1.0, rng=_ConstantRng(0.37))
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_gumbel_single_element():
    out = gumbel_softmax([3.7], tau=1.0, rng=RngState(1))
    assert np.allclose(out, [1.0])


def test_gumbel_invalid_tau():
    with pytest.raises(ValueError):
        GumbelConfig(tau=0.0, rng=RngState(1))
    with pytest.raises(ValueError):
        GumbelConfig(tau=-1.0, rng=RngState(1))


def test_gumbel_output_is_probability_vector():
    rng = RngState(2)
    for _ in range(50):
        out = gumbel_softmax([0.3, -1.0, 2.0], tau=0.7, rng=rng)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()


def test_gumbel_bit_reproducible():
    a = [gumbel_softmax([0.5, 1.5, -0.5], 1.0, RngState(99)) for _ in range(3)][0]
    b = gumbel_softmax([0.5, 1.5, -0.5], 1.0, RngState(99))
    assert (a == b).all()


def test_gumbel_argmax_frequency_matches_gumbel_max():
    # oracle: P(argmax = 0) for logits [ln 3, 0] is 3/4 by the Gumbel-max property
    logits = np.array([math.log(3.0), 0.0])
    noise = nm.gumbel_noise((100_000, 2), RngState(12345))
    wins = ((logits + noise).argmax(axis=1) == 0).mean()
    assert abs(wins - 0.75) < 0.01


# ---------------------------------------------------------------------------
# finite differences


def test_fd_of_square():
    p = Parameter(np.array([3.0]), "x")
    (grad,) = nm.finite_difference_gradient(lambda: float(p.data[0] ** 2), [p], h=1e-4)
    assert abs(grad[0] - 6.0) < 1e-6


def test_fd_of_constant_function():
    p = Parameter(np.array([0.4, -1.2, 0.0]), "x")
    (grad,) = nm.finite_difference_gradient(lambda: float(nm.softmax(p.data).sum()), [p], h=1e-5)
    assert np.max(np.abs(grad)) < 1e-7


def test_fd_restores_values():
    p = Parameter(np.array([1.0, 2.0]), "x")
    before = p.data.copy()
    nm.finite_difference_gradient(lambda: float(p.data.sum()), [p])
    assert (p.data == before).all()


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        nm.finite_difference_gradient(lambda: 0.0, [], h=0.0)


# ---------------------------------------------------------------------------
# analytic gradients of every primitive vs the oracle


def test_grad_matmul_2d_2d():
    rng = np.random.default_rng(10)
    a = Parameter(rng.normal(size=(5, 7)), "a")
    b = Parameter(rng.normal(size=(7, 3)), "b")
    w = rng.normal(size=(5, 3))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.matmul(a, b), w)), [a, b])


def test_grad_matmul_vector_cases():
    # vector operands have no backward rule, so they are refused
    a = Parameter(np.ones((6, 4)), "a")
    for left, right in ((a, np.ones(4)), (np.ones(6), a), (np.ones(6), np.ones(6))):
        with pytest.raises(ValueError):
            nm.matmul(left, right)


def test_grad_add_sub_mul_broadcast():
    rng = np.random.default_rng(12)
    a = Parameter(rng.normal(size=(4, 5)), "a")
    b = Parameter(rng.normal(size=5), "b")
    w = rng.normal(size=(4, 5))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.add(a, b), w)), [a, b])
    check_gradients(lambda: nm.sum_all(nm.mul(nm.sub(a, b), w)), [a, b])
    check_gradients(lambda: nm.sum_all(nm.mul(nm.mul(a, b), w)), [a, b])
    check_gradients(lambda: nm.sum_all(nm.mul(nm.sub(1.0, a), w)), [a])


def test_grad_sigmoid_tanh():
    rng = np.random.default_rng(13)
    x = Parameter(rng.normal(size=(8, 8)) * 2, "x")
    w = rng.normal(size=(8, 8))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.sigmoid(x), w)), [x])
    check_gradients(lambda: nm.sum_all(nm.mul(nm.tanh(x), w)), [x])


def test_grad_softmax_rows():
    rng = np.random.default_rng(14)
    x = Parameter(rng.normal(size=(4, 6)), "x")
    w = rng.normal(size=(4, 6))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.softmax_rows(x, scale=0.5), w)), [x])
    mask = np.tril(np.ones((4, 6), dtype=bool))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.softmax_rows(x, mask=mask, scale=1.3), w)), [x])


def test_grad_layer_norm_rows():
    rng = np.random.default_rng(15)
    x = Parameter(rng.normal(size=(5, 6)), "x")
    gain = Parameter(rng.uniform(0.5, 1.5, size=6), "gain")
    bias = Parameter(rng.normal(size=6), "bias")
    w = rng.normal(size=(5, 6))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.layer_norm_rows(x, gain, bias), w)), [x, gain, bias])
    x3 = Parameter(rng.normal(size=(3, 2, 6)), "x3")
    w3 = rng.normal(size=(3, 2, 6))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.layer_norm_rows(x3, gain, bias), w3)), [x3, gain, bias])


def test_grad_unit_rows_and_cosine():
    rng = np.random.default_rng(16)
    a = Parameter(rng.normal(size=(3, 5)), "a")
    b = Parameter(rng.normal(size=(4, 5)), "b")
    w = rng.normal(size=(3, 4))

    def cos_matrix():
        return nm.sum_all(nm.mul(nm.dot_rows(nm.unit_rows(a), nm.unit_rows(b)), w))

    check_gradients(cos_matrix, [a, b])


def test_grad_gumbel_with_frozen_noise():
    rng = np.random.default_rng(17)
    logits = Parameter(rng.normal(size=(3, 4)), "logits")
    noise = nm.gumbel_noise((3, 4), RngState(5))
    w = rng.normal(size=(3, 4))
    tau = 0.8

    def sample():
        noisy = nm.add(nm.mul(logits, 0.5), noise)
        return nm.sum_all(nm.mul(nm.softmax_rows(noisy, scale=1.0 / tau), w))

    check_gradients(sample, [logits])


def test_grad_gather_stack():
    rng = np.random.default_rng(18)
    x = Parameter(rng.normal(size=(6, 4)), "x")
    idx = np.array([0, 2, 2, 5])  # duplicate rows must accumulate
    w = rng.normal(size=(4, 4))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.gather_rows(x, idx), w)), [x])
    w2 = rng.normal(size=(2, 2, 4))
    check_gradients(
        lambda: nm.sum_all(
            nm.mul(nm.stack_rows([nm.gather_rows(x, [1, 4]), nm.gather_rows(x, [4, 0])]), w2)
        ),
        [x],
    )


def test_grad_weighted_mix():
    rng = np.random.default_rng(19)
    alpha = Parameter(rng.uniform(size=(4, 4)), "alpha")
    beta = Parameter(rng.uniform(size=(4, 3)), "beta")
    states = Parameter(rng.normal(size=(4, 5)), "states")
    w = rng.normal(size=(4, 3, 5))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.weighted_mix(alpha, beta, states), w)), [alpha, beta, states])


def test_grad_max_logsumexp_take():
    rng = np.random.default_rng(20)
    x = Parameter(rng.normal(size=(4, 3, 6)), "x")
    w = rng.normal(size=(4, 6))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.max_over_axis(x, axis=1), w)), [x])
    y = Parameter(rng.normal(size=(5, 7)), "y")
    w2 = rng.normal(size=5)
    check_gradients(lambda: nm.sum_all(nm.mul(nm.logsumexp(y), w2)), [y])
    idx = np.array([1, 6, 0, 3, 3])
    check_gradients(lambda: nm.sum_all(nm.mul(nm.take_per_row(y, idx), w2)), [y])


def test_grad_fused_recurrence_ops():
    rng = np.random.default_rng(23)
    a = Parameter(rng.normal(size=(5, 4)), "a")
    h = Parameter(rng.normal(size=4), "h")
    u = Parameter(rng.normal(size=(4, 4)), "u")
    w = rng.normal(size=4)
    check_gradients(lambda: nm.sum_all(nm.mul(nm.gate_preact(a, 2, h, u), w)), [a, h, u])
    z = Parameter(rng.uniform(0.1, 0.9, size=4), "z")
    cand = Parameter(rng.normal(size=4), "cand")
    check_gradients(lambda: nm.sum_all(nm.mul(nm.gru_blend(z, h, cand), w)), [z, h, cand])
    # fused forms agree with the plain formulas
    assert np.max(np.abs(a.data[2] + h.data @ u.data - nm.gate_preact(a, 2, h, u).data)) < 1e-15
    blend = (1.0 - z.data) * h.data + z.data * cand.data
    assert np.max(np.abs(blend - nm.gru_blend(z, h, cand).data)) < 1e-15


def test_grad_dot_rows_2d():
    rng = np.random.default_rng(21)
    y = Parameter(rng.normal(size=(3, 4)), "y")
    m = Parameter(rng.normal(size=(5, 4)), "m")
    w = rng.normal(size=(3, 5))
    check_gradients(lambda: nm.sum_all(nm.mul(nm.dot_rows(y, m), w)), [y, m])


def test_gradient_accumulation_until_reset():
    p = Parameter(np.array([2.0]), "p")
    nm.sum_all(nm.mul(p, 3.0)).backward()
    nm.sum_all(nm.mul(p, 3.0)).backward()
    assert p.grad[0] == pytest.approx(6.0)
    p.reset_gradient()
    assert p.grad[0] == 0.0


def test_finite_outputs_on_random_pipelines():
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = Parameter(rng.normal(size=(5, 6)) * 50, "x")
        out = nm.layer_norm_rows(nm.softmax_rows(x, scale=2.0), np.ones(6), np.zeros(6))
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# rng streams


def test_rng_same_seed_same_stream():
    a, b = RngState(42), RngState(42)
    assert (a.uniform(10) == b.uniform(10)).all()
    assert (a.integers(0, 100, size=5) == b.integers(0, 100, size=5)).all()


def test_rng_named_streams_differ_and_are_stable():
    split1 = RngState.derive(7, "split")
    split2 = RngState.derive(7, "split")
    init = RngState.derive(7, "init")
    assert split1.seed == split2.seed
    assert split1.seed != init.seed
    assert (split1.uniform(5) == split2.uniform(5)).all()
