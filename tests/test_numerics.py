import math

import numpy as np
import pytest

from casdis import numerics as nm
from casdis.model import GumbelConfig
from casdis.numerics import Parameter, RngState, Tensor

from finite_difference import finite_difference_gradient


def max_rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_rule(f, grads, params, h=1e-5, tol=1e-4):
    """Gradients of the scalar f() given by a kernel's backward rule vs the
    central-difference oracle."""
    estimates = finite_difference_gradient(f, params, h=h)
    for p, g, e in zip(params, grads, estimates):
        assert max_rel_err(g, e) < tol, f"gradient mismatch for {p.name}"


# ---------------------------------------------------------------------------
# softmax


def softmax(logits, mask=None):
    return nm.softmax_rows(logits, mask)[0]


def test_softmax_equal_logits_is_uniform():
    out = softmax([0.0, 0.0, 0.0])
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_single_unmasked_position():
    out = softmax([5.0, -123.0], mask=[True, False])
    assert out[0] == 1.0
    assert out[1] == 0.0


def test_softmax_two_logits_matches_direct_evaluation():
    # oracle: e^0.5 / (e^0.5 + e^0) computed directly
    expect = math.exp(0.5) / (math.exp(0.5) + 1.0)
    out = softmax([0.5, 0.0])
    assert abs(out[0] - expect) < 1e-5
    assert abs(out[0] - 0.62246) < 1e-5
    assert abs(out[1] - 0.37754) < 1e-5


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=7) * 10
        shifted = softmax(x + 123.456)
        assert np.max(np.abs(shifted - softmax(x))) < 1e-9


def test_softmax_handles_large_logits():
    out = softmax([1000.0, 1000.0, -1000.0])
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-9


def test_softmax_errors():
    with pytest.raises(ValueError):
        nm.softmax_rows([])
    with pytest.raises(ValueError):
        nm.softmax_rows([1.0, 2.0], mask=[False, False])
    with pytest.raises(ValueError):
        nm.softmax_rows([1.0, 2.0], mask=[True])


def test_softmax_masked_rows_are_exactly_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    mask = np.tril(np.ones((4, 6), dtype=bool))
    out = softmax(x, mask)
    assert (out[~mask] == 0.0).all()
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# layer norm


def layer_norm(v, gain, bias):
    return nm.layer_norm_rows(np.asarray(v, dtype=np.float64), gain, bias)[0]


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
    unit_a, _ = nm.unit_rows(np.array([a], dtype=np.float64))
    unit_b, _ = nm.unit_rows(np.array([b], dtype=np.float64))
    return float(np.einsum("...d,rd->...r", unit_a, unit_b)[0, 0])


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
# the row dot product against its einsum definition


def test_dot_rows_matches_einsum_definition():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(7, 5))
    for shape in ((5,), (3, 5), (4, 2, 5)):
        x = rng.normal(size=shape)
        out = nm.dot_rows(x, rows)
        assert out.shape == shape[:-1] + (7,)
        assert max_rel_err(out, np.einsum("...d,rd->...r", x, rows)) < 1e-12


def test_stacked_blocks_match_the_kernels_block_by_block():
    rng = np.random.default_rng(11)
    b, rows, total, d = 3, 4, 6, 5
    x, blocks = rng.normal(size=(b, rows, d)), rng.normal(size=(b, total, d))
    dots = nm.dot_rows(x, blocks)
    assert dots.shape == (b, rows, total)
    for i in range(b):
        assert max_rel_err(dots[i], nm.dot_rows(x[i], blocks[i])) < 1e-12


def _sigmoid_inputs():
    special = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan, 36.7, -745.2]
    return np.concatenate([np.random.default_rng(12).normal(scale=8.0, size=10**5), special])


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    x = _sigmoid_inputs()
    with np.errstate(over="ignore"):
        got, expect = nm.sigmoid(x), two_branch(x)
    # a NaN stays a NaN; its sign bit carries no value
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 1
    assert np.array_equal(got[~nan].view(np.uint64), expect[~nan].view(np.uint64))
    assert got[-5] == 1.0 and got[-4] == 0.0
    grid = x[:35 * 64].reshape(35, 64)
    assert np.array_equal(nm.sigmoid(grid).view(np.uint64), two_branch(grid).view(np.uint64))


def test_sigmoid_in_place_gives_the_same_bits():
    # the GRU writes each step's gates over their pre-activations, a strided view of a bigger block
    x = _sigmoid_inputs()
    grid = x[:35 * 64].reshape(35, 64)
    for buf in (x.copy(), grid.copy(), grid.copy()[:, 32:]):
        expect = nm.sigmoid(buf)
        assert nm.sigmoid(buf, out=buf) is buf
        assert np.array_equal(buf.view(np.uint64), expect.view(np.uint64))


# ---------------------------------------------------------------------------
# gumbel softmax, as the model draws it: softmax((logits + g) / tau)


class _ConstantRng(RngState):
    """Stand-in rng whose uniform draws in [0, 1) are all the same value."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value) if size is not None else self.value


def gumbel_softmax(logits, tau, rng):
    x = np.asarray(logits, dtype=np.float64)
    return softmax(1.0 / tau * (x + rng.clipped_gumbel(x.shape)))


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
    noise = RngState(12345).clipped_gumbel((100_000, 2))
    wins = ((logits + noise).argmax(axis=1) == 0).mean()
    assert abs(wins - 0.75) < 0.01


# ---------------------------------------------------------------------------
# the finite-difference oracle (tests/finite_difference.py)


def test_fd_of_square():
    p = Parameter(np.array([3.0]), "x")
    (grad,) = finite_difference_gradient(lambda: float(p.data[0] ** 2), [p], h=1e-4)
    assert abs(grad[0] - 6.0) < 1e-6


def test_fd_of_constant_function():
    p = Parameter(np.array([0.4, -1.2, 0.0]), "x")
    (grad,) = finite_difference_gradient(lambda: float(softmax(p.data).sum()), [p], h=1e-5)
    assert np.max(np.abs(grad)) < 1e-7


def test_fd_restores_values():
    p = Parameter(np.array([1.0, 2.0]), "x")
    before = p.data.copy()
    finite_difference_gradient(lambda: float(p.data.sum()), [p])
    assert (p.data == before).all()


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda: 0.0, [], h=0.0)


# ---------------------------------------------------------------------------
# the backward each kernel returns vs the oracle, each for sum(w * kernel(x))


def test_grad_softmax_rows():
    rng = np.random.default_rng(14)
    x = Parameter(rng.normal(size=(4, 6)), "x")
    w = rng.normal(size=(4, 6))
    mask = np.tril(np.ones((4, 6), dtype=bool))
    for scale, m in ((0.5, None), (1.3, mask)):
        grad = scale * nm.softmax_rows(scale * x.data, m)[1](w)
        check_rule(lambda: (w * softmax(scale * x.data, m)).sum(), [grad], [x])


def test_grad_layer_norm_rows():
    # all three gradients the backward gives: the rows, and the gain and bias summed over every leading axis
    rng = np.random.default_rng(15)
    gain = Parameter(rng.uniform(0.5, 1.5, size=6), "gain")
    bias = Parameter(rng.normal(size=6), "bias")
    for shape in ((5, 6), (3, 2, 6), (2, 3, 2, 6)):
        x = Parameter(rng.normal(size=shape), "x")
        w = rng.normal(size=shape)
        grads = nm.layer_norm_rows(x.data, gain.data, bias.data)[1](w)
        assert [g.shape for g in grads] == [shape, (6,), (6,)]
        check_rule(lambda: (w * nm.layer_norm_rows(x.data, gain.data, bias.data)[0]).sum(), grads, [x, gain, bias])


def test_grad_unit_rows_and_cosine():
    # the model's cosine matrix unit(a) @ unit(b).T
    rng = np.random.default_rng(16)
    a = Parameter(rng.normal(size=(3, 5)), "a")
    b = Parameter(rng.normal(size=(4, 5)), "b")
    w = rng.normal(size=(3, 4))
    (ua, a_backward), (ub, b_backward) = nm.unit_rows(a.data), nm.unit_rows(b.data)
    grads = [a_backward(w @ ub), b_backward(w.T @ ua)]
    check_rule(lambda: (w * (nm.unit_rows(a.data)[0] @ nm.unit_rows(b.data)[0].T)).sum(), grads, [a, b])
    # below the clamp the norm is a constant and only the direct term remains
    tiny = np.full((1, 3), 1e-14)
    assert (nm.unit_rows(tiny)[1](np.ones((1, 3))) == 1.0 / nm.NORM_FLOOR).all()


def test_grad_gumbel_with_frozen_noise():
    # the model's factor softmax: softmax((scale * logits + g) / tau)
    rng = np.random.default_rng(17)
    logits = Parameter(rng.normal(size=(3, 4)), "logits")
    noise = RngState(5).clipped_gumbel((3, 4))
    w = rng.normal(size=(3, 4))
    scale, tau = 0.5, 0.8

    def sample():
        return nm.softmax_rows(1.0 / tau * (logits.data * scale + noise))

    grad = scale / tau * sample()[1](w)
    check_rule(lambda: (w * sample()[0]).sum(), [grad], [logits])


def test_gradient_accumulation_until_reset():
    p = Parameter(np.array([2.0]), "p")

    def backward(g):
        p.grad += 3.0 * g

    loss = Tensor(3.0 * p.data.sum(), backward)
    loss.backward()
    loss.backward(0.5)
    assert p.grad[0] == pytest.approx(4.5)
    p.reset_gradient()
    assert p.grad[0] == 0.0
    with pytest.raises(ValueError):
        loss.backward(np.ones(2))


def test_finite_outputs_on_random_pipelines():
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = rng.normal(size=(5, 6)) * 50
        out, _ = nm.layer_norm_rows(softmax(2.0 * x), np.ones(6), np.zeros(6))
        assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# rng streams


def test_rng_same_seed_same_stream():
    a, b = RngState(42), RngState(42)
    assert (a.random(10) == b.random(10)).all()
    assert (a.integers(0, 100, size=5) == b.integers(0, 100, size=5)).all()


def test_rng_is_numpys_pcg64_generator_with_its_seed_kept():
    # numpy's own methods and signatures, gumbel(loc, scale, size) included; a seed wraps mod 2**64
    for seed, kept in ((3, 3), (np.int64(3), 3), (-1, 2**64 - 1), (2**64 + 5, 5)):
        rng, plain = RngState(seed), np.random.Generator(np.random.PCG64(kept))
        assert rng.seed == kept
        for draw in (lambda g: g.random(4), lambda g: g.uniform(-2.0, 2.0, (2, 3)), lambda g: g.integers(7, size=5),
                     lambda g: g.permutation(6), lambda g: g.gumbel(0.5, 2.0, 3)):
            assert draw(rng).tobytes() == draw(plain).tobytes()
    assert RngState.derive(np.int32(7), "split").seed == RngState.derive(7, "split").seed


@pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("entry", [RngState, lambda seed: RngState.derive(seed, "split")], ids=["RngState", "derive"])
def test_rng_refuses_a_seed_that_is_not_an_integer(entry, seed):
    # each was cut to an integer: 1.5 and True seeded as 1, "7" as 7
    with pytest.raises(ValueError, match="integer"):
        entry(seed)


def test_rng_named_streams_differ_and_are_stable():
    split1 = RngState.derive(7, "split")
    split2 = RngState.derive(7, "split")
    init = RngState.derive(7, "init")
    assert split1.seed == split2.seed
    assert split1.seed != init.seed
    assert (split1.random(5) == split2.random(5)).all()
