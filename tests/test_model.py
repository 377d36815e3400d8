import hashlib
import math
import re

import numpy as np
import pytest

from casdis import model as md
from casdis import training as tr
from casdis.data import DatasetSplit
from casdis.numerics import RngState, sigmoid

from finite_difference import finite_difference_gradient
from test_cli import _rewrite_header
from test_numerics import max_rel_err


def check_gradients(build, params, seed=1.0, h=1e-5, tol=1e-4):
    """Closed-form gradients of the loss build() returns vs the
    central-difference oracle.  The backward runs twice on one loss, seeded
    with ``seed`` each time, so the gradients must add up to 2 * seed times
    the derivative."""
    for p in params:
        p.reset_gradient()
    loss = build()
    loss.backward(seed)
    loss.backward(seed)
    estimates = finite_difference_gradient(lambda: float(build().data), params, h=h)
    for p, e in zip(params, estimates):
        assert max_rel_err(p.grad, 2.0 * seed * e) < tol, f"gradient mismatch for {p.name}"


def small_params(num_nodes=6, dim=4, factors=3, seed=0):
    return md.init_params(num_nodes, dim, factors, RngState(seed))


def numpy_oracle(params, cascade):
    """Straight-line numpy model, one prefix at a time, sharing no code with
    the package: GRU, causal attention, K cosine-softmax factor weights,
    layer norm, max-over-factors scores.

    Returns (scores, losses): scores[t] ranks the node after cascade[:t+1],
    and losses[t] = -log softmax(scores[t])[cascade[t+1]].
    """
    X = params.embeddings.data
    n, d = params.num_nodes, params.dim
    scale = 1.0 / math.sqrt(d)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def unit(v):
        return v / max(np.linalg.norm(v), 1e-12)

    def softmax(x):
        e = np.exp(x - x.max())
        return e / e.sum()

    h = np.zeros(d)
    history = []
    for v in cascade:
        x = X[v]
        z = sig(x @ params.w_z.data + h @ params.u_z.data + params.b_z.data)
        r = sig(x @ params.w_r.data + h @ params.u_r.data + params.b_r.data)
        cand = np.tanh(x @ params.w_h.data + (r * h) @ params.u_h.data + params.b_h.data)
        h = (1.0 - z) * h + z * cand
        history.append(h)
    H = np.array(history)
    protos = [unit(p) for p in params.prototypes.data]
    B = np.array([softmax(np.array([unit(hi) @ p for p in protos]) * scale) for hi in H])

    scores = []
    for t in range(len(H)):
        a = softmax(H[: t + 1] @ H[t] * scale)
        best = np.full(n, -np.inf)
        for k in range(params.factors):
            agg = ((a * B[: t + 1, k])[:, None] * H[: t + 1]).sum(axis=0)
            y = (agg - agg.mean()) / np.sqrt(agg.var() + 1e-8)
            y = y * params.ln_gain.data + params.ln_bias.data
            best = np.maximum(best, X[:n] @ y * scale)
        scores.append(best)
    losses = []
    for t in range(len(cascade) - 1):
        s = scores[t]
        m = s.max()
        losses.append(m + math.log(np.exp(s - m).sum()) - s[cascade[t + 1]])
    return np.array(scores), np.array(losses)


def random_model(rng, factors, seed):
    """Small model with non-trivial layer-norm gain and bias."""
    n = int(rng.integers(3, 9))
    params = md.init_params(n, int(rng.integers(2, 7)), factors, RngState(seed))
    params.ln_gain.data[:] = rng.uniform(0.5, 1.5, params.dim)
    params.ln_bias.data[:] = rng.normal(scale=0.3, size=params.dim)
    cascade = rng.integers(0, n, size=int(rng.integers(2, 8))).tolist()
    return params, cascade


# ---------------------------------------------------------------------------
# single-position behaviour, seen through prefix_scores


def test_gru_step_all_zero_weights():
    # a zero recurrent state layer-normalizes to the zero bias: every score is 0
    params = small_params()
    for name, p in params.named_parameters():
        if name.startswith(("w_", "u_", "b_")):
            p.data[:] = 0.0
    assert (md.prefix_scores(params, [2, 0, 5]) == 0.0).all()


def test_gru_step_deterministic():
    params = small_params()
    a = md.prefix_scores(params, [1, 3, 1])
    b = md.prefix_scores(params, [1, 3, 1])
    assert (a == b).all()


def test_gru_step_index_out_of_range():
    params = small_params()
    with pytest.raises(ValueError):
        md.prefix_scores(params, [0, 6])
    with pytest.raises(ValueError):
        md.prefix_scores(params, [-1, 0])


def test_attention_single_position():
    # causal mask: the first row sees only the first node
    params = small_params(num_nodes=9, dim=6, factors=2, seed=8)
    full = md.prefix_scores(params, [4, 1, 7, 2])
    alone = md.prefix_scores(params, [4])
    assert np.max(np.abs(full[0] - alone[0])) < 1e-12


def test_attention_empty_errors():
    with pytest.raises(ValueError):
        md.prefix_scores(small_params(), [])


def test_factor_weights_single_factor():
    # one factor takes weight exactly 1 whatever its prototype
    params = small_params(factors=1)
    before = md.prefix_scores(params, [0, 1, 2])
    params.prototypes.data[:] = RngState(1).uniform(-5, 5, (1, 4))
    assert (md.prefix_scores(params, [0, 1, 2]) == before).all()


def test_factor_weights_gumbel_only_in_training():
    params = small_params(seed=4)
    cascade = [0, 3, 4, 1]
    plain = md.forward_cascade(params, cascade).step_losses
    rng = RngState(9)
    gum = md.GumbelConfig(tau=1.0, rng=rng)
    evaluated = md.forward_cascade(params, cascade, gumbel=gum, training=False)
    assert (evaluated.step_losses == plain).all()
    assert (rng.random(3) == RngState(9).random(3)).all()  # no noise drawn
    noiseless = md.forward_cascade(params, cascade, training=True).step_losses
    assert (noiseless == plain).all()
    noisy = md.forward_cascade(params, cascade, gumbel=gum, training=True).step_losses
    assert not np.allclose(noisy, plain)


def test_score_excludes_padding_row():
    params = small_params(num_nodes=4, dim=4, factors=2, seed=11)
    params.embeddings.data[params.pad_index] = 1e6  # huge pad row must not appear
    scores = md.prefix_scores(params, [0, 3, 1])
    assert scores.shape == (3, 4)
    assert np.all(np.abs(scores) < 1e3)


def test_step_loss_uniform_scores():
    for n in (2, 7):
        params = small_params(num_nodes=n, dim=4, factors=2, seed=12)
        params.embeddings.data[:] = params.embeddings.data[0]  # identical nodes
        out = md.forward_cascade(params, [0, 1, 1, 0])
        assert np.max(np.abs(out.step_losses - math.log(n))) < 1e-9


def test_step_loss_gradients_through_whole_pipeline():
    # Gumbel noise and dropout on, each redrawn identically per evaluation
    params = small_params(num_nodes=3, dim=4, factors=2, seed=13)

    def build():
        return md.forward_cascade(
            params, [0, 2, 1], gumbel=md.GumbelConfig(tau=0.7, rng=RngState(4)),
            training=True, dropout_rate=0.2, dropout_rng=RngState(5),
        ).loss

    check_gradients(build, params.parameters())


@pytest.mark.parametrize("factors, cascade, tau, dropout", [
    (1, [0, 3, 2, 5, 1], None, 0.0),
    (2, [4, 1, 4, 4, 0, 2], 1.0, 0.0),     # node 4 is infected three times
    (2, [5, 0, 3, 1], 1.6, 0.3),
    (4, [2, 5, 2, 0, 2, 3, 1], 0.5, 0.3),  # node 2 again, Gumbel and dropout on
], ids=["k1", "k2-repeated-node", "k2-gumbel-dropout", "k4-repeated-node-gumbel-dropout"])
def test_gradients_match_finite_differences(factors, cascade, tau, dropout):
    params = small_params(num_nodes=6, dim=4, factors=factors, seed=30 + factors)
    params.ln_gain.data[:] = [0.7, 1.3, 0.9, 1.1]
    params.ln_bias.data[:] = [0.2, -0.1, 0.0, 0.3]

    def build():
        gumbel = None if tau is None else md.GumbelConfig(tau=tau, rng=RngState(6))
        return md.forward_cascade(
            params, cascade, gumbel=gumbel, training=True,
            dropout_rate=dropout, dropout_rng=RngState(7),
        ).loss

    check_gradients(build, params.parameters(), seed=0.3)


def _routed_gradients(params, ys, first, d_scores):
    """The gradients w.r.t. ``ys`` and the table of sum(d_scores * scores) when the gradient
    of the score of node n at step t goes to factor ``first[t, n]`` alone."""
    n, d = params.num_nodes, params.dim
    d_pf = np.zeros(ys.shape[:2] + (n,))
    np.put_along_axis(d_pf, first[:, None], (d_scores * (1.0 / math.sqrt(d)))[:, None], axis=1)
    d_ys = (d_pf.reshape(-1, n) @ params.embeddings.data[:n]).reshape(ys.shape)
    return d_ys, (ys.reshape(-1, d).T @ d_pf.reshape(-1, n)).T


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("factors", [1, 2, 3, 4, 300])
@pytest.mark.parametrize("data", ["dyadic", "normal", "nan"])
def test_scores_equal_the_max_of_the_scaled_product(factors, data):
    # max-then-scale against scale-then-max: D = 6 makes the scale 1/sqrt(6) round,
    # dyadic candidates and table tie exactly across factors and nodes, and a NaN
    # in a candidate or a table row must reach the same scores, with or without a gradient.
    # The backward routes each score's gradient to the first factor of the maximum; at
    # K = 300 that factor's index needs more than 8 bits
    rng = np.random.default_rng(42 + factors)
    params = small_params(num_nodes=40, dim=6, factors=factors, seed=42 + factors)
    if data == "normal":
        ys = rng.normal(size=(9, factors, 6))
    else:
        ys = rng.integers(-2, 3, size=(9, factors, 6)) / 4
        params.embeddings.data[:] = rng.integers(-2, 3, size=params.embeddings.data.shape) / 4
    if data == "nan":
        ys[2, factors - 1, 3] = np.nan
        params.embeddings.data[5, 0] = np.nan
    per_factor = (ys.reshape(-1, 6) @ params.embeddings.data[:40].T).reshape(9, factors, 40)
    want = np.max(per_factor * (1.0 / math.sqrt(6)), axis=1)
    scores, backward = md._score_rows(params, ys, True)
    plain, none = md._score_rows(params, ys, False)
    assert none is None
    assert np.array_equal(scores, want, equal_nan=True) and np.array_equal(plain, want, equal_nan=True)
    if data == "dyadic":
        assert (np.diff(np.sort(plain, axis=1), axis=1) == 0).any(axis=1).all()
    if data == "nan":
        assert np.isnan(plain[2]).all() and np.isnan(plain[:, 5]).all()
        assert np.isfinite(np.delete(np.delete(plain, 2, axis=0), 5, axis=1)).all()
        return  # the NaN table row makes every entry of d_ys NaN, so the routing is read off the other data
    first = np.argmax(per_factor, axis=1)
    if factors > 256:
        assert (first > 255).any()
    params.reset_gradients()
    d_scores = rng.normal(size=scores.shape)
    want_ys, want_table = _routed_gradients(params, ys, first, d_scores)
    assert _close(backward(d_scores), want_ys) and _close(params.embeddings.grad[:40], want_table)


def test_backward_routes_to_the_unscaled_maximum_when_the_scaled_values_tie():
    # factor 1's product is one ulp above factor 0's, and both round to the same
    # score once scaled by 1/sqrt(6): the gradient goes to factor 1, the true maximum
    scale, x = 1.0 / math.sqrt(6), 1.5
    while scale * x != scale * np.nextafter(x, np.inf):
        x = np.nextafter(x, np.inf)
    params = small_params(num_nodes=5, dim=6, factors=2, seed=44)
    params.embeddings.data[:5] = np.eye(6)[0]
    ys = np.zeros((3, 2, 6))
    ys[:, 0, 0], ys[:, 1, 0] = x, np.nextafter(x, np.inf)
    scores, backward = md._score_rows(params, ys, True)
    assert (scores == scale * x).all()
    params.reset_gradients()
    d_ys = backward(np.ones(scores.shape))
    assert (d_ys[:, 0] == 0).all() and (d_ys[:, 1, 0] != 0).all()


@pytest.mark.parametrize("factors", [2, 3])
def test_backward_routes_exact_ties_to_the_first_factor(factors):
    # prototype 1 equal to prototype 0 makes factors 0 and 1 score every
    # candidate exactly alike, so finite differences cannot pin the routing
    params = small_params(num_nodes=9, dim=4, factors=factors, seed=40 + factors)
    params.prototypes.data[1] = params.prototypes.data[0]
    prefix, lengths = np.array([3, 0, 7, 3, 5, 1]), np.array([6])
    hidden, gru_backward = md._recurrence(params, prefix[None], lengths, 0.0, None)
    ys, head_backward = md._head(params, hidden, lengths, None)
    scores, score_backward = md._score_rows(params, ys[0], True)
    d_scores = np.random.default_rng(41).normal(size=scores.shape)

    # reference: the first argmax of the (t, K, N) products gets the gradient
    per_factor = (ys[0].reshape(-1, params.dim) @ params.embeddings.data[:9].T).reshape(ys.shape[1:3] + (9,))
    assert (per_factor[:, 0] == per_factor[:, 1]).all()
    first = np.argmax(per_factor, axis=1)
    assert (first == 0).any() and (first != 1).all()
    d_ys, d_table = _routed_gradients(params, ys[0], first, d_scores)
    params.reset_gradients()
    params.embeddings.grad[:9] += d_table
    gru_backward(head_backward(d_ys[None]))
    want = [p.grad.copy() for p in params.parameters()]

    # the stages' own backward, composed as forward_cascade composes them
    params.reset_gradients()
    gru_backward(head_backward(score_backward(d_scores)[None]))
    for p, w in zip(params.parameters(), want):
        assert _close(p.grad, w), p.name


# ---------------------------------------------------------------------------
# forward_cascade


def test_forward_length_two_has_one_step():
    params = small_params()
    out = md.forward_cascade(params, [1, 4])
    assert out.step_losses.shape == (1,)
    assert abs(float(out.loss.data) - out.step_losses[0]) < 1e-12


def test_forward_degenerate_cascade():
    # refused like every other cascade, with a ValueError
    params = small_params()
    with pytest.raises(ValueError, match="no prediction point"):
        md.forward_cascade(params, [3])
    with pytest.raises(ValueError, match="no prediction point"):
        md.forward_cascade(params, [])


def test_forward_rejects_bad_indices():
    params = small_params()
    with pytest.raises(ValueError):
        md.forward_cascade(params, [0, 6])
    with pytest.raises(ValueError):
        md.forward_cascade(params, [-1, 0])


@pytest.mark.parametrize("call", [
    lambda params, cascade: md.forward_cascade(params, cascade),
    lambda params, cascade: md.prefix_scores(params, cascade),
    lambda params, cascade: md.predict_topn(params, cascade, 2),
    lambda params, cascade: md.batch_loss(params, [[0, 1], cascade], 1.0),
    lambda params, cascade: list(md.batch_scores(params, [[0, 1], cascade])),
    lambda params, cascade: tr.mean_step_loss(params, [[0, 1], cascade]),
    lambda params, cascade: tr.train(tr.TrainConfig(max_epochs=1, k=params.factors, d=params.dim),
                                     DatasetSplit(train=[[0, 1], cascade], valid=[[1, 0]], test=[], split_seed=0),
                                     params.num_nodes),
], ids=["forward_cascade", "prefix_scores", "predict_topn", "batch_loss", "batch_scores", "mean_step_loss", "train"])
@pytest.mark.parametrize("cascade", [[1.7, 2.2], [1.0, 2.0], [[1, 2], [3, 4]], [True, False], 3, ["1", "2"]],
                         ids=["fraction", "whole-float", "nested", "bool", "scalar", "digit-strings"])
def test_cascade_calls_refuse_anything_but_a_flat_list_of_node_indices(call, cascade):
    # truncating a float index or parsing a digit string would silently score another node
    with pytest.raises(ValueError, match="flat sequence of integer node indices"):
        call(small_params(), cascade)


def test_forward_independent_of_other_cascades():
    params = small_params(seed=14)
    before = md.forward_cascade(params, [0, 1, 2]).loss.data
    md.forward_cascade(params, [5, 4, 3, 2])
    after = md.forward_cascade(params, [0, 1, 2]).loss.data
    assert before == after


def test_forward_and_prefix_scores_match_numpy_oracle():
    rng = np.random.default_rng(15)
    for factors in (1, 2, 3, 4):
        for trial in range(10):
            params, cascade = random_model(rng, factors, seed=100 * factors + trial)
            scores, losses = numpy_oracle(params, cascade)
            out = md.forward_cascade(params, cascade)
            assert out.step_losses.shape == (len(cascade) - 1,)
            assert np.max(np.abs(out.step_losses - losses)) < 1e-10
            assert abs(float(out.loss.data) - losses.sum()) < 1e-10
            assert np.max(np.abs(md.prefix_scores(params, cascade) - scores)) < 1e-10


def test_forward_bit_reproducible_with_seeded_gumbel():
    params = small_params(seed=16)
    losses = []
    for _ in range(2):
        gum = md.GumbelConfig(tau=1.0, rng=RngState(77))
        out = md.forward_cascade(params, [0, 2, 4, 1], gumbel=gum, training=True)
        losses.append(float(out.loss.data))
    assert losses[0] == losses[1]


def test_forward_end_to_end_gradients():
    params = small_params(num_nodes=6, dim=4, factors=3, seed=17)
    cascade = [0, 3, 2, 5, 1][:5]

    def build():
        return md.forward_cascade(params, cascade, training=True).loss

    check_gradients(build, params.parameters())


def test_forward_training_dropout_draws_are_seeded():
    params = small_params(seed=18)
    a = md.forward_cascade(
        params, [0, 1, 2], training=True, dropout_rate=0.2, dropout_rng=RngState(5)
    )
    b = md.forward_cascade(
        params, [0, 1, 2], training=True, dropout_rate=0.2, dropout_rng=RngState(5)
    )
    assert float(a.loss.data) == float(b.loss.data)


@pytest.mark.parametrize("rate", [math.nan, -0.5, 1.0, 1.5, math.inf])
def test_training_calls_refuse_a_dropout_rate_outside_zero_to_one(rate):
    # a rate >= 1 would zero every input (or divide by zero), a negative or NaN rate would
    # silently run without dropout; both calls refuse it before writing any gradient
    params = small_params(seed=19)
    with pytest.raises(ValueError, match="dropout_rate"):
        md.batch_loss(params, [[0, 1, 2, 3]], 1.0, None, rate, RngState(1))
    with pytest.raises(ValueError, match="dropout_rate"):
        md.forward_cascade(params, [0, 1, 2, 3], training=True, dropout_rate=rate, dropout_rng=RngState(1))
    assert all((p.grad == 0.0).all() for p in params.parameters())


@pytest.mark.parametrize("batch, gumbel, rate, rng, message", [
    ([[0], []], None, 1.5, RngState(1), "^dropout_rate must be in"),
    ([[0]], None, 0.3, None, "^dropout requested but no rng given"),
    ([[0]], md.GumbelConfig(), 0.0, None, "^gumbel noise requested but no rng given"),
], ids=["rate", "dropout_rng", "gumbel_rng"])
def test_training_calls_refuse_bad_noise_whatever_the_cascades(batch, gumbel, rate, rng, message):
    # a batch with no prediction point never reached the checks, and batch_loss returned
    # empty loss arrays; forward_cascade refuses the same noise, and without training ignores it
    params = small_params(seed=20)
    with pytest.raises(ValueError, match=message):
        md.batch_loss(params, batch, 1.0, gumbel, rate, rng)
    with pytest.raises(ValueError, match=message):
        md.forward_cascade(params, [0, 1, 2], gumbel, training=True, dropout_rate=rate, dropout_rng=rng)
    md.forward_cascade(params, [0, 1, 2], gumbel, training=False, dropout_rate=rate, dropout_rng=rng)
    assert all((p.grad == 0.0).all() for p in params.parameters())


# ---------------------------------------------------------------------------
# the batch pipeline against the per-cascade path


BATCH_CASCADES = [[2, 5, 2, 0, 2, 3, 1], [4, 1], [3], [0, 3, 5, 1, 4], [5, 4, 4, 0, 2, 1, 3, 0], [1, 0, 1]]


def _batch_params(factors=2):
    params = small_params(num_nodes=6, dim=4, factors=factors, seed=50 + factors)
    params.ln_gain.data[:] = [0.7, 1.3, 0.9, 1.1]
    params.ln_bias.data[:] = [0.2, -0.1, 0.0, 0.3]
    return params


def _run_batch(params, cascades, weight):
    """``batch_loss`` over ``cascades`` as one batch, Gumbel noise and dropout on."""
    gumbel = md.GumbelConfig(tau=0.8, rng=RngState(6))
    return md.batch_loss(params, cascades, weight, gumbel, 0.3, RngState(7))


@pytest.mark.parametrize("factors", [1, 3])
def test_batch_equals_separate_cascades(factors):
    # unequal lengths, a repeated node, a cascade with no prediction point,
    # Gumbel noise and dropout drawn from one stream each, in row order
    params = _batch_params(factors)
    weight = 0.3
    params.reset_gradients()
    gumbel = md.GumbelConfig(tau=0.8, rng=RngState(6))
    dropout_rng = RngState(7)
    expect = []
    for cascade in BATCH_CASCADES:
        if len(cascade) < 2:
            expect.append(np.empty(0))
            continue
        out = md.forward_cascade(params, cascade, gumbel, True, 0.3, dropout_rng)
        out.loss.backward(weight)
        expect.append(out.step_losses)
    want = [p.grad.copy() for p in params.parameters()]

    params.reset_gradients()
    got = _run_batch(params, BATCH_CASCADES, weight)
    assert [len(g) for g in got] == [len(e) for e in expect]
    for g, e in zip(got, expect):
        assert np.max(np.abs(g - e), initial=0.0) <= 1e-13 * np.max(np.abs(e), initial=1.0)
    for p, w in zip(params.parameters(), want):
        assert np.max(np.abs(p.grad - w)) <= 1e-10 * np.max(np.abs(w)), p.name


def test_validation_loss_is_the_weighted_batch_loss_and_leaves_gradients_alone():
    # validation scores with no factor index and no gradient; its mean step loss is that of
    # a weighted, noiseless batch_loss run, bit for bit
    params = _batch_params()
    params.reset_gradients()
    loss = tr.mean_step_loss(params, BATCH_CASCADES)
    assert all((p.grad == 0.0).all() for p in params.parameters())
    weighted = md.batch_loss(params, BATCH_CASCADES, 0.5)
    assert sum(len(x) for x in weighted) == sum(len(c) - 1 for c in BATCH_CASCADES if len(c) > 1)
    assert loss == sum(float(x.sum()) for x in weighted) / sum(len(x) for x in weighted)


def test_batch_takes_plain_lists():
    # a batch is any list of cascades: raw lists and integer arrays give the same bits
    params = _batch_params()
    arrays = [np.asarray(c) for c in BATCH_CASCADES]
    runs = []
    for batch in (BATCH_CASCADES, arrays):
        params.reset_gradients()
        losses = md.batch_loss(params, batch, 0.25, md.GumbelConfig(tau=0.8, rng=RngState(6)), 0.3, RngState(7))
        rows, blocks = zip(*md.batch_scores(params, batch))
        runs.append((rows, losses, [p.grad.copy() for p in params.parameters()], blocks))
    (rows, *want_arrays), (got_rows, *got_arrays) = runs
    assert got_rows == rows
    for got, want in zip(got_arrays, want_arrays):
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def _assert_matches(params, losses, want_losses, want_grads):
    """Step losses and every grad within 1e-12 of the reference run's."""
    for a, b in zip(losses, want_losses):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(b), initial=1.0)
    for p, w in zip(params.parameters(), want_grads):
        assert np.max(np.abs(p.grad - w)) <= 1e-12 * np.max(np.abs(w)), p.name


def test_runs_take_the_most_rows_that_fit():
    # from its first row, each run takes the most rows (at least one) whose count times
    # the elements of their longest fits the budget, checked against a plain loop
    rng = np.random.default_rng(36)
    for _ in range(200):
        lengths = rng.integers(1, 40, size=rng.integers(0, 30))
        budget = int(rng.integers(1, 400))
        start = 0
        for run in md._runs(lengths, budget, lambda w: 3 * w):
            stop = start + 1
            while stop < len(lengths) and (stop + 1 - start) * 3 * lengths[start:stop + 1].max() <= budget:
                stop += 1
            assert (run.start, run.stop) == (start, stop)
            start = stop
        assert start == len(lengths)


def test_batch_chunks_equal_one_chunk(monkeypatch):
    params = _batch_params(factors=2)
    params.reset_gradients()
    whole = _run_batch(params, BATCH_CASCADES, 0.25)
    whole_grads = [p.grad.copy() for p in params.parameters()]

    # five live rows, the longest with 7 points: two rows per chunk, three chunks
    width = 7
    monkeypatch.setattr(md, "_CHUNK_ELEMENTS", 2 * width * (width + params.factors * params.dim))
    blocks = []
    head = md._head
    monkeypatch.setattr(md, "_head", lambda p, hidden, *a, **k: blocks.append(len(hidden)) or head(p, hidden, *a, **k))
    params.reset_gradients()
    chunked = _run_batch(params, BATCH_CASCADES, 0.25)
    assert blocks == [2, 2, 1]
    _assert_matches(params, chunked, whole, whole_grads)


def test_batch_groups_equal_one_group(monkeypatch):
    params = _batch_params(factors=2)
    cascades = BATCH_CASCADES * 2  # ten live rows, the longest with 7 points
    params.reset_gradients()
    whole = _run_batch(params, cascades, 0.25)
    whole_grads = [p.grad.copy() for p in params.parameters()]

    # two recurrence groups of five rows, each run as head chunks of 2, 2 and 1 rows
    width = 7
    monkeypatch.setattr(md, "_GROUP_ELEMENTS", 5 * width * params.dim)
    monkeypatch.setattr(md, "_CHUNK_ELEMENTS", 2 * width * (width + params.factors * params.dim))
    groups, blocks = [], []
    recurrence, head = md._recurrence, md._head
    monkeypatch.setattr(md, "_recurrence", lambda p, pos, *a: groups.append(pos.shape) or recurrence(p, pos, *a))
    monkeypatch.setattr(md, "_head", lambda p, hidden, *a: blocks.append(len(hidden)) or head(p, hidden, *a))
    params.reset_gradients()
    grouped = _run_batch(params, cascades, 0.25)
    assert [rows for rows, _ in groups] == [5, 5] and blocks == [2, 2, 1] * 2
    assert all(rows * span * params.dim <= md._GROUP_ELEMENTS for rows, span in groups)
    _assert_matches(params, grouped, whole, whole_grads)


def test_bool_dropout_mask_scales_like_the_float_mask():
    # distinct nodes, so a table holding each node's masked row replays the dropout
    # run without dropout, and the embedding grad of each real position is its d_xe
    params = small_params(num_nodes=9, dim=4, factors=2, seed=60)
    pad = params.pad_index
    positions = np.array([[0, 1, 2, 3, 4], [5, 6, 7, pad, pad]])
    lengths, rate = np.array([5, 3]), 0.3
    real = np.arange(5) < lengths[:, None]
    draws, mask = RngState(8), np.zeros((2, 5, 4))
    for i, t in enumerate(lengths):
        mask[i, :t] = (draws.random((t, 4)) >= rate) / (1.0 - rate)
    assert 0 < (mask[real] == 0).sum() < mask[real].size
    hidden, backward = md._recurrence(params, positions, lengths, rate, RngState(8))
    replay = params.clone()
    replay.embeddings.data[positions[real]] *= mask[real]
    plain, plain_backward = md._recurrence(replay, positions, lengths, 0.0, None)
    assert hidden[real].tobytes() == plain[real].tobytes()

    d_hidden = np.random.default_rng(9).normal(size=hidden.shape) * real[..., None]
    replay.reset_gradients()
    plain_backward(d_hidden.copy())
    params.reset_gradients()
    backward(d_hidden.copy())
    unmasked = replay.embeddings.grad[positions[real]]
    assert np.array_equal(params.embeddings.grad[positions[real]], unmasked * mask[real])


def _step_loop_recurrence(params, positions, lengths, rate, seed):
    """The GRU states of ``_recurrence``, three gate GEMMs and two sigmoids per step, each a new array."""
    xe = params.embeddings.data[positions]
    if rate:
        draws, mask = RngState(seed), np.zeros(xe.shape)
        for i, t in enumerate(lengths):
            mask[i, :t] = np.where(draws.random((t, params.dim)) >= rate, 1.0 / (1.0 - rate), 0.0)
        xe *= mask
    p = {name: q.data for name, q in params.named_parameters()}
    z, r, cand = (xe @ p[f"w_{gate}"] + p[f"b_{gate}"] for gate in "zrh")
    hidden, h = np.empty(xe.shape), np.zeros((len(lengths), params.dim))
    for t in range(positions.shape[1]):
        z[:, t] = sigmoid(z[:, t] + h @ p["u_z"])
        r[:, t] = sigmoid(r[:, t] + h @ p["u_r"])
        cand[:, t] = np.tanh(cand[:, t] + (r[:, t] * h) @ p["u_h"])
        h = hidden[:, t] = (1.0 - z[:, t]) * h + z[:, t] * cand[:, t]
    return hidden


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("dim", [4, 32])
def test_recurrence_equals_a_step_loop_with_separate_gates(dim, rate):
    # the fused z|r block gives the bits of three gate GEMMs and two sigmoids per step
    params = md.init_params(9, dim, 2, RngState(61))
    pad = params.pad_index
    positions = np.array([[0, 1, 2, 3, 4, 5], [6, 7, 8, pad, pad, pad], [2, pad, pad, pad, pad, pad]])
    lengths = np.array([6, 3, 1])
    got, _ = md._recurrence(params, positions, lengths, rate, RngState(8))
    assert np.array_equal(got, _step_loop_recurrence(params, positions, lengths, rate, 8))


@pytest.mark.parametrize("length", [1, 11, 150])
def test_recurrence_of_one_prefix_equals_the_step_loop(length):
    # the shapes of predict: one row, of a desk prefix and of a long one, at D=32
    params = md.init_params(400, 32, 2, RngState(62))
    positions = np.random.default_rng(62).integers(0, 400, size=(1, length))
    got, _ = md._recurrence(params, positions, np.array([length]), 0.0, None)
    assert np.array_equal(got, _step_loop_recurrence(params, positions, np.array([length]), 0.0, None))


def test_recurrence_carries_nothing_from_one_call_to_the_next():
    # calls on other rows, two of one shape, then each again, every result checked after the
    # last call: each holds the bits of its own fresh step loop, so no buffer is shared or carried
    params = md.init_params(400, 32, 2, RngState(63))
    rng = np.random.default_rng(63)
    pad = params.pad_index
    calls = [(rng.integers(0, 400, size=(1, 11)), np.array([11])), (rng.integers(0, 400, size=(1, 11)), np.array([11])),
             (np.array([[5, 9, 2, 7], [3, 3, pad, pad]]), np.array([4, 2]))]
    got = [md._recurrence(params, positions, lengths, 0.0, None)[0] for positions, lengths in calls + calls]
    fresh = [_step_loop_recurrence(params, positions, lengths, 0.0, None) for positions, lengths in calls]
    for hidden, want in zip(got, fresh + fresh):
        assert np.array_equal(hidden, want)


def test_padded_batch_gradients_match_finite_differences():
    # three rows of unequal length, so two of them are padded
    params = _batch_params(factors=2)
    cascades = [[2, 5, 2, 0, 1], [4, 1], [0, 3, 5, 3]]
    params.reset_gradients()
    _run_batch(params, cascades, 0.3)
    analytic = [p.grad.copy() for p in params.parameters()]
    # each objective call draws the same noise and dropout and adds to the grads, which are kept above
    estimates = finite_difference_gradient(
        lambda: sum(float(x.sum()) for x in _run_batch(params, cascades, 1.0)), params.parameters()
    )
    for p, g, e in zip(params.parameters(), analytic, estimates):
        assert max_rel_err(g, 0.3 * e) < 1e-4, f"gradient mismatch for {p.name}"


# ---------------------------------------------------------------------------
# prediction


def test_predict_full_ranking_is_permutation():
    params = small_params(num_nodes=8, dim=4, factors=2, seed=19)
    top = md.predict_topn(params, [0, 5, 2], 8)
    assert sorted(top.tolist()) == list(range(8))


def test_predict_tie_break_prefers_lower_index():
    params = small_params(num_nodes=6, dim=4, factors=2, seed=20)
    params.embeddings.data[4] = params.embeddings.data[1]  # bit-identical pair
    top = md.predict_topn(params, [0, 2], 6).tolist()
    assert top.index(1) < top.index(4)


def test_predict_matches_full_sort_oracle():
    params = small_params(num_nodes=12, dim=6, factors=3, seed=21)
    prefix = [3, 7, 0, 11]
    scores = md.prefix_scores(params, prefix)[-1]
    expect = sorted(range(12), key=lambda v: (-scores[v], v))
    for n in range(13):
        assert md.predict_topn(params, prefix, n).tolist() == expect[:n]


def test_predict_of_a_long_prefix_equals_the_stable_full_sort():
    # a 150-node prefix at the long workload's N=400, K=2, D=32
    params = md.init_params(400, 32, 2, RngState(64))
    prefix = np.random.default_rng(64).integers(0, 400, size=150).tolist()
    expect = np.argsort(-md.prefix_scores(params, prefix)[-1], kind="stable")
    for n in (1, 10, 400):
        assert md.predict_topn(params, prefix, n).tolist() == expect[:n].tolist(), n


def test_last_row_scores_equal_the_last_prefix_row():
    rng = np.random.default_rng(26)
    for factors in (1, 2, 3, 4):
        for length in range(1, 9):
            params, _ = random_model(rng, factors, seed=10 * factors + length)
            prefix = rng.integers(0, params.num_nodes, size=length)
            full = md.prefix_scores(params, prefix)
            some = rng.permutation(length)[: 1 + length // 2]
            for rows in (slice(-1, None), some):
                part = md._eval_scores(params, prefix, rows)
                assert part.shape == full[rows].shape
                assert np.max(np.abs(part - full[rows])) <= 1e-12 * np.max(np.abs(full[rows]))


def test_predict_topn_equals_the_stable_full_sort_across_ties():
    # exact, frequent ties: zero LN gain makes every mixed state the LN bias,
    # and bias and embeddings are multiples of 1/4, so each score is an exact
    # dot product of small dyadic numbers
    rng = np.random.default_rng(27)
    params = md.init_params(30, 4, 3, RngState(27))
    params.ln_gain.data[:] = 0.0
    params.ln_bias.data[:] = rng.integers(-4, 5, 4) / 4
    params.embeddings.data[:] = rng.integers(-1, 2, (31, 4)) / 4
    prefix = [3, 17, 0, 29, 3]
    last = md.prefix_scores(params, prefix)[-1]
    expect = np.argsort(-last, kind="stable")
    # cuts inside a run of equal scores, where the lower index must win
    inside = [n for n in range(1, 30) if last[expect[n - 1]] == last[expect[n]]]
    assert len(inside) >= 5
    for n in [0, 1, *inside, 30]:
        top = md.predict_topn(params, prefix, n)
        assert top.dtype == np.intp
        assert top.tolist() == expect[:n].tolist(), n


def test_predict_validations():
    params = small_params()
    with pytest.raises(ValueError):
        md.predict_topn(params, [], 3)
    with pytest.raises(ValueError):
        md.predict_topn(params, [0], 7)
    # numpy's partition would refuse these with a TypeError, and a bool would be taken as 0 or 1
    for n in (2.5, np.float64(3.0), True, False):
        with pytest.raises(ValueError, match="n must be an integer"):
            md.predict_topn(params, [1, 2], n)
    assert len(md.predict_topn(params, [1, 2], np.int64(2))) == 2
    with pytest.raises(ValueError, match="^n must be >= 0,"):
        md.predict_topn(params, [1, 2], -1)
    assert len(md.predict_topn(params, [1, 2], 0)) == 0


# ---------------------------------------------------------------------------
# structural invariants


def test_single_factor_equals_plain_gru_attention():
    rng = np.random.default_rng(22)
    for trial in range(25):
        n = int(rng.integers(3, 9))
        params = md.init_params(n, int(rng.integers(2, 7)), 1, RngState(trial))
        cascade = rng.integers(0, n, size=int(rng.integers(2, 7))).tolist()
        out = md.forward_cascade(params, cascade)
        _, expect = numpy_oracle(params, cascade)
        assert np.max(np.abs(out.step_losses - expect)) < 1e-10


def test_prototype_scaling_leaves_predictions_unchanged():
    params = small_params(num_nodes=9, dim=5, factors=3, seed=23)
    scores_before = md.prefix_scores(params, [2, 7, 4])
    top_before = md.predict_topn(params, [2, 7, 4], 9).tolist()
    params.prototypes.data *= 37.5
    assert np.max(np.abs(md.prefix_scores(params, [2, 7, 4]) - scores_before)) < 1e-9
    assert md.predict_topn(params, [2, 7, 4], 9).tolist() == top_before


def test_init_prototypes_not_parallel():
    for seed in range(5):
        params = md.init_params(5, 8, 4, RngState(seed))
        unit = params.prototypes.data / np.linalg.norm(params.prototypes.data, axis=1, keepdims=True)
        cos = unit @ unit.T
        np.fill_diagonal(cos, 0.0)
        assert np.abs(cos).max() <= 0.99


def test_init_draws_prototypes_last():
    # models that differ only in K share every other initial parameter bit for bit
    models = [md.init_params(9, 6, factors, RngState(3)) for factors in (1, 2, 4)]
    for name, p in models[0].named_parameters():
        if name != "prototypes":
            for other in models[1:]:
                assert np.array_equal(p.data, getattr(other, name).data), name
    assert [m.prototypes.data.shape for m in models] == [(1, 6), (2, 6), (4, 6)]


# (N, D, K) that a built or a loaded model refuses, and the refusal, which names the size
BAD_SIZES = {
    "bool_nodes": ((True, 4, 2), "num_nodes"), "float_nodes": ((5.0, 4, 2), "num_nodes"),
    "no_nodes": ((0, 4, 2), "num_nodes must be >= 1,"), "string_dim": ((5, "4", 2), "dim"),
    "float_dim": ((5, 4.0, 2), "dim"), "dim_1": ((5, 1, 2), "dim must be >= 2,"),
    "bool_factors": ((5, 4, True), "factors"), "float_factors": ((5, 4, 2.0), "factors"),
    "no_factors": ((5, 4, 0), "factors must be >= 1,"),
}


@pytest.mark.parametrize("sizes, name", BAD_SIZES.values(), ids=BAD_SIZES)
def test_init_params_refuses_bad_sizes_by_name(sizes, name):
    # True nodes built a 1-node model, and True factors failed with a TypeError
    with pytest.raises(ValueError, match=name):
        md.init_params(*sizes, RngState(0))


@pytest.mark.parametrize("sizes, name", BAD_SIZES.values(), ids=BAD_SIZES)
def test_load_checkpoint_refuses_bad_sizes_by_name(tmp_path, sizes, name):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, small_params(num_nodes=5, dim=4, factors=2), seed=1)
    rewrite = dict(zip(("num_nodes", "dim", "factors"), sizes))
    path.write_bytes(_rewrite_header(path.read_bytes(), lambda header: header.update(rewrite)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{name}"):
        md.load_checkpoint(path)


def test_init_params_takes_numpy_integer_sizes():
    params = md.init_params(np.int64(5), np.int32(4), np.uint8(2), RngState(0))
    assert (params.num_nodes, params.dim, params.factors) == (5, 4, 2)
    smallest = md.init_params(1, 2, 1, RngState(0))  # each size at its least value
    assert (smallest.num_nodes, smallest.dim, smallest.factors) == (1, 2, 1)


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = small_params(num_nodes=7, dim=6, factors=2, seed=24)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, seed=991)
    loaded, seed = md.load_checkpoint(path)
    assert seed == 991
    assert (loaded.num_nodes, loaded.dim, loaded.factors) == (7, 6, 2)
    for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
        assert (a.data == b.data).all(), name
    before = md.forward_cascade(params, [0, 3, 6]).loss.data
    after = md.forward_cascade(loaded, [0, 3, 6]).loss.data
    assert float(before) == float(after)


def test_clone_and_loaded_checkpoint_own_writable_copies(tmp_path):
    params = small_params(num_nodes=7, dim=6, factors=2, seed=26)
    source = [p.data.copy() for p in params.parameters()]
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, seed=4)
    stored = path.read_bytes()
    for copy in (params.clone(), md.load_checkpoint(path)[0]):
        # from_arrays reads N and D off the (N + 1, D) embeddings and K off the (K, D) prototypes
        assert (copy.num_nodes, copy.dim, copy.factors, copy.pad_index) == (7, 6, 2, 7)
        for (name, p), want in zip(copy.named_parameters(), source):
            assert p.data.flags.writeable and p.name == name
            assert np.array_equal(p.data, want), name
            p.data += 1.0
            p.grad += 1.0
        for p, want in zip(params.parameters(), source):
            assert np.array_equal(p.data, want) and not p.grad.any(), p.name
    assert path.read_bytes() == stored
    for p, want in zip(md.load_checkpoint(path)[0].parameters(), source):
        assert np.array_equal(p.data, want), p.name


def _column_major_table(params):
    """True iff the embedding table and its gradient are F-contiguous and not C-contiguous."""
    return all(a.flags.f_contiguous and not a.flags.c_contiguous for a in (params.embeddings.data, params.embeddings.grad))


def test_every_constructor_keeps_the_table_column_major(tmp_path):
    # scoring multiplies the table's (D, N) transpose without packing it only in this layout
    params = small_params(num_nodes=130, dim=5, factors=2, seed=27)
    assert _column_major_table(params)
    arrays = {name: np.ascontiguousarray(p.data) for name, p in params.named_parameters()}
    assert arrays["embeddings"].flags.c_contiguous
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, seed=2)
    for built in (md.ModelParams.from_arrays(arrays), params.clone(), md.load_checkpoint(path)[0]):
        assert _column_major_table(built)
        assert np.array_equal(built.embeddings.data, params.embeddings.data)
        built.reset_gradients()
        assert _column_major_table(built)
    params.reset_gradients()
    assert _column_major_table(params)


def test_save_checkpoint_writes_the_table_row_major(tmp_path):
    # the bytes written before the table was stored column-major; init_params draws only
    # RNG values and runs no BLAS product that decides them, so they hold on any host
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, md.init_params(40, 32, 2, RngState(5)), seed=7)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "b4557d144296fdc9a8882caea6367cb4901a4cb75a5445b168495ec19930904a"


@pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "string", "bool"])
def test_save_checkpoint_refuses_a_seed_that_is_not_an_integer(tmp_path, seed):
    # each was stored cut to an integer (1.5 and True as 1, "7" as 7), and eval split with it
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match="seed must be an integer"):
        md.save_checkpoint(path, small_params(), seed)
    assert not path.exists()
    md.save_checkpoint(path, small_params(), np.int64(7))
    assert md.load_checkpoint(path)[1] == 7


@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=str)
def test_save_checkpoint_refuses_a_parameter_load_checkpoint_refuses(tmp_path, value):
    # a NaN in w_z was written (1740 bytes) and only then refused, by load_checkpoint
    params = small_params(num_nodes=5, dim=4, factors=2)
    params.w_z.data[1, 2] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: parameter w_z holds a NaN or infinite value"):
        md.save_checkpoint(path, params, seed=1)
    assert not path.exists()


def test_checkpoint_writes_are_byte_identical(tmp_path):
    params = small_params(seed=25)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    md.save_checkpoint(p1, params, seed=3)
    md.save_checkpoint(p2, params, seed=3)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        md.load_checkpoint(path)
