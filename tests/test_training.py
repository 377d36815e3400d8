import logging
import math

import numpy as np
import pytest

from casdis import data as dt
from casdis import evaluation as ev
from casdis import model as md
from casdis import training as tr
from casdis.numerics import RngState


def test_two_community_run_learns(two_community_run):
    """The reference run early-stops with test hits@10 well above chance.

    Chance hits@10 is 10/40 = 0.25; the seeded run measures 0.559.
    """
    assert two_community_run["result"].stopped == "early_stop"
    assert two_community_run["report"].hits[10] > 0.45


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("build", [
    lambda v: tr.TrainConfig(lr_init=v), lambda v: tr.TrainConfig(tau=v), lambda v: md.GumbelConfig(tau=v),
], ids=["TrainConfig.lr_init", "TrainConfig.tau", "GumbelConfig.tau"])
def test_configs_refuse_a_learning_rate_or_temperature_that_is_not_finite(build, value):
    # NaN passes a plain "<= 0" check, and an infinite tau flattens the factor logits to 0
    with pytest.raises(ValueError, match="finite and positive"):
        build(value)


@pytest.mark.parametrize("build", [lambda v: tr.TrainConfig(tau=v), lambda v: md.GumbelConfig(tau=v)],
                         ids=["TrainConfig.tau", "GumbelConfig.tau"])
def test_configs_refuse_a_temperature_that_overflows_the_noisy_factor_logits(build):
    # a noisy factor logit lies within 1 - log(GUMBEL_EPS) of 0; at tau = 1e-308, 1/tau
    # times it overflows, and the factor softmax made every step loss NaN
    with pytest.raises(ValueError, match="too small.*float64 range"):
        build(1e-308)


def test_a_tiny_accepted_temperature_keeps_losses_and_gradients_finite():
    # close above the smallest tau the configs accept; an overflow warning fails the run
    params = md.init_params(8, 4, 3, RngState(31))
    gumbel = md.GumbelConfig(tau=4e-307, rng=RngState(32))
    for cascade in ([0, 3, 1, 5, 7, 2], [6, 4], [2, 2, 0, 1]):
        params.reset_gradients()
        out = md.forward_cascade(params, cascade, gumbel, training=True)
        out.loss.backward()
        assert np.isfinite(out.step_losses).all()
        assert all(np.isfinite(p.grad).all() for p in params.parameters())


def test_scoring_without_a_gradient_builds_no_factor_index(monkeypatch):
    # evaluate, predict_topn and validation want no gradient, so none of their
    # max-over-factor calls asks for the index; a training batch still does
    indexed, kernel = [], md.max_over_axis

    def spy(*args, **kwargs):
        indexed.append(kwargs.get("index", args[2] if len(args) > 2 else True))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(md, "max_over_axis", spy)
    params = md.init_params(9, 4, 3, RngState(33))
    cascades = [[3, 0, 7, 3, 5], [1, 8], [2, 4, 6, 1]]
    ev.evaluate(params, cascades)
    md.predict_topn(params, [3, 0, 7], 4)
    tr.mean_step_loss(params, cascades)
    assert len(indexed) == 3 + 1 + 3 and not any(indexed)
    (batch,) = dt.make_batches(cascades, len(cascades))
    md.batch_loss(params, batch, 1.0)
    assert indexed[7:] == [True] * 3


def test_library_writes_nothing_to_stdout(capfd, caplog):
    # the benchmark's result is its last stdout line, so casdis prints nothing
    caplog.set_level(logging.INFO)
    split = dt.DatasetSplit(train=[[0, 1, 2, 3], [3, 2, 1], [1]], valid=[[1, 2, 0]], test=[[2, 0, 1]], split_seed=0)
    result = tr.train(tr.TrainConfig(max_epochs=2, k=2, d=4, batch_size=2), split, 4)
    ev.evaluate(result.params, split.test)
    md.predict_topn(result.params, [2, 0], 3)
    assert len(result.log) == 2 and capfd.readouterr().out == ""


def test_validation_recurrence_stays_within_its_group_bound(monkeypatch):
    # D=32 and 120 cascades of 40 nodes: 120 x 39 x 32 = 149,760 elements, more
    # than one recurrence group holds, in the single validation batch
    params = md.init_params(50, 32, 2, RngState(3))
    rng = np.random.default_rng(4)
    cascades = [rng.integers(0, 50, size=40).tolist() for _ in range(120)]
    groups = []
    recurrence = md._recurrence
    monkeypatch.setattr(md, "_recurrence", lambda p, pos, *a: groups.append(pos.shape) or recurrence(p, pos, *a))
    loss = tr.mean_step_loss(params, cascades)
    assert md._GROUP_ELEMENTS == 2 ** 17 and len(groups) >= 2
    assert all(rows * span * params.dim <= 2 ** 17 for rows, span in groups)

    # each group's cascades as a batch of their own give the same step losses
    total, steps, start = 0.0, 0, 0
    for rows, _ in list(groups):
        (batch,) = dt.make_batches(cascades[start:start + rows], rows)
        for losses in md.batch_loss(params, batch, None):
            total += float(losses.sum())
            steps += len(losses)
        start += rows
    assert start == len(cascades) and loss == total / steps
