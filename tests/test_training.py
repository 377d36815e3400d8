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
        (batch,) = dt.make_batches(cascades[start:start + rows], rows, pad_index=params.pad_index)
        for losses in md.batch_loss(params, batch, None):
            total += float(losses.sum())
            steps += len(losses)
        start += rows
    assert start == len(cascades) and loss == total / steps
