import dataclasses
import logging
import math

import numpy as np
import pytest

from casdis import cli
from casdis import data as dt
from casdis import evaluation as ev
from casdis import model as md
from casdis import training as tr
from casdis.numerics import RngState


def test_two_community_run_learns(two_community_run):
    """The reference run early-stops with test hits@10 well above chance.

    Chance hits@10 is 10/40 = 0.25; the seeded run measures 0.559.  Its numbers
    are pinned to 1e-9 relative, like the benchmark's valid_loss: another BLAS
    may round the last bits differently, a change to the model's math moves them by far more.
    """
    result, report = two_community_run["result"], two_community_run["report"]
    assert result.stopped == "early_stop" and len(result.log) == 18
    assert report.hits[10] > 0.45
    pinned = {"best valid loss": (result.best_valid_loss, 3.2825080357963152),
              "test hits@10": (report.hits[10], 0.5585903083700441),
              "test map@10": (report.maps[10], 0.17670897140060135)}
    for name, (got, want) in pinned.items():
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), (name, got, want)


def test_reference_model_beats_a_first_order_markov_counter(two_community_run):
    """In nats per test step, the reference model beats the counts of each node's successors.

    The counts are fit on train+valid transitions with add-0.1 smoothing; a step's
    scores are the log-probabilities of the last infected node's row, ranked under
    the model's tie rule.  Both losses are pinned to 1e-9 relative; a paired bootstrap
    over test cascades put the gap at -0.080 nats [-0.116, -0.044].
    """
    split, num_nodes = two_community_run["split"], two_community_run["num_nodes"]
    counts = np.full((num_nodes, num_nodes), 0.1)
    for cascade in split.train + split.valid:
        np.add.at(counts, (cascade[:-1], cascade[1:]), 1.0)
    log_p = np.log(counts / counts.sum(axis=1, keepdims=True))
    table = ev.point_table(((row, log_p[c[:-1]]) for row, c in enumerate(split.test) if len(c) >= 2), split.test)
    markov = table.nats_per_step()
    model = tr.mean_step_loss(two_community_run["result"].params, split.test)
    assert (int(np.count_nonzero(table.rank <= 10)), len(table.rank)) == (521, 1135)
    for name, got, want in (("model", model, 3.3444163416408426), ("markov", markov, 3.4245183393004126)):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0), (name, got, want)
    assert model < markov


def test_evaluate_reports_the_validation_loss_of_its_split(two_community_run):
    """Evaluation and validation reduce one point table, so the reference model's test
    nats per step is one number to the last bit, the order of its sums included."""
    got = two_community_run["report"].nats_per_step
    assert got == tr.mean_step_loss(two_community_run["result"].params, two_community_run["split"].test)
    assert got == 3.3444163416408426


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("build", [
    lambda v: tr.TrainConfig(lr_init=v), lambda v: tr.TrainConfig(tau=v), lambda v: md.GumbelConfig(tau=v),
], ids=["TrainConfig.lr_init", "TrainConfig.tau", "GumbelConfig.tau"])
def test_configs_refuse_a_learning_rate_or_temperature_that_is_not_finite(build, value):
    # NaN passes a plain "<= 0" check, and an infinite tau flattens the factor logits to 0
    with pytest.raises(ValueError, match="finite and positive"):
        build(value)


# the least value of each lower-bounded integer field of TrainConfig
CONFIG_LEAST = {"batch_size": 1, "max_epochs": 0, "patience": 1, "lr_patience": 1, "k": 1, "d": 2, "max_len": 2}


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.5), ("max_epochs", 2.5), ("patience", 1.5), ("lr_patience", 2.0), ("k", 2.0), ("k", True),
    ("d", 4.0), ("d", np.float64(4.0)), ("max_len", 5.5), ("seed", 1.5), ("seed", False),
] + [(field, least - 1) for field, least in CONFIG_LEAST.items()], ids=str)
def test_config_refuses_a_non_integer_in_an_integer_field(field, value):
    # a whole float or a bool would be used as an int, a fraction cut to one (seed) or fail
    # only inside train with a TypeError.  An integer one below its field's least value is
    # refused by that field's name (batch_size 0 was refused as "lr_init must be finite and
    # positive, batch_size >= 1 and max_epochs >= 0"), and the least value itself is accepted
    below = type(value) is int
    message = f">= {CONFIG_LEAST[field]}," if below else "an integer"
    with pytest.raises(ValueError, match=f"^{field} must be {message}"):
        tr.TrainConfig(**{field: value})
    tr.TrainConfig(**{field: np.int64(value + 1 if below else int(value) + 2)})  # a numpy integer is accepted


@pytest.mark.parametrize("value", ["off", 1, None, np.float64(0.0)], ids=str)
def test_config_refuses_a_gumbel_switch_that_is_not_a_bool(value):
    # "off" is truthy, so it trained with Gumbel noise
    with pytest.raises(ValueError, match="^gumbel_enabled must be a bool"):
        tr.TrainConfig(gumbel_enabled=value)
    for flag in (False, np.bool_(True)):
        assert tr.TrainConfig(gumbel_enabled=flag).gumbel_enabled == flag


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
    # scoring calls asks for the factor index; a training batch still does
    indexed, scoring = [], md._score_rows

    def spy(params, ys, grad):
        indexed.append(grad)
        return scoring(params, ys, grad)

    monkeypatch.setattr(md, "_score_rows", spy)
    params = md.init_params(9, 4, 3, RngState(33))
    cascades = [[3, 0, 7, 3, 5], [1, 8], [2, 4, 6, 1]]
    ev.evaluate(params, cascades)
    md.predict_topn(params, [3, 0, 7], 4)
    tr.mean_step_loss(params, cascades)
    assert len(indexed) == 3 + 1 + 3 and not any(indexed)
    md.batch_loss(params, cascades, 1.0)
    assert indexed[7:] == [True] * 3


@pytest.mark.parametrize("poison", [np.nan, np.inf], ids=str)
def test_a_non_finite_gradient_aborts_training_and_the_cli_exits_6(monkeypatch, tmp_path, poison):
    # the third training batch poisons one gradient: two batches make epoch 1, so epoch 2 aborts unlogged.
    # Clipping leaves an infinite norm alone: max_norm / inf = 0 times inf would warn and make a NaN
    calls, batch_loss = [], tr.batch_loss

    def poisoned(params, batch, weight, *args):
        losses = batch_loss(params, batch, weight, *args)
        calls.append(weight)
        if len(calls) == 3:
            params.u_h.grad[0, 0] = poison
        return losses

    monkeypatch.setattr(tr, "batch_loss", poisoned)
    split = dt.DatasetSplit(train=[[0, 1, 2, 3], [3, 2, 1], [1, 0, 2], [2, 3]], valid=[[1, 2, 0]], test=[[2, 0, 1]],
                            split_seed=0)
    result = tr.train(tr.TrainConfig(max_epochs=5, k=2, d=4, batch_size=2), split, 4)
    assert result.stopped == "nan_gradient:u_h" and [s.epoch for s in result.log] == [1]

    calls.clear()
    data, out = tmp_path / "cascades.txt", tmp_path / "run"
    data.write_text("".join(" ".join(f"n{(i + j) % 12}" for j in range(i % 5 + 2)) + "\n" for i in range(20)))
    argv = ["train", "--data", str(data), "--out", str(out), "--k", "2", "--d", "4", "--batch-size", "8"]
    assert cli.main(argv) == cli.EXIT_TRAINING
    assert len(calls) == 3 and len((out / "train_log.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("part", ["train", "valid"])
def test_training_refuses_a_part_with_no_prediction_point(part):
    # one node per cascade gives no step, so training would log a loss of 0.0 and return the untrained init
    parts = {"train": [[0, 1, 2], [2, 1]], "valid": [[0, 1, 2]], part: [[0], [1]]}
    split = dt.DatasetSplit(**parts, test=[], split_seed=0)
    with pytest.raises(ValueError, match=f"the {part} part holds no cascade of 2 or more nodes"):
        tr.train(tr.TrainConfig(max_epochs=4, k=1, d=2), split, 3)


def test_learning_rate_decays_every_lr_patience_epochs_without_improvement(monkeypatch):
    # the best valid loss 2.0 comes at epoch 5; lr_patience 2 halves the rate after
    # the 2nd and 4th epochs without improvement, counted afresh from the best
    losses = iter([3.0, 3.0, 3.1, 3.0, 2.0] + [2.5] * 5)
    monkeypatch.setattr(tr, "mean_step_loss", lambda *args: next(losses))
    split = dt.DatasetSplit(train=[[0, 1, 2]], valid=[[2, 1, 0]], test=[], split_seed=0)
    config = tr.TrainConfig(lr_init=0.01, max_epochs=20, k=1, d=2, lr_patience=2, patience=5)
    result = tr.train(config, split, 3)
    assert [s.lr for s in result.log] == [0.01, 0.01, 0.01, 0.005, 0.005, 0.005, 0.005, 0.0025, 0.0025, 0.00125]
    assert result.stopped == "early_stop" and result.best_valid_loss == 2.0


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
        part = cascades[start:start + rows]
        for row, scores in md.batch_scores(params, part):
            total += float(md._step_losses(scores, part[row][1:])[0].sum())
            steps += len(scores)
        start += rows
    assert start == len(cascades) and loss == total / steps


def _train_run(config, split, num_nodes):
    """A run's log without wall times, and its parameter bytes."""
    result = tr.train(config, split, num_nodes)
    log = [(s.epoch, s.train_loss, s.valid_loss, s.lr) for s in result.log]
    return log, result.stopped, [p.data.tobytes() for p in result.params.parameters()]


def test_training_runs_on_the_first_max_len_nodes_of_each_cascade():
    # a 230-node cascade in each part: train cuts it to max_len once, before the first
    # epoch, so the run is the one on a split cut by hand, and not the one on the whole cascade
    rng = np.random.default_rng(36)
    train, valid = ([rng.integers(0, 20, size=n).tolist() for n in sizes] for sizes in ((230, 5, 9, 3, 12), (4, 230, 7)))
    config = tr.TrainConfig(max_epochs=2, k=2, d=4, batch_size=2)
    split = dt.DatasetSplit(train=train, valid=valid, test=[], split_seed=0)
    by_hand = dt.DatasetSplit(train=[c[:200] for c in train], valid=[c[:200] for c in valid], test=[], split_seed=0)
    assert config.max_len == 200
    want = _train_run(config, by_hand, 20)
    assert _train_run(config, split, 20) == want
    assert _train_run(dataclasses.replace(config, max_len=230), split, 20) != want


@pytest.mark.parametrize("at", [1, 210], ids=["within-max_len", "past-max_len"])
@pytest.mark.parametrize("part", ["train", "valid"])
def test_a_bad_node_anywhere_in_either_part_stops_training_before_any_update(monkeypatch, part, at):
    # every cascade is checked whole before the first epoch, so a node index outside [0, N)
    # refuses the run before a training batch runs, even past max_len, where the cut drops it
    calls, batch_loss = [], tr.batch_loss

    def spy(params, batch, weight, *args):
        calls.append(weight)
        return batch_loss(params, batch, weight, *args)

    monkeypatch.setattr(tr, "batch_loss", spy)
    rng = np.random.default_rng(37)
    parts = {"train": [rng.integers(0, 6, size=n).tolist() for n in (5, 3, 7, 4)], "valid": [[2, 0, 1], [4, 5]]}
    bad = rng.integers(0, 6, size=230).tolist()
    bad[at] = 6
    parts[part].append(bad)
    split = dt.DatasetSplit(**parts, test=[], split_seed=0)
    with pytest.raises(ValueError, match=r"node index outside \[0, 6\)"):
        tr.train(tr.TrainConfig(max_epochs=2, k=2, d=4, batch_size=2), split, 6)
    assert calls == []


# ---------------------------------------------------------------------------
# the optimizer


def _params_with_gradients(seed):
    params = md.init_params(5, 3, 2, RngState(seed))
    rng = np.random.default_rng(seed)
    for p in params.parameters():
        p.grad[...] = rng.normal(size=p.grad.shape)
    return params


def test_adam_step_is_the_bias_corrected_update_and_resets_the_gradients():
    params = _params_with_gradients(38)
    opt = tr.OptimizerState.for_params(params, lr=0.01)
    want = {name: p.data.copy() for name, p in params.named_parameters()}
    m = {name: 0.0 for name in want}
    v = {name: 0.0 for name in want}
    rng = np.random.default_rng(39)
    for step in (1, 2):
        for name, p in params.named_parameters():
            g = p.grad.copy()
            m[name] = 0.9 * m[name] + 0.1 * g
            v[name] = 0.999 * v[name] + 0.001 * g * g
            m_hat, v_hat = m[name] / (1 - 0.9 ** step), v[name] / (1 - 0.999 ** step)
            want[name] = want[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        tr.adam_step(opt, params)
        assert opt.step == step and all((p.grad == 0.0).all() for p in params.parameters())
        for name, p in params.named_parameters():
            np.testing.assert_allclose(p.data, want[name], rtol=1e-12, atol=0, err_msg=name)
            p.grad[...] = rng.normal(size=p.grad.shape)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf], ids=str)
def test_adam_step_refuses_a_non_finite_gradient_and_moves_no_parameter(poison):
    params = _params_with_gradients(40)
    opt = tr.OptimizerState.for_params(params, lr=0.01)
    before = [p.data.copy() for p in params.parameters()]
    params.b_r.grad[1] = poison
    with pytest.raises(tr.NonFiniteGradientError, match="'b_r'") as err:
        tr.adam_step(opt, params)
    assert err.value.param_name == "b_r" and opt.step == 0
    assert all(np.array_equal(p.data, b) for p, b in zip(params.parameters(), before))


def _gradient_norm(params):
    """The global L2 norm, each gradient summed in row-major order (its bits on a C-ordered copy)."""
    return math.sqrt(sum(float((np.ascontiguousarray(p.grad) ** 2).sum()) for p in params.parameters()))


def test_clip_gradients_scales_a_larger_norm_down_to_max_norm():
    params = _params_with_gradients(41)
    norm = _gradient_norm(params)
    before = [p.grad.copy() for p in params.parameters()]
    assert norm > 1.0
    assert tr.clip_gradients(params, 1.0) == norm
    assert math.isclose(_gradient_norm(params), 1.0, rel_tol=1e-12)
    for p, b in zip(params.parameters(), before):
        np.testing.assert_allclose(p.grad, b / norm, rtol=1e-12, atol=0)


def test_clip_gradients_sums_a_column_major_gradient_in_row_major_order():
    # the table's gradient is F-ordered; a sum of its squares in memory order moved the norm's last bit
    params = md.init_params(200, 16, 2, RngState(2))
    rng = np.random.default_rng(2)
    shape = params.embeddings.grad.shape
    table = np.asfortranarray(rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape))
    for p in params.parameters():
        p.grad = np.zeros_like(p.data)
    params.embeddings.grad = table
    row_major = math.sqrt(float((np.ascontiguousarray(table) ** 2).sum()))
    assert row_major != math.sqrt(float((table * table).sum()))
    assert tr.clip_gradients(params, 0.0) == row_major


def test_adam_keeps_the_table_and_its_moments_column_major():
    params = _params_with_gradients(43)
    opt = tr.OptimizerState.for_params(params, lr=0.01)
    tr.adam_step(opt, params)
    for a in (params.embeddings.data, params.embeddings.grad, opt.m["embeddings"], opt.v["embeddings"]):
        assert a.flags.f_contiguous and not a.flags.c_contiguous


@pytest.mark.parametrize("max_norm", [0.0, "norm", 1e6], ids=["off", "at-the-norm", "above-the-norm"])
def test_clip_gradients_leaves_a_norm_within_max_norm_alone(max_norm):
    params = _params_with_gradients(42)
    norm = _gradient_norm(params)
    before = [p.grad.copy() for p in params.parameters()]
    assert tr.clip_gradients(params, norm if max_norm == "norm" else max_norm) == norm
    assert all(np.array_equal(p.grad, b) for p, b in zip(params.parameters(), before))
