import logging

from casdis import data as dt
from casdis import evaluation as ev
from casdis import model as md
from casdis import training as tr


def test_two_community_run_learns(two_community_run):
    """The reference run early-stops with test hits@10 well above chance.

    Chance hits@10 is 10/40 = 0.25; the seeded run measures 0.559.
    """
    assert two_community_run["result"].stopped == "early_stop"
    assert two_community_run["report"].hits[10] > 0.45


def test_library_writes_nothing_to_stdout(capfd, caplog):
    # the benchmark's result is its last stdout line, so casdis prints nothing
    caplog.set_level(logging.INFO)
    split = dt.DatasetSplit(train=[[0, 1, 2, 3], [3, 2, 1], [1]], valid=[[1, 2, 0]], test=[[2, 0, 1]], split_seed=0)
    result = tr.train(tr.TrainConfig(max_epochs=2, k=2, d=4, batch_size=2), split, 4)
    ev.evaluate(result.params, split.test)
    md.predict_topn(result.params, [2, 0], 3)
    assert len(result.log) == 2 and capfd.readouterr().out == ""
