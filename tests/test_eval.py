import math

import numpy as np
import pytest

from casdis import evaluation as ev
from casdis import model as md
from casdis import training as tr
from casdis.numerics import RngState

from test_model import numpy_oracle


def brute_force_report(params, cascades, n_values=(10, 50, 100)):
    """Fully independent evaluator: recompute scores prefix by prefix with the
    numpy oracle, rank by explicit sort, count by hand, and take each point's
    nats as the max-shifted logsumexp of its scores minus the target's score."""
    ranks, nats = [], []
    for cascade in cascades:
        if len(cascade) < 2:
            continue
        all_scores, _ = numpy_oracle(params, cascade)
        for t in range(1, len(cascade)):
            scores = all_scores[t - 1]
            order = sorted(range(len(scores)), key=lambda v: (-scores[v], v))
            ranks.append(order.index(cascade[t]) + 1)
            top = max(scores)
            nats.append(top + math.log(math.fsum(math.exp(s - top) for s in scores)) - scores[cascade[t]])
    hits = {n: float(np.mean([r <= n for r in ranks])) for n in n_values}
    maps = {n: float(np.mean([1.0 / r if r <= n else 0.0 for r in ranks])) for n in n_values}
    return hits, maps, len(ranks), ranks, math.fsum(nats) / len(nats)


def table_ranks(params, cascades):
    """The rank column of the point table of the cascades, scored as one ``batch_scores`` batch."""
    return ev.point_table(md.batch_scores(params, cascades), cascades).rank.tolist()


# ---------------------------------------------------------------------------
# rank_of_target


def test_rank_unique_max():
    assert ev.rank_of_target(np.array([0.1, 0.9, 0.3]), 1) == 1


def test_rank_all_equal_tie_break():
    scores = np.zeros(5)
    assert ev.rank_of_target(scores, 0) == 1
    assert ev.rank_of_target(scores, 3) == 4


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=20)
    scores[4] = scores[11]  # force one tie
    order = sorted(range(20), key=lambda v: (-scores[v], v))
    for target in range(20):
        assert ev.rank_of_target(scores, target) == order.index(target) + 1


def test_rank_target_out_of_range():
    with pytest.raises(ValueError):
        ev.rank_of_target(np.zeros(3), 3)
    with pytest.raises(ValueError, match="^target must be >= 0,"):
        ev.rank_of_target(np.zeros(3), -1)


def test_rank_target_must_be_an_integer():
    # a bool would rank node 0 or 1
    scores = np.array([0.3, 0.9, 0.1])
    for target in (1.7, True, False):
        with pytest.raises(ValueError, match="integer"):
            ev.rank_of_target(scores, target)
    assert ev.rank_of_target(scores, np.int64(1)) == 1


@pytest.mark.parametrize("scores", [np.zeros((3, 4)), np.array(0.5), [[1.0, 2.0]]], ids=["2-D", "0-d", "one row"])
def test_rank_refuses_scores_that_are_not_1d(scores):
    # numpy's broadcast error, a TypeError and "target 1 out of range for 1 scores" before
    with pytest.raises(ValueError, match=r"scores must be 1-D, got shape \("):
        ev.rank_of_target(scores, 1)


# ---------------------------------------------------------------------------
# hits / map


def test_hits_examples():
    assert ev.hits_at_n([1, 1, 1], 10) == 1.0
    assert ev.hits_at_n([11], 10) == 0.0
    assert ev.hits_at_n([3, 40, 200], 50) == pytest.approx(2 / 3)


def test_map_examples():
    assert ev.map_at_n([1, 1], 10) == 1.0
    assert ev.map_at_n([4], 10) == 0.25
    assert ev.map_at_n([2, 5, 120], 100) == pytest.approx((0.5 + 0.2 + 0.0) / 3)


def test_metrics_reject_empty():
    with pytest.raises(ValueError):
        ev.hits_at_n([], 10)
    with pytest.raises(ValueError):
        ev.map_at_n([], 10)


BAD_CUTOFFS = [(True, "integer"), (2.5, "integer"), ("3", "integer"), (0, "^n must be >= 1,"), (-3, "^n must be >= 1,")]


@pytest.mark.parametrize("n, message", BAD_CUTOFFS, ids=["bool", "float", "string", "zero", "negative"])
@pytest.mark.parametrize("metric", [ev.hits_at_n, ev.map_at_n], ids=["hits", "map"])
def test_metrics_refuse_a_cutoff_that_is_not_an_integer_of_at_least_one(metric, n, message):
    with pytest.raises(ValueError, match=message):
        metric([1, 2, 5], n)


@pytest.mark.parametrize("n, message", BAD_CUTOFFS, ids=["bool", "float", "string", "zero", "negative"])
def test_evaluate_refuses_a_cutoff_that_is_not_an_integer_of_at_least_one(n, message):
    # each was accepted and reported under its own key: hits@True counted the ranks <= 1
    params = md.init_params(6, 4, 2, RngState(0))
    with pytest.raises(ValueError, match=message):
        ev.evaluate(params, [[0, 3, 1], [2, 5]], (10, n))
    assert ev.evaluate(params, [[0, 3, 1], [2, 5]], (np.int64(1), 10)).hits.keys() == {1, 10}


def test_evaluate_refuses_a_bad_cutoff_before_it_scores(monkeypatch):
    def no_scoring(params, batch):
        raise AssertionError("scored before the cutoffs were checked")

    monkeypatch.setattr(ev, "batch_scores", no_scoring)
    with pytest.raises(ValueError, match="must be >= 1"):
        ev.evaluate(md.init_params(6, 4, 2, RngState(0)), [[0, 3, 1], [2, 5]], (0,))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_constant_scorer_follows_tie_break():
    params = md.init_params(30, 4, 2, RngState(0))
    params.embeddings.data[:] = params.embeddings.data[0]  # all scores equal
    cascades = [[0, 5], [0, 12], [0, 29]]
    report = ev.evaluate(params, cascades, n_values=(10,))
    # rank of target v under all-equal scores is v + 1
    expect = np.mean([(5 + 1) <= 10, (12 + 1) <= 10, (29 + 1) <= 10])
    assert report.hits[10] == pytest.approx(expect)


def test_evaluate_perfect_prediction():
    params = md.init_params(15, 6, 2, RngState(1))
    best = md.predict_topn(params, [3], 1)[0]  # build a cascade the model nails
    report = ev.evaluate(params, [[3, int(best)]], n_values=(10,))
    assert report.hits[10] == 1.0
    assert report.maps[10] == 1.0
    assert report.prediction_points == 1


def test_evaluate_matches_brute_force(two_community_small):
    parsed, _labels = two_community_small
    params = md.init_params(parsed.vocabulary.size, 6, 3, RngState(2))
    cascades = parsed.cascades[:20]
    report = ev.evaluate(params, cascades)
    hits, maps, points, ranks, nats_per_step = brute_force_report(params, cascades)
    assert report.prediction_points == points
    assert table_ranks(params, cascades) == ranks
    assert math.isclose(report.nats_per_step, nats_per_step, rel_tol=1e-12, abs_tol=0.0)
    for n in (10, 50, 100):
        assert report.hits[n] == hits[n]
        assert report.maps[n] == maps[n]


def test_block_ranks_equal_rank_of_target_across_exact_ties():
    # zero LN gain and dyadic embeddings make many scores tie exactly, the
    # target's own score among them
    rng = np.random.default_rng(28)
    params = md.init_params(30, 4, 3, RngState(28))
    params.ln_gain.data[:] = 0.0
    params.ln_bias.data[:] = rng.integers(-4, 5, 4) / 4
    params.embeddings.data[:] = rng.integers(-1, 2, (31, 4)) / 4
    cascades = [rng.integers(0, 30, size=int(rng.integers(2, 12))).tolist() for _ in range(12)] + [[5]]
    expect, tied = [], 0
    for cascade in cascades:
        scores = md.prefix_scores(params, cascade[:-1]) if len(cascade) > 1 else []
        for t, row in enumerate(scores):
            target = cascade[t + 1]
            expect.append(ev.rank_of_target(row, target))
            tied += int((row[:target] == row[target]).any())
    assert tied >= 10
    assert table_ranks(params, cascades) == expect


def _prefix_ranks(params, cascades):
    """Target ranks from one B=1 ``prefix_scores`` call per cascade."""
    return [ev.rank_of_target(row, cascade[t + 1])
            for cascade in cascades if len(cascade) > 1
            for t, row in enumerate(md.prefix_scores(params, cascade[:-1]))]


def test_batched_ranks_equal_prefix_scores_ranks_across_groups_and_chunks(monkeypatch):
    # lengths 1, 2 and 3-12, and one cascade of 230 nodes, longer than training's default
    # max_len of 200, which evaluation never cuts: ten live rows, the longest with 229 points.
    # Each group and chunk is cut from its own rows: the five short rows before the
    # long one share one group and one chunk, and the long one's group holds it and
    # the next three, two per chunk
    rng = np.random.default_rng(29)
    params = md.init_params(30, 4, 3, RngState(29))
    cascades = [[5], [3, 7]] + [rng.integers(0, 30, size=n).tolist() for n in (3, 12, 7, 9)]
    cascades += [rng.integers(0, 30, size=230).tolist()] + [rng.integers(0, 30, size=n).tolist() for n in (4, 11, 6, 10)]
    width = 229
    monkeypatch.setattr(md, "_GROUP_ELEMENTS", 4 * width * params.dim)
    monkeypatch.setattr(md, "_CHUNK_ELEMENTS", 2 * width * (width + params.factors * params.dim))
    groups, blocks = [], []
    recurrence, head = md._recurrence, md._head
    monkeypatch.setattr(md, "_recurrence", lambda p, pos, *a: groups.append(len(pos)) or recurrence(p, pos, *a))
    monkeypatch.setattr(md, "_head", lambda p, hidden, *a: blocks.append(len(hidden)) or head(p, hidden, *a))
    ranks = table_ranks(params, cascades)
    assert groups == [5, 4, 1] and blocks == [5, 2, 2, 1]
    assert len(ranks) == sum(len(c) - 1 for c in cascades[1:])
    assert ranks == _prefix_ranks(params, cascades)


def test_a_long_cascade_leaves_the_cut_of_the_short_ones_alone(monkeypatch):
    # 600 cascades of 2-12 nodes, then one of 200, at the default budgets: each group
    # and chunk is cut from its own rows, so the short cascades run in the groups and
    # chunks they have without the long one, which runs alone in a group and a chunk
    params = md.init_params(40, 32, 2, RngState(34))
    rng = np.random.default_rng(35)
    short = [rng.integers(0, 40, size=n).tolist() for n in rng.integers(2, 13, size=600)]
    long = rng.integers(0, 40, size=200).tolist()
    groups, blocks = [], []
    recurrence, head = md._recurrence, md._head
    monkeypatch.setattr(md, "_recurrence", lambda p, pos, *a: groups.append(pos.shape) or recurrence(p, pos, *a))
    monkeypatch.setattr(md, "_head", lambda p, hidden, *a: blocks.append(hidden.shape[:2]) or head(p, hidden, *a))
    list(md.batch_scores(params, short))
    alone_groups, alone_blocks = groups[:], blocks[:]
    groups.clear(), blocks.clear()
    cascades = short + [long]
    scores = list(md.batch_scores(params, cascades))
    assert len(alone_groups) >= 2 and len(alone_blocks) >= 4
    assert groups == alone_groups + [(1, 199)] and blocks == alone_blocks + [(1, 199)]
    kd = params.factors * params.dim
    assert all(rows * span * params.dim <= md._GROUP_ELEMENTS for rows, span in groups)
    assert all(rows * reach * (reach + kd) <= md._CHUNK_ELEMENTS for rows, reach in blocks)

    assert [row for row, _ in scores] == list(range(len(cascades)))
    for row, got in scores:
        want = md.prefix_scores(params, cascades[row][:-1])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_batch_scores_yields_live_rows_in_order():
    params = md.init_params(12, 4, 2, RngState(30))
    cascades = [[4, 1, 2], [3], [], [0, 5, 2, 6, 11], [7, 1], [9]]
    got = list(md.batch_scores(params, cascades))
    assert [row for row, _ in got] == [0, 3, 4]
    for row, scores in got:
        want = md.prefix_scores(params, cascades[row][:-1])
        assert scores.shape == want.shape == (len(cascades[row]) - 1, 12)
        assert np.max(np.abs(scores - want)) <= 1e-13 * np.max(np.abs(want))


def test_eval_recurrence_stays_within_its_group_bound(monkeypatch):
    # D=32 and 120 cascades of 40 nodes: 120 x 39 x 32 = 149,760 elements, more
    # than one recurrence group holds, in the single evaluation batch
    params = md.init_params(50, 32, 2, RngState(3))
    rng = np.random.default_rng(4)
    cascades = [rng.integers(0, 50, size=40).tolist() for _ in range(120)]
    groups = []
    recurrence = md._recurrence
    monkeypatch.setattr(md, "_recurrence", lambda p, pos, *a: groups.append(pos.shape) or recurrence(p, pos, *a))
    report = ev.evaluate(params, cascades)
    assert md._GROUP_ELEMENTS == 2 ** 17 and len(groups) >= 2
    assert all(rows * span * params.dim <= 2 ** 17 for rows, span in groups)
    assert sum(rows for rows, _ in groups) == 120 and report.prediction_points == 120 * 39


@pytest.mark.parametrize("bad", [[1, 30, 2], [1, 2, 30], [1, -1, 2], [2, 3, -1], [30]])
def test_evaluate_rejects_an_out_of_range_node_anywhere(bad):
    # in a prefix, as the last target, or alone; -1 must not wrap to node 29
    params = md.init_params(30, 4, 2, RngState(31))
    with pytest.raises(ValueError, match="outside"):
        ev.evaluate(params, [[0, 1, 2], bad, [3, 4]])


def test_evaluate_refuses_a_float_node_index():
    params = md.init_params(6, 4, 2, RngState(0))
    with pytest.raises(ValueError, match="integer node indices"):
        ev.evaluate(params, [[1.9, 2.5, 3.2], [0, 1, 2]])


def test_evaluate_monotonicity_invariants():
    rng = np.random.default_rng(4)
    for seed in range(3):
        params = md.init_params(40, 5, 2, RngState(seed))
        cascades = [rng.integers(0, 40, size=rng.integers(2, 8)).tolist() for _ in range(10)]
        report = ev.evaluate(params, cascades)
        assert report.hits[10] <= report.hits[50] <= report.hits[100]
        assert report.maps[10] <= report.maps[50] <= report.maps[100]
        for n in (10, 50, 100):
            assert report.maps[n] <= report.hits[n]


def test_uniform_random_scorer_hits_near_n_over_nodes():
    # a scorer ranking uniformly at random should hit with probability n/N
    rng = np.random.default_rng(5)
    n_nodes, n_points, cutoff = 50, 4000, 10
    ranks = [ev.rank_of_target(rng.normal(size=n_nodes), int(rng.integers(n_nodes)))
             for _ in range(n_points)]
    hit = ev.hits_at_n(ranks, cutoff)
    p = cutoff / n_nodes
    se = math.sqrt(p * (1 - p) / n_points)
    assert abs(hit - p) <= 3 * se


def test_report_formatting():
    report = ev.EvalReport(hits={10: 0.5, 50: 0.75}, maps={10: 0.2, 50: 0.3}, prediction_points=8, nats_per_step=3.25)
    table = ev.format_report(report)
    assert "hits" in table and "map" in table and "0.7500" in table
    assert table.splitlines()[-1].split() == ["nats", "3.2500", "8"]
    csv = ev.report_csv_lines(report)
    assert csv[0] == "metric,N,value,points"
    assert any(line.startswith("hits,10,") for line in csv)
    assert csv[-1] == "nats,,3.2500000000,8"  # nats per step has no cutoff


# ---------------------------------------------------------------------------
# point_table


def test_no_prediction_point_is_refused_once_for_evaluation_and_validation():
    params = md.init_params(6, 4, 2, RngState(0))
    for cascades in ([], [[3], []]):
        for reduce in (ev.evaluate, tr.mean_step_loss):
            with pytest.raises(ValueError, match="^no prediction points"):
                reduce(params, cascades)


def test_point_table_rows_follow_their_blocks():
    # blocks from a count scorer, one short of a cascade's points and in no row order,
    # and a cascade of one node, which no block scores
    rng = np.random.default_rng(36)
    cascades = [[0, 2, 1, 3], [4], [3, 3, 0]]
    blocks = [(2, rng.normal(size=(2, 5))), (0, rng.normal(size=(2, 5)))]
    table = ev.point_table(iter(blocks), cascades)
    assert table.cascade.tolist() == [2, 2, 0, 0]
    for (row, scores), got in zip(blocks, (slice(0, 2), slice(2, 4))):
        targets = cascades[row][1:3]
        assert table.rank[got].tolist() == [ev.rank_of_target(s, v) for s, v in zip(scores, targets)]
        assert table.nats[got].tolist() == md._step_losses(scores, targets)[0].tolist()


def test_nats_per_step_sums_each_cascade_on_its_own_then_adds_the_sums_in_order():
    # eleven points of cascade 0 and two of cascade 1, whose mean a flat sum over the
    # table, or numpy's reduceat (a plain running sum per cascade), rounds otherwise
    nats = np.array([0.5, 1.6, 0.0, 3.0, 3.4, 0.6, 2.8, 3.3, 3.9, 3.4, 1.7, 3.9, 3.9])
    table = ev.PointTable(cascade=np.repeat([0, 1], [11, 2]), rank=np.ones(13, dtype=np.intp), nats=nats)
    want = (float(nats[:11].sum()) + float(nats[11:].sum())) / 13
    assert table.nats_per_step() == want
    assert want not in (float(nats.sum()) / 13, sum(np.add.reduceat(nats, [0, 11]).tolist()) / 13)


def _two_mask_ranks(scores, targets):
    """The rank rule with two full (t, N) masks on every row: 1 plus the nodes that score
    higher, plus the nodes that tie the target at a lower index."""
    own = scores[np.arange(len(targets)), targets][:, None]
    before = np.arange(scores.shape[1]) < np.asarray(targets)[:, None]
    return 1 + np.count_nonzero(scores > own, axis=1) + np.count_nonzero((scores == own) & before, axis=1)


def _block_columns(blocks, cascades):
    """The three columns computed one block at a time."""
    parts = []
    for row, scores in blocks:
        if len(scores):
            targets = np.array(cascades[row][1:len(scores) + 1])
            parts.append((np.full(len(scores), row), ev._ranks(scores, targets), md._step_losses(scores, targets)[0]))
    return [np.concatenate(column) for column in zip(*parts)]


def test_ranks_count_ties_only_where_the_target_ties():
    # dyadic scores tie exactly.  Row 7 is all NaN and row 5's target is NaN: both rank 1
    rng = np.random.default_rng(37)
    scores = rng.integers(-2, 3, size=(60, 9)) / 4
    scores[:20] = rng.normal(size=(20, 9))  # rows with no tie
    scores[5, 3], scores[7] = np.nan, np.nan
    targets = rng.integers(0, 9, size=60)
    targets[5] = 3
    ranks = ev._ranks(scores, targets)
    assert np.array_equal(ranks, _two_mask_ranks(scores, targets))
    assert ranks[5] == ranks[7] == 1
    for i in range(8, 60):
        order = sorted(range(9), key=lambda v: (-scores[i, v], v))
        assert ranks[i] == order.index(targets[i]) + 1


def test_point_table_gathers_blocks_up_to_its_budget_and_passes_a_large_block_uncopied(monkeypatch):
    # N=10 and a budget of 60 scores, six rows: blocks below, at and above it, a large one after
    # small ones, and a (0, N) block.  Dyadic scores make ties that span the gathered blocks
    monkeypatch.setattr(ev, "_TABLE_ELEMENTS", 60)
    rng = np.random.default_rng(38)
    heights = [2, 3, 2, 6, 1, 1, 9, 3, 0, 3, 1]
    cascades = [rng.integers(0, 10, size=t + 1 + (row % 2)).tolist() for row, t in enumerate(heights)]
    blocks = [(row, rng.integers(-2, 3, size=(t, 10)) / 4) for row, t in enumerate(heights)]
    events = []  # the row of each block as it is scored, and the scores of each _ranks call
    ranks = ev._ranks
    monkeypatch.setattr(ev, "_ranks", lambda scores, targets: events.append(scores) or ranks(scores, targets))

    def scored():
        for row, scores in blocks:
            events.append(row)
            yield row, scores

    table = ev.point_table(scored(), cascades)
    # flush before a block that would pass the budget, and right after one that reaches it,
    # before the next block is scored
    log = [event if isinstance(event, int) else f"rank {len(event)}" for event in events]
    assert log == [0, 1, 2, "rank 5", 3, "rank 2", "rank 6", 4, 5, 6, "rank 2", "rank 9",
                   7, 8, 9, "rank 6", 10, "rank 1"]
    stacks = [event for event in events if not isinstance(event, int)]
    assert stacks[2] is blocks[3][1] and stacks[4] is blocks[6][1]
    for want, got in zip(_block_columns(blocks, cascades), (table.cascade, table.rank, table.nats)):
        assert np.array_equal(want, got)
    live = [(row, scores) for row, scores in blocks if len(scores)]
    targets = np.concatenate([cascades[row][1:len(scores) + 1] for row, scores in live])
    stacked = np.concatenate([scores for _, scores in live])
    assert np.array_equal(table.rank, _two_mask_ranks(stacked, targets))
    own = stacked[np.arange(len(targets)), targets][:, None]
    assert np.count_nonzero((stacked == own).sum(axis=1) > 1) >= 20  # rows where another node ties the target


def test_evaluate_ranks_many_small_blocks_in_few_calls(monkeypatch):
    # 50 desk-sized cascades at N=40: a call per 2^14 scores, not one per cascade
    params = md.init_params(40, 8, 2, RngState(39))
    rng = np.random.default_rng(39)
    cascades = [rng.integers(0, 40, size=n).tolist() for n in rng.integers(12, 37, size=50)]
    calls = []
    ranks = ev._ranks
    monkeypatch.setattr(ev, "_ranks", lambda scores, targets: calls.append(len(scores)) or ranks(scores, targets))
    report = ev.evaluate(params, cascades)
    assert ev._TABLE_ELEMENTS == 2 ** 14 and sum(calls) == report.prediction_points
    assert len(calls) <= math.ceil(report.prediction_points * 40 / 2 ** 14) + 1


def test_point_table_adds_no_row_for_a_block_with_no_row():
    # a count scorer's log_p[c[:-1]] for a cascade of one node, or of none, is a (0, N) block
    rng = np.random.default_rng(40)
    cascades = [[0, 2, 1], [4], [], [3, 3]]
    blocks = [(0, rng.normal(size=(2, 5))), (1, np.empty((0, 5))), (2, np.empty((0, 5))), (3, rng.normal(size=(1, 5)))]
    table = ev.point_table(iter(blocks), cascades)
    assert table.cascade.tolist() == [0, 0, 3]
    assert np.array_equal(table.rank, _block_columns(blocks, cascades)[1])


@pytest.mark.parametrize("block, message", [
    ((1, np.zeros((3, 5))), "the block of row 1 has 3 rows for 2 prediction points"),
    ((2, np.zeros((1, 5))), "the block of row 2 has 1 rows for 0 prediction points"),
    ((3, np.zeros((1, 5))), "the block of row 3 has 1 rows for 0 prediction points"),
    ((1, np.zeros(5)), r"the block of row 1 has shape \(5,\), not \(t, 5\)"),
    ((1, np.zeros((2, 6))), r"the block of row 1 has shape \(2, 6\), not \(t, 5\)"),
    ((-1, np.zeros((1, 5))), "the block of row -1 names no row of the 4 cascades"),
    ((4, np.zeros((1, 5))), "the block of row 4 names no row of the 4 cascades"),
], ids=["more rows than points", "a cascade of one node", "an empty cascade", "1-D", "another N",
        "row -1", "the row past the last"])
def test_point_table_refuses_a_block_outside_its_contract_naming_its_row(block, message):
    cascades = [[0, 1, 2], [3, 4, 0], [2], []]
    with pytest.raises(ValueError, match=f"^{message}$"):
        ev.point_table(iter([(0, np.zeros((2, 5))), block]), cascades)
