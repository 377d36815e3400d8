"""The benchmark workloads, their timed phases and their output checks.

Every workload is generated from the run's seed with ``generate_synthetic``
and driven only through public casdis functions, always looked up on the
module (``model.prefix_scores``) so that the tracer's wrappers see the call.
The phases are: train, a checkpoint round trip, evaluate on the test set, and
a closed loop of ``predict_topn`` queries from one client.  Every output is
checked, and each check is one operation of the run's tally.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import casdis
from casdis import data, evaluation, model, training

from . import hostspeed
from . import tracer as tr
from .stats import tail_percentile

SPLIT_SEED = 0
TRAIN_SEED = 7
LR = 0.01
BATCH = 16
CROSS_COMMUNITY_PROB = 0.1
TOP_N = 10
SETUP_REPS = 3
MIN_QUERIES = 100          # p90 then has ten samples beyond it
REL_TOL = 1e-9             # scores and losses may move by reordered float sums, no more
# Shares of the measured time that go to the train, evaluate and predict phases.
TRAIN_SHARE, EVAL_SHARE, PREDICT_SHARE = 0.5, 0.2, 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    communities: int
    nodes_per_community: int
    cascades: int
    length_range: Tuple[int, int]
    factors: int
    dim: int
    epochs: int
    max_len: int = 200
    # Train/valid/test cascades kept, the longest of each part, so that the
    # work per call and the peak memory barely depend on the seed.
    subset: Optional[Tuple[int, int, int]] = None
    loss_excess_max: float = 0.0  # bound on valid_loss - ln N; ln N is a uniform guess
    hits_at_10_min: Optional[float] = None


WORKLOADS = {
    w.name: w
    for w in (
        # N=40: scoring is trivial, so per-op tape bookkeeping and the Python
        # GRU recurrence dominate.  Two epochs put hits@10 well above chance.
        Workload(
            "desk_train", communities=2, nodes_per_community=20, cascades=500, length_range=(12, 36),
            factors=2, dim=32, epochs=2, loss_excess_max=-0.15, hits_at_10_min=0.35,
        ),
        # L=150-200: O(L^2) attention, weighted_mix and long backprop through
        # time dominate; the only workload where they do.
        Workload(
            "long_train", communities=4, nodes_per_community=100, cascades=40, length_range=(150, 200),
            factors=2, dim=32, epochs=1, loss_excess_max=0.05,
        ),
        # N~11.4k, K=4, D=64: scoring against the whole table, its copy and
        # np.add.at backward, logsumexp over N and the dense table update dominate.
        Workload(
            "paper_scale", communities=40, nodes_per_community=300, cascades=1500, length_range=(12, 36),
            factors=4, dim=64, epochs=1, subset=(16, 4, 8), loss_excess_max=0.1,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "valid_loss": "nats/step",
    "eval_points_per_s": "points/s",
    "predict_p50_ms": "ms",
    "predict_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Figures printed with the metrics but not among them: their chance level
# differs too much between workloads (0.25 at N=40, 0.001 at N~11k, where a
# few batches leave them at 0).  desk_train checks hits@10 against a bound.
NOTE_UNITS = {"hits_at_10": "fraction", "map_at_10": "fraction"}

# Per-layer metrics taken from the traced set-up; the rest come from a traced round.
SETUP_LAYER_METRICS = (
    "data.generate_synthetic_s", "data.parse_cascades_s", "data.split_dataset_s", "model.init_params_s",
)


class Tally:
    """Operations attempted and failed, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)
        return ok


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=REL_TOL, atol=REL_TOL))


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Prepared:
    workload: Workload
    split: data.DatasetSplit
    num_nodes: int

    @property
    def prefix_lengths(self) -> range:
        """Predict queries use prefix lengths 1..min_len-1 on every test
        cascade, so the latency mix is the same whatever the seed."""
        return range(1, self.workload.length_range[0])


def _logsumexp(scores: np.ndarray) -> np.ndarray:
    top = scores.max(axis=1, keepdims=True)
    return (np.log(np.exp(scores - top).sum(axis=1, keepdims=True)) + top)[:, 0]


def reference_outputs(entry: dict) -> dict:
    """Eval-mode ``prefix_scores`` of a seeded ``init_params`` on the stored
    prefixes, reduced to the stored columns plus each row's logsumexp."""
    params = model.init_params(
        entry["num_nodes"], entry["dim"], entry["factors"], casdis.RngState(entry["init_seed"])
    )
    columns, lse = [], []
    for prefix in entry["prefixes"]:
        scores = model.prefix_scores(params, prefix)
        columns.append(scores[:, entry["columns"]].tolist())
        lse.append(_logsumexp(scores).tolist())
    return {"scores": columns, "logsumexp": lse}


def check_reference(entry: dict, tally: Tally) -> None:
    got = reference_outputs(entry)
    for i in range(len(entry["prefixes"])):
        tally.record(
            _close(got["scores"][i], entry["scores"][i]) and _close(got["logsumexp"][i], entry["logsumexp"][i]),
            f"prefix_scores differ from the stored reference on prefix {i}",
        )


def prepare(w: Workload, seed: int, reference: dict, tally: Tally) -> Prepared:
    """Generate, parse, split, then warm up on the reference check."""
    spec = data.SyntheticSpec(
        communities=w.communities, nodes_per_community=w.nodes_per_community,
        cross_community_prob=CROSS_COMMUNITY_PROB, cascades=w.cascades,
        length_range=w.length_range, seed=seed,
    )
    raw, _labels = data.generate_synthetic(spec)
    parsed = data.parse_cascades(" ".join(c) for c in raw)
    split = data.split_dataset(parsed.cascades, SPLIT_SEED)
    if w.subset:
        parts = [sorted(part, key=len, reverse=True)[:n]
                 for part, n in zip((split.train, split.valid, split.test), w.subset)]
        split = data.DatasetSplit(*parts, split_seed=SPLIT_SEED)
    check_reference(reference, tally)
    return Prepared(w, split, parsed.vocabulary.size)


# ---------------------------------------------------------------------------
# timed phases


@dataclass
class TrainRun:
    seconds: float
    steps: int
    batches: int
    result: training.TrainResult


def train_phase(p: Prepared) -> TrainRun:
    w = p.workload
    config = training.TrainConfig(
        lr_init=LR, batch_size=BATCH, max_epochs=w.epochs, patience=w.epochs + 1,
        seed=TRAIN_SEED, k=w.factors, d=w.dim, max_len=w.max_len,
    )
    steps = w.epochs * sum(max(min(len(c), w.max_len) - 1, 0) for c in p.split.train)
    batches = w.epochs * math.ceil(len(p.split.train) / BATCH)
    start = time.perf_counter()
    result = training.train(config, p.split, p.num_nodes)
    return TrainRun(time.perf_counter() - start, steps, batches, result)


def checkpoint_phase(params, path: str):
    """Save, then load back; returns (params, seed) as read."""
    model.save_checkpoint(path, params, TRAIN_SEED)
    return model.load_checkpoint(path)


def predict_phase(p: Prepared, params, queries: range):
    """The closed loop's queries numbered ``queries``, one after another.

    Query q asks for prefix length 1 + q mod n of test cascade
    (q div n) mod len(test), with n = min_len - 1: each sweep of n queries
    covers every prefix length once.  Returns (query, seconds, top-n).
    """
    n = len(p.prefix_lengths)
    out = []
    for q in queries:
        cascade, length = (q // n) % len(p.split.test), 1 + q % n
        start = time.perf_counter()
        top = model.predict_topn(params, p.split.test[cascade][:length], TOP_N)
        out.append(((cascade, length), time.perf_counter() - start, top))
    return out


def whole_sweeps(p: Prepared, queries: int) -> int:
    """The smallest number of queries that is at least ``queries`` and
    MIN_QUERIES and ends a sweep."""
    n = len(p.prefix_lengths)
    return n * math.ceil(max(queries, MIN_QUERIES) / n)


# ---------------------------------------------------------------------------
# output checks


def check_train(p: Prepared, run: TrainRun, first: Optional[TrainRun], tally: Tally) -> None:
    w = p.workload
    log = run.result.log
    if not tally.record(
        run.result.stopped == "max_epochs" and len(log) == w.epochs,
        f"training stopped with {run.result.stopped!r} after {len(log)} epochs",
        run.batches,
    ):
        return
    loss = log[-1].valid_loss
    tally.record(
        math.isfinite(loss) and loss - math.log(p.num_nodes) <= w.loss_excess_max,
        f"valid_loss {loss:.6f} above ln N {w.loss_excess_max:+g}",
    )
    if first is not None:
        tally.record(
            _close(loss, first.result.log[-1].valid_loss),
            "a repeated seeded train call gave another valid_loss",
        )


def check_checkpoint(params, loaded, seed: int, tally: Tally) -> None:
    same = seed == TRAIN_SEED and (loaded.num_nodes, loaded.dim, loaded.factors) == (
        params.num_nodes, params.dim, params.factors)
    same = same and all(
        np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters())
    )
    tally.record(same, "checkpoint did not round-trip bit-exactly")


def target_ranks(p: Prepared, params) -> List[np.ndarray]:
    """1-based rank of the true next node at every prefix of every test
    cascade; ties go to the lower node index, as in ``predict_topn``."""
    ranks = []
    for cascade in p.split.test:
        idx = np.asarray(cascade)
        scores = model.prefix_scores(params, idx[:-1])
        target = scores[np.arange(len(idx) - 1), idx[1:]][:, None]
        lower = np.arange(scores.shape[1])[None, :] < idx[1:, None]
        ranks.append(1 + (scores > target).sum(axis=1) + ((scores == target) & lower).sum(axis=1))
    return ranks


def check_eval(p: Prepared, report, ranks, first, tally: Tally) -> None:
    flat = np.concatenate(ranks)
    ok = report.prediction_points == len(flat)
    ok = ok and _close(report.hits[TOP_N], (flat <= TOP_N).mean())
    ok = ok and _close(report.maps[TOP_N], np.where(flat <= TOP_N, 1.0 / flat, 0.0).mean())
    tally.record(ok, "evaluate disagrees with ranks from prefix_scores")
    if first is not None:
        tally.record(report.hits == first.hits and report.maps == first.maps, "a repeated evaluate gave another report")
    if p.workload.hits_at_10_min is not None:
        tally.record(
            report.hits[TOP_N] >= p.workload.hits_at_10_min,
            f"hits@10 {report.hits[TOP_N]:.4f} below {p.workload.hits_at_10_min}",
        )


def check_predictions(p: Prepared, results, ranks, tally: Tally) -> None:
    """Each query's top-n is n distinct nodes and holds the true next node
    exactly when its rank from ``prefix_scores`` is within n."""
    for (cascade, length), _, top in results:
        target = p.split.test[cascade][length]
        hit = ranks[cascade][length - 1] <= TOP_N
        top = np.asarray(top)
        tally.record(
            len(top) == TOP_N and len(set(top.tolist())) == TOP_N
            and top.min() >= 0 and top.max() < p.num_nodes and (target in top) == hit,
            f"predict_topn disagrees with the ranks for cascade {cascade} prefix {length}",
        )


# ---------------------------------------------------------------------------
# runs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checkpoint_path(out_dir: str, w: Workload) -> str:
    return os.path.join(out_dir, f"{w.name}.ckpt")


# Shortest stretch of evaluate calls or predict queries between two runs of
# the host-speed kernel, which then costs about a tenth of the time.
MIN_BATCH_SECONDS = 0.25
PREDICT_CHUNK = 11  # queries per timed predict call, at most ~0.2 s of work


def measure(w: Workload, seed: int, seconds: float, reference: dict, out_dir: str, tally: Tally):
    """Untraced run: the end-to-end metrics plus a few figures for the log.

    After the set-ups the run repeats rounds until ``seconds`` have passed:
    one train call, then evaluate calls and predict queries for the shares
    of that call's time given by the phase shares, at least 100 queries in
    all.  Every timing is scaled to the reference host speed (see
    ``hostspeed``); rates are medians over calls.
    """
    speed = hostspeed.HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        setups += hostspeed.timed(speed, 0.0, lambda: prepare(w, seed, reference, tally))
    p = setups[-1][2]

    trains: List[Tuple[float, float, TrainRun]] = []
    evals: List[Tuple[float, float, object]] = []
    queries: List[Tuple[float, float, tuple]] = []

    asked = 0

    def predict(count):
        nonlocal asked
        asked += count
        return predict_phase(p, loaded, range(asked - count, asked))

    def spend(budget, call):
        """Timed calls for ``budget`` seconds, the host-speed kernel between batches."""
        start = time.perf_counter()
        out = []
        while not out or time.perf_counter() - start < budget:
            out += hostspeed.timed(speed, MIN_BATCH_SECONDS, call)
        return out

    begin = time.perf_counter()
    round_seconds = 0.0
    # A round starts while at least half of it still fits in ``seconds``.
    while not trains or time.perf_counter() - begin + round_seconds / 2 < seconds:
        round_start = time.perf_counter()
        trains += hostspeed.timed(speed, 0.0, lambda: train_phase(p))
        run = trains[-1][2]
        check_train(p, run, trains[0][2] if len(trains) > 1 else None, tally)
        if len(trains) == 1:
            params = run.result.params
            loaded, ckpt_seed = checkpoint_phase(params, _checkpoint_path(out_dir, w))
            check_checkpoint(params, loaded, ckpt_seed, tally)
            ranks = target_ranks(p, loaded)
        else:
            run.result = None  # one trained model is kept, so peak RSS does not grow with the calls
        for timing in spend(EVAL_SHARE / TRAIN_SHARE * run.seconds, lambda: evaluation.evaluate(loaded, p.split.test)):
            tally.record(True, "evaluate", len(p.split.test))
            check_eval(p, timing[2], ranks, evals[0][2] if evals else None, tally)
            evals.append(timing)
        for timing in spend(PREDICT_SHARE / TRAIN_SHARE * run.seconds, lambda: predict(PREDICT_CHUNK)):
            check_predictions(p, timing[2], ranks, tally)
            queries += _per_query(timing)
        round_seconds = time.perf_counter() - round_start
    # End on a whole sweep, so every prefix length is asked equally often.
    rest = whole_sweeps(p, asked) - asked
    if rest:
        timing = hostspeed.timed(speed, 0.0, lambda: predict(rest))[0]
        check_predictions(p, timing[2], ranks, tally)
        queries += _per_query(timing)

    first = trains[0][2]
    report = evals[0][2]
    latencies = [scaled for _, scaled, _ in queries]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled, _ in setups),
        "train_steps_per_s": statistics.median(r.steps / scaled for _, scaled, r in trains),
        "valid_loss": first.result.log[-1].valid_loss,
        "eval_points_per_s": statistics.median(rep.prediction_points / scaled for _, scaled, rep in evals),
        "predict_p50_ms": 1e3 * tail_percentile(latencies, 50),
        "predict_p90_ms": 1e3 * tail_percentile(latencies, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    raw = [r for r, _, _ in queries]
    notes = {
        "hits_at_10": report.hits[TOP_N],
        "map_at_10": report.maps[TOP_N],
        "num_nodes": p.num_nodes,
        "train_calls": len(trains),
        "train_steps_per_call": first.steps,
        "evaluate_calls": len(evals),
        "eval_points_per_call": report.prediction_points,
        "predict_queries": len(queries),
        "setup_reps": SETUP_REPS,
        "unscaled": {
            "setup_s": statistics.median(r for r, _, _ in setups),
            "train_steps_per_s": statistics.median(t.steps / r for r, _, t in trains),
            "eval_points_per_s": statistics.median(rep.prediction_points / r for r, _, rep in evals),
            "predict_p50_ms": 1e3 * tail_percentile(raw, 50),
            "predict_p90_ms": 1e3 * tail_percentile(raw, 90),
        },
    }
    return metrics, notes


def _per_query(timing):
    """Spread the host-speed scaling of a timed predict call over its queries."""
    raw, scaled, results = timing
    return [(t, t * scaled / raw, query) for query, t, _ in results]


def _round(p: Prepared, path: str):
    """One fixed unit of work through every phase; returns its wall time and
    what the checks need.  Checks run outside, untimed."""
    start = time.perf_counter()
    run = train_phase(p)
    loaded, ckpt_seed = checkpoint_phase(run.result.params, path)
    report = evaluation.evaluate(loaded, p.split.test)
    results = predict_phase(p, loaded, range(whole_sweeps(p, 0)))
    wall = time.perf_counter() - start
    return wall, run, (loaded, ckpt_seed), report, results


def measure_traced(w: Workload, seed: int, seconds: float, reference: dict, out_dir: str, tally: Tally):
    """Traced run: per-layer metrics from traced rounds, which alternate with
    untraced rounds of the same work to give the tracing overhead."""
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        p = prepare(w, seed, reference, tally)
    finally:
        restore()
    setup_spans = tracer.take()
    found = set(tracer.wrapped)
    setup_metrics = tr.layer_metrics(setup_spans, found, 0)
    path = _checkpoint_path(out_dir, w)

    speed = hostspeed.HostSpeed()
    walls = {False: [], True: []}  # round wall times at the reference host speed
    rounds: List[Dict[str, float]] = []
    first_spans = None
    ranks = first_run = first_report = None
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin + (walls[False][-1] + walls[True][-1]) / 2 < seconds:
        for traced in (False, True):
            restore = tr.install(tracer) if traced else None
            try:
                wall, run, (loaded, ckpt_seed), report, results = _round(p, path)
            finally:
                if restore:
                    restore()
            walls[traced].append(wall / speed.slowness())
            if ranks is None:
                ranks = target_ranks(p, loaded)
            check_train(p, run, first_run, tally)
            check_checkpoint(run.result.params, loaded, ckpt_seed, tally)
            tally.record(True, "evaluate", len(p.split.test))
            check_eval(p, report, ranks, first_report, tally)
            check_predictions(p, results, ranks, tally)
            first_run = first_run or run
            first_report = first_report or report
            if traced:
                spans = tracer.take()
                first_spans = first_spans or spans
                metrics = tr.layer_metrics(spans, found, run.steps)
                metrics["model.checkpoint_bytes"] = os.path.getsize(path)
                rounds.append(metrics)

    metrics = {k: v for k, v in setup_metrics.items() if k in SETUP_LAYER_METRICS}
    for key in rounds[0]:
        if key not in SETUP_LAYER_METRICS:
            metrics[key] = statistics.median(r[key] for r in rounds)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
    write_spans(os.path.join(out_dir, f"{w.name}-spans.jsonl.gz"), setup_spans, first_spans)
    notes = {"traced_rounds": len(rounds), "round_wall_s": {"untraced": walls[False], "traced": walls[True]}}
    return metrics, notes


def write_spans(path: str, setup_spans, round_spans) -> None:
    """The set-up spans and the first traced round's, one JSON array a line:
    [part, name, parent, start, end, stage, tensors built, work]."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for part, spans in (("setup", setup_spans), ("round", round_spans)):
            for span in spans:
                fh.write(json.dumps([part] + span) + "\n")
