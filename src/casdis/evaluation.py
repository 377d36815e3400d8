"""Ranking metrics and step loss over every prediction point of a cascade set.

Each prefix of each test cascade is one retrieval query: score all candidate nodes,
then rank the true next node and take its step loss in nats, one row of ``point_table``.
hits@N, map@N and nats per step, which validation's ``training.mean_step_loss`` also
reads, reduce that table of one ``model.batch_scores`` batch (no index of each candidate's best factor).
Its blocks are ranked and lossed in stacks of up to ``_TABLE_ELEMENTS`` = 2^14 scores.  A rank is 1
plus the count of nodes that score higher or tie the target at a lower index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .model import ModelParams, _step_losses, batch_scores
from .numerics import _integer

DEFAULT_N_VALUES = (10, 50, 100)
_TABLE_ELEMENTS = 2 ** 14  # scores per _ranks call: some 400 rows at N=40; a block at N ~ 11k goes alone


@dataclass
class EvalReport:
    hits: Dict[int, float]
    maps: Dict[int, float]
    prediction_points: int
    nats_per_step: float


def _ranks(scores: np.ndarray, targets) -> np.ndarray:
    """1-based rank of ``targets[i]`` (an array) in row i of the (t, N) ``scores``: 1 plus the count of nodes
    that score higher or tie it at a lower index, the ties sought only on rows where another node ties it."""
    own = scores[np.arange(len(targets)), targets][:, None]
    ranks = 1 + np.count_nonzero(scores > own, axis=1)
    tied = np.flatnonzero(np.count_nonzero(scores == own, axis=1) > 1)  # a NaN target ties nothing
    before = np.arange(scores.shape[1]) < targets[tied, None]
    ranks[tied] += np.count_nonzero((scores[tied] == own[tied]) & before, axis=1)
    return ranks


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """1-based rank under the deterministic tie-break: equal scores are
    ordered by ascending node index (matching predict_topn)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {s.shape}")
    if _integer("target", target, 0) >= len(s):
        raise ValueError(f"target {target} out of range for {len(s)} scores")
    return int(_ranks(s[None], np.array([target]))[0])


def hits_at_n(ranks: Sequence[int], n: int) -> float:
    """Fraction of prediction points ranked within the top n, an integer >= 1."""
    _integer("n", n, 1)
    r = np.asarray(ranks)
    if r.size == 0:
        raise ValueError("hits_at_n of empty rank list")
    return float((r <= n).mean())


def map_at_n(ranks: Sequence[int], n: int) -> float:
    """Mean truncated reciprocal rank: 1/rank when rank <= n, an integer >= 1, else 0.

    With exactly one relevant item per point this is the average precision.
    """
    _integer("n", n, 1)
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        raise ValueError("map_at_n of empty rank list")
    return float(np.where(r <= n, 1.0 / r, 0.0).mean())


@dataclass(frozen=True)
class PointTable:
    """One row per prediction point, in block order: the row of its cascade in the cascade
    list, the 1-based rank of its target and its step loss in nats."""
    cascade: np.ndarray
    rank: np.ndarray
    nats: np.ndarray

    def nats_per_step(self) -> float:
        """Each cascade's nats summed on their own, the sums added in block order, over the row count."""
        if not len(self.nats):
            raise ValueError("no prediction points (all cascades shorter than 2)")
        parts = np.split(self.nats, np.flatnonzero(np.diff(self.cascade)) + 1)
        return sum(float(part.sum()) for part in parts) / len(self.nats)


def _gathered(blocks: Iterable[Tuple[int, np.ndarray]], cascades: Sequence[Sequence[int]]):
    """Lists of consecutive checked ``blocks`` of up to ``_TABLE_ELEMENTS`` scores, flushed before a block that
    would pass it and with one that reaches it: a block that large goes alone, before the next is scored."""
    held, size, width = [], 0, None
    for row, scores in blocks:
        if not 0 <= row < len(cascades):
            raise ValueError(f"the block of row {row} names no row of the {len(cascades)} cascades")
        if scores.ndim != 2 or width not in (None, scores.shape[1]):
            raise ValueError(f"the block of row {row} has shape {scores.shape}, not (t, {width or 'N'})")
        width = scores.shape[1]
        if not len(scores):
            continue
        if len(scores) >= len(cascades[row]):
            raise ValueError(f"the block of row {row} has {len(scores)} rows for "
                             f"{max(len(cascades[row]) - 1, 0)} prediction points")
        if held and size + scores.size > _TABLE_ELEMENTS:
            yield held
            held, size = [], 0
        held.append((row, scores))
        size += scores.size
        if size >= _TABLE_ELEMENTS:
            yield held
            held, size = [], 0
    if held:
        yield held


def point_table(blocks: Iterable[Tuple[int, np.ndarray]], cascades: Sequence[Sequence[int]]) -> PointTable:
    """The table of the ``(row, scores)`` pairs of ``blocks``, such as ``model.batch_scores`` yields: row i of
    the (t, N) array ``scores`` scores the node after the first i+1 of ``cascades[row]``, in [0, N).  A block of
    a row outside [0, len(cascades)), of another N or with more rows than its cascade's prediction points is a
    ValueError naming the row; a (0, N) block adds none.  Ranking stacks of blocks (``_gathered``) moves no bit."""
    rows, ranks, nats = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for held in _gathered(blocks, cascades):
        scores = held[0][1] if len(held) == 1 else np.concatenate([block for _, block in held])
        targets = np.concatenate([cascades[row][1:len(block) + 1] for row, block in held])
        rows.append(np.repeat([row for row, _ in held], [len(block) for _, block in held]))
        ranks.append(_ranks(scores, targets))
        nats.append(_step_losses(scores, targets)[0])
    return PointTable(*map(np.concatenate, (rows, ranks, nats)))


def evaluate(params: ModelParams, cascades: Sequence[Sequence[int]],
             n_values: Sequence[int] = DEFAULT_N_VALUES) -> EvalReport:
    """hits@N, map@N and nats per step, reductions of the ``point_table`` of ``cascades``; a node
    index out of range anywhere, no prediction point, or a cutoff N that is not an integer >= 1
    raises ValueError, the cutoffs before any scoring."""
    for n in n_values:
        _integer("n", n, 1)
    table = point_table(batch_scores(params, cascades), cascades)
    return EvalReport(nats_per_step=table.nats_per_step(),  # first, as the refusal of a table with no row
                      hits={n: hits_at_n(table.rank, n) for n in n_values},
                      maps={n: map_at_n(table.rank, n) for n in n_values}, prediction_points=len(table.rank))


def _report_rows(report: EvalReport):
    """(metric, N, value) of every hits@N by ascending N, then of every map@N, then of nats per step, N empty."""
    return [(metric, n, values[n]) for metric, values in (("hits", report.hits), ("map", report.maps))
            for n in sorted(values)] + [("nats", "", report.nats_per_step)]


def format_report(report: EvalReport) -> str:
    points = report.prediction_points
    lines = [f"{'metric':<8}{'N':>6}{'value':>12}{'points':>10}"]
    lines += [f"{metric:<8}{n:>6}{value:>12.4f}{points:>10}" for metric, n, value in _report_rows(report)]
    return "\n".join(lines)


def report_csv_lines(report: EvalReport) -> List[str]:
    """Machine-readable rows: metric,N,value,points."""
    return ["metric,N,value,points"] + [f"{metric},{n},{value:.10f},{report.prediction_points}"
                                        for metric, n, value in _report_rows(report)]
