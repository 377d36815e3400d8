"""Ranking metrics over every prediction point of a cascade set.

Each prefix of each test cascade is one retrieval query: score all candidate
nodes, find the rank of the true next node, aggregate hits@N and map@N.  The
cascade list is scored as one batch by ``model.batch_scores``, which wants no
gradient and so builds no index of each candidate's best factor.  A rank is
1 plus the count of nodes that score higher or tie the target at a lower index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .model import ModelParams, batch_scores
from .numerics import _integer

DEFAULT_N_VALUES = (10, 50, 100)


@dataclass
class EvalReport:
    hits: Dict[int, float]
    maps: Dict[int, float]
    prediction_points: int


def _ranks(scores: np.ndarray, targets) -> np.ndarray:
    """1-based rank of ``targets[i]`` in row i of the (t, N) ``scores``: 1 plus the
    count of nodes that score higher or tie it at a lower index."""
    targets = np.asarray(targets)
    own = scores[np.arange(len(targets)), targets][:, None]
    before = np.arange(scores.shape[1]) < targets[:, None]
    return 1 + np.count_nonzero(scores > own, axis=1) + np.count_nonzero((scores == own) & before, axis=1)


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """1-based rank under the deterministic tie-break: equal scores are
    ordered by ascending node index (matching predict_topn)."""
    s = np.asarray(scores, dtype=np.float64)
    if _integer("target", target, 0) >= len(s):
        raise ValueError(f"target {target} out of range for {len(s)} scores")
    return int(_ranks(s[None], [target])[0])


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


def collect_ranks(params: ModelParams, cascades: Sequence[Sequence[int]]) -> List[int]:
    """Target ranks for every prefix of every cascade, evaluation mode, under the
    tie-break of ``rank_of_target``.  The list of cascades runs uncut as one ``batch_scores`` batch,
    which hands out one cascade's (t, N) block at a time, ranked at once."""
    all_ranks: List[int] = []
    for row, scores in batch_scores(params, cascades):
        all_ranks.extend(_ranks(scores, cascades[row][1:len(scores) + 1]).tolist())
    return all_ranks


def evaluate(
    params: ModelParams,
    cascades: Sequence[Sequence[int]],
    n_values: Sequence[int] = DEFAULT_N_VALUES,
) -> EvalReport:
    """hits@N and map@N over all prediction points of ``cascades``, scored as one
    batch by ``collect_ranks``; a node index out of range anywhere, or a cutoff N that
    is not an integer >= 1, raises ValueError, the cutoffs before any scoring."""
    if not cascades:
        raise ValueError("evaluate needs a non-empty cascade list")
    for n in n_values:
        _integer("n", n, 1)
    ranks = collect_ranks(params, cascades)
    if not ranks:
        raise ValueError("no prediction points (all cascades shorter than 2)")
    return EvalReport(
        hits={n: hits_at_n(ranks, n) for n in n_values},
        maps={n: map_at_n(ranks, n) for n in n_values},
        prediction_points=len(ranks),
    )


def _report_rows(report: EvalReport):
    """(metric, N, value) of every hits@N by ascending N, then of every map@N."""
    return [(metric, n, values[n]) for metric, values in (("hits", report.hits), ("map", report.maps))
            for n in sorted(values)]


def format_report(report: EvalReport) -> str:
    points = report.prediction_points
    lines = [f"{'metric':<8}{'N':>6}{'value':>12}{'points':>10}"]
    lines += [f"{metric:<8}{n:>6}{value:>12.4f}{points:>10}" for metric, n, value in _report_rows(report)]
    return "\n".join(lines)


def report_csv_lines(report: EvalReport) -> List[str]:
    """Machine-readable rows: metric,N,value,points."""
    return ["metric,N,value,points"] + [f"{metric},{n},{value:.10f},{report.prediction_points}"
                                        for metric, n, value in _report_rows(report)]
