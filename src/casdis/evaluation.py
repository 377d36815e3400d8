"""Ranking metrics over every prediction point of a cascade set.

Each prefix of each test cascade is one retrieval query: score all candidate
nodes, find the rank of the true next node, aggregate hits@N and map@N.  The
cascade set is scored as one padded batch by ``model.batch_scores``, which wants
no gradient and so builds no index of each candidate's best factor.  A rank is
1 plus the count of nodes that score higher or tie the target at a lower index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .data import make_batches
from .model import ModelParams, batch_scores

DEFAULT_N_VALUES = (10, 50, 100)


@dataclass
class EvalReport:
    hits: Dict[int, float]
    maps: Dict[int, float]
    prediction_points: int


def rank_of_target(scores: np.ndarray, target: int) -> int:
    """1-based rank under the deterministic tie-break: equal scores are
    ordered by ascending node index (matching predict_topn)."""
    s = np.asarray(scores, dtype=np.float64)
    tgt = int(target)
    if not 0 <= tgt < len(s):
        raise ValueError(f"target {tgt} out of range for {len(s)} scores")
    st = s[tgt]
    greater = int((s > st).sum())
    equal_before = int(((s == st) & (np.arange(len(s)) < tgt)).sum())
    return 1 + greater + equal_before


def hits_at_n(ranks: Sequence[int], n: int) -> float:
    """Fraction of prediction points ranked within the top n."""
    r = np.asarray(ranks)
    if r.size == 0:
        raise ValueError("hits_at_n of empty rank list")
    return float((r <= n).mean())


def map_at_n(ranks: Sequence[int], n: int) -> float:
    """Mean truncated reciprocal rank: 1/rank when rank <= n, else 0.

    With exactly one relevant item per point this is the average precision.
    """
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        raise ValueError("map_at_n of empty rank list")
    return float(np.where(r <= n, 1.0 / r, 0.0).mean())


def collect_ranks(params: ModelParams, cascades: Sequence[Sequence[int]]) -> List[int]:
    """Target ranks for every prefix of every cascade, evaluation mode, under the
    tie-break of ``rank_of_target``.  The cascades run uncut as one ``batch_scores`` batch,
    whose groups and chunks bound the memory; each row's (t, N) block is ranked at once."""
    all_ranks: List[int] = []
    longest = max(map(len, cascades), default=0)
    for batch in make_batches(cascades, max(len(cascades), 1), longest, params.pad_index):
        for row, scores in batch_scores(params, batch):
            targets = batch.indices[row, 1:len(scores) + 1]
            own = scores[np.arange(len(targets)), targets][:, None]
            before = np.arange(scores.shape[1]) < targets[:, None]
            ranks = 1 + np.count_nonzero(scores > own, axis=1) + np.count_nonzero((scores == own) & before, axis=1)
            all_ranks.extend(ranks.tolist())
    return all_ranks


def evaluate(
    params: ModelParams,
    cascades: Sequence[Sequence[int]],
    n_values: Sequence[int] = DEFAULT_N_VALUES,
) -> EvalReport:
    """hits@N and map@N over all prediction points of ``cascades``, scored as one
    batch by ``collect_ranks``; a node index out of range anywhere raises ValueError."""
    if not cascades:
        raise ValueError("evaluate needs a non-empty cascade list")
    ranks = collect_ranks(params, cascades)
    if not ranks:
        raise ValueError("no prediction points (all cascades shorter than 2)")
    return EvalReport(
        hits={n: hits_at_n(ranks, n) for n in n_values},
        maps={n: map_at_n(ranks, n) for n in n_values},
        prediction_points=len(ranks),
    )


def format_report(report: EvalReport) -> str:
    lines = [f"{'metric':<8}{'N':>6}{'value':>12}{'points':>10}"]
    for n in sorted(report.hits):
        lines.append(f"{'hits':<8}{n:>6}{report.hits[n]:>12.4f}{report.prediction_points:>10}")
    for n in sorted(report.maps):
        lines.append(f"{'map':<8}{n:>6}{report.maps[n]:>12.4f}{report.prediction_points:>10}")
    return "\n".join(lines)


def report_csv_lines(report: EvalReport) -> List[str]:
    """Machine-readable rows: metric,N,value,points."""
    lines = ["metric,N,value,points"]
    for n in sorted(report.hits):
        lines.append(f"hits,{n},{report.hits[n]:.10f},{report.prediction_points}")
    for n in sorted(report.maps):
        lines.append(f"map,{n},{report.maps[n]:.10f},{report.prediction_points}")
    return lines
