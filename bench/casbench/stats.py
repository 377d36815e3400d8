"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is only reported when at least this many samples lie above it.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of ``samples``.

    Raises ValueError unless at least MIN_SAMPLES_BEYOND samples rank above
    it, so p90 needs 100 samples and p99 needs 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} above it, need {MIN_SAMPLES_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
