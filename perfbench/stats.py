"""Small statistics helpers shared by the workloads and the self-tests."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one slow outlier cannot be the whole tail.
MIN_TAIL = 10

#: Op outcomes; every outcome but OK counts as a failure.
OK, WRONG, REFUSED, ERROR = "ok", "wrong", "refused", "error"


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q``-quantile."""
    return n - nearest_rank(n, q)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the ``q``-quantile of ``n``
    samples."""
    return max(1, math.ceil(q * n))


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when fewer than
    :data:`MIN_TAIL` samples lie beyond it (for p90: under 100
    samples)."""
    n = len(samples)
    if n == 0 or tail_count(n, q) < MIN_TAIL:
        return None
    return sorted(samples)[nearest_rank(n, q) - 1]


def median(samples: Iterable[float]) -> float:
    """Median, 0.0 for no samples."""
    samples = list(samples)
    return float(statistics.median(samples)) if samples else 0.0


def mean(samples: Iterable[float]) -> float:
    """Mean, 0.0 for no samples."""
    samples = list(samples)
    return float(statistics.fmean(samples)) if samples else 0.0


def failed_frac(outcomes: Sequence[str]) -> float:
    """Failed, refused, errored or wrong ops over ops attempted."""
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if o != OK) / len(outcomes)
