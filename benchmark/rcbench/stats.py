"""Order statistics for pass timings."""

from __future__ import annotations

import math
from statistics import median

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank percentile `q` (0 < q < 1), or None if too few samples lie beyond it.

    With n samples the value at rank ceil(q*n) has n - ceil(q*n) samples
    above it; p90 therefore needs at least 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q} outside (0, 1)")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median_or_zero(samples) -> float:
    return float(median(samples)) if samples else 0.0
