"""Summary statistics: medians and tail percentiles.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, a single slow sample would decide it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie above it."""
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, p99 (when the sample count allows it), count and raw samples."""
    return {
        "n": len(values),
        "p50": median(values) if values else None,
        "p99": percentile(values, 99) if values else None,
        "samples": list(values),
    }
