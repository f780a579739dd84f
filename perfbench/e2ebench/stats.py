"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail is a handful of outliers, not a shape.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples lie
    beyond the requested rank (p99 needs 1000 samples, p50 needs 20)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1): {q}")
    count = len(values)
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_TAIL} samples beyond it; "
            f"{count} samples leave {count - rank}")
    return sorted(values)[rank - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles, range and quartile spread (IQR ÷ median) of
    repeated measurements, with quartiles as ``statistics.quantiles``
    gives them."""
    if len(values) < 2:
        only = values[0] if values else float("nan")
        return {"n": len(values), "median": only, "q1": only, "q3": only,
                "min": only, "max": only, "iqr_share": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "iqr_share": (q3 - q1) / median if median else math.inf,
    }
