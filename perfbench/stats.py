"""Order statistics for op latencies."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported percentile for it to mean
#: anything; a run needs ``MIN_BEYOND * 100 / (100 - p)`` ops for ``p``.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile of ``values`` and the number of
    samples strictly beyond its rank.  With 100 samples, p90 is the 90th
    smallest and 10 samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def ops_needed(p: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the ``p``-th percentile has ``beyond``
    samples past it."""
    n = beyond
    while percentile(range(n), p)[1] < beyond:
        n += 1
    return n

