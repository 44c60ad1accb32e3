"""A fixed calibration kernel that rescales measured times to a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts by
2-3x over seconds to minutes as other tenants load it; wall and CPU time
drift alike.  So every timed phase interleaves this kernel with the ops
it times, and reports each time multiplied by ``REFERENCE_S / mean(kernel
time)``: a time in seconds on a host where one kernel takes
``REFERENCE_S``.  The kernel is the benchmark's own code and mixes the
kinds of work the ops do (interpreted loops over dicts and tuples, float
arithmetic, JSON encoding, small numpy reductions), so a drift in host
speed moves both alike, while a change to the program moves only the ops.
The host's speed also changes within a run, so each timed unit is scaled
by the kernels run next to it (``WINDOW_S``).  The raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import time
from itertools import accumulate
from typing import Callable, List

import numpy as np

#: Mean kernel time on the reference host, in seconds.
REFERENCE_S = 0.005
#: A timed unit is scaled by the kernels that started within this many
#: seconds of it: the host's speed changes over seconds, within a run.
WINDOW_S = 0.25


def _dag(n: int = 400, seed: int = 12345) -> dict:
    rng = random.Random(seed)
    adj: dict = {i: [] for i in range(n)}
    for i in range(n):
        for _ in range(3):
            j = rng.randrange(n)
            if j > i:
                adj[i].append((j, rng.random()))
    return adj


_ADJ = _dag()
_VALUES = np.random.default_rng(7).random(20000)
_STARTS = np.arange(0, 20000, 7)


def kernel() -> int:
    """One unit of fixed work: longest paths over a DAG, their JSON text,
    and segmented numpy maxima."""
    best = dict.fromkeys(_ADJ, 0.0)
    for _ in range(6):
        for u, outs in _ADJ.items():
            bu = best[u]
            for v, w in outs:
                if bu + w > best[v]:
                    best[v] = bu + w
    text = json.dumps({str(k): v for k, v in best.items()}, sort_keys=True)
    acc = 0.0
    for _ in range(20):
        acc += float(np.maximum.reduceat(_VALUES, _STARTS).sum())
    return len(text) + int(acc)


class Calibration:
    """Kernel times of one timed phase, with their start times."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.samples: List[float] = []
        self.total = 0.0

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernels with the cyclic collector off: the kernel
        makes no cycles, and a collection would walk the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t0
                self.starts.append(t0)
                self.samples.append(dt)
                self.total += dt
        finally:
            if enabled:
                gc.enable()

    def keep_up(self, timed: float, share: float) -> None:
        """Sample until kernel time is ``share`` of ``timed`` seconds."""
        while self.total < share * timed:
            self.sample()

    def scale(self) -> float:
        """Factor from this host's seconds to reference-host seconds over
        the whole phase.  The mean, not the median: time lost to a slower
        phase falls on ops and kernels in proportion to their length."""
        if not self.samples:
            raise ValueError("no calibration samples")
        return REFERENCE_S * len(self.samples) / self.total

    def scaler(self) -> Callable[[float, float], float]:
        """``scale(t0, t1)``: the factor for a unit timed from ``t0`` to
        ``t1``, from the kernels that started within ``WINDOW_S`` of it, or
        from every kernel when none did."""
        if not self.samples:
            raise ValueError("no calibration samples")
        sums = [0.0, *accumulate(self.samples)]
        whole = self.scale()

        def scale(t0: float, t1: float) -> float:
            i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
            j = bisect.bisect_right(self.starts, t1 + WINDOW_S)
            if i == j:
                return whole
            return REFERENCE_S * (j - i) / (sums[j] - sums[i])

        return scale
