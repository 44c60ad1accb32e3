"""Event-level simulation of the hybrid synchronization network (Fig. 8).

Controllers run a neighbor-barrier handshake: element ``e`` may start its
global step ``k+1`` once it has finished step ``k`` *and* received "done(k)"
from every handshake neighbor.  Within a step, a controller distributes the
local clock (bounded by the element diameter), cells compute (``delta``),
and the controller signals done.

The recurrence

``start[e][k+1] = max(finish[e][k], max_nbr finish[nbr][k] + hs(e, nbr))``
``finish[e][k]  = start[e][k] + local_cost(e)``

is a max-plus linear system whose asymptotic cycle time is bounded by
``local_cost + max handshake`` — all element-local quantities, hence
*constant as the array grows*, which is the Section VI claim the
``bench_fig8_hybrid`` benchmark demonstrates against the equipotential
global clock's linear growth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hybrid import HybridScheme
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

ElementId = Tuple[int, int]


@dataclass(frozen=True)
class HybridRunResult:
    """Measured steady-state behaviour of the hybrid network."""

    elements: int
    steps: int
    completion_time: float
    cycle_time: float
    analytic_cycle_time: float

    @property
    def within_analytic_bound(self) -> bool:
        return self.cycle_time <= self.analytic_cycle_time + 1e-9


@dataclass(frozen=True)
class _BarrierTiming:
    """Per-step start/finish vectors (indexed like ``eids``) of the
    controller recurrence, plus the figures derived from them."""

    eids: List[ElementId]
    starts: List[np.ndarray]
    finishes: List[np.ndarray]
    makespans: List[float]
    cycle_time: float
    analytic_cycle_time: float


def _barrier_timing(
    scheme: HybridScheme,
    steps: int,
    delta: float,
    m: float,
    jitter: float,
    seed: int,
) -> _BarrierTiming:
    """Run the neighbor-barrier recurrence for ``steps`` global steps —
    the one timing loop behind :func:`simulate_hybrid` and
    :func:`repro.sim.hybrid_exec.execute_program_hybrid`."""
    if delta < 0 or m <= 0 or jitter < 0:
        raise ValueError("delta >= 0, m > 0, jitter >= 0 required")
    rng = random.Random(seed)
    eids = list(scheme.elements.keys())
    # Per-element fixed local cost: clock down + compute + clock gathering up.
    base_cost: Dict[ElementId, float] = {
        e: 2.0 * m * scheme.local_trees[e].longest_root_to_leaf() + delta for e in eids
    }
    handshake: Dict[Tuple[ElementId, ElementId], float] = {}
    for a, b in scheme.element_graph.communicating_pairs():
        d = m * scheme.controllers[a].manhattan(scheme.controllers[b])
        handshake[(a, b)] = d
        handshake[(b, a)] = d

    # The neighbor barrier is a max-plus step — compiled to grouped array
    # maxima (identical values: max is order-free, the adds keep the
    # scalar association start + (base + jitter)).
    from repro.sim.compiled import CompiledMaxPlus

    kernel = CompiledMaxPlus(
        eids, {e: scheme.element_graph.neighbors(e) for e in eids}, handshake
    )
    base = np.asarray([base_cost[e] for e in eids], dtype=np.float64)

    finish = np.zeros(len(eids), dtype=np.float64)
    starts: List[np.ndarray] = []
    finishes: List[np.ndarray] = []
    makespans: List[float] = []
    for _step in range(steps):
        start = kernel.starts(finish)
        if jitter > 0:
            # One uniform draw per element in eids order — the exact RNG
            # consumption sequence of the scalar loop.
            cost = base + np.asarray(
                [rng.uniform(0.0, jitter * delta) for _ in eids]
            )
        else:
            cost = base
        finish = start + cost
        starts.append(start)
        finishes.append(finish)
        makespans.append(float(finish.max()))

    half = steps // 2
    steady = makespans[half:]
    if len(steady) >= 2:
        cycle = (steady[-1] - steady[0]) / (len(steady) - 1)
    else:
        cycle = makespans[-1] / steps
    analytic = (
        max(base_cost.values())
        + (max(handshake.values()) if handshake else 0.0)
        + jitter * delta
    )
    return _BarrierTiming(
        eids=eids,
        starts=starts,
        finishes=finishes,
        makespans=makespans,
        cycle_time=cycle,
        analytic_cycle_time=analytic,
    )


def simulate_hybrid(
    scheme: HybridScheme,
    steps: int,
    delta: float,
    m: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> HybridRunResult:
    """Run the controller handshake network for ``steps`` global steps.

    ``jitter`` adds a uniform random extension (up to the given fraction of
    ``delta``) to each element's per-step local cost — self-timed schemes
    absorb such variation without resynchronization, which is part of the
    scheme's robustness story (and would desynchronize pipelined clocking,
    A8).

    With a ``tracer``, every element emits a ``hybrid/step`` event per
    global step (start/finish times) plus a per-step ``hybrid`` /
    ``step_summary`` with the start-time spread (the de-facto skew of the
    handshake barrier); a ``metrics`` registry collects the spread
    histogram and the measured cycle-time gauge.  Defaults keep the run
    byte-identical to the uninstrumented simulator.
    """
    if steps < 2:
        raise ValueError("need at least two steps to measure a cycle")
    timing = _barrier_timing(scheme, steps, delta, m, jitter, seed)
    makespans = timing.makespans
    tracer = tracer if tracer is not None else NULL_TRACER
    if metrics is not None:
        skew_hist = metrics.histogram("hybrid.step_skew")
        for start in timing.starts:
            skew_hist.observe(float(start.max()) - float(start.min()))
    if tracer.enabled:
        for step, (start, finish) in enumerate(
            zip(timing.starts, timing.finishes)
        ):
            starts_list = start.tolist()
            finish_list = finish.tolist()
            for e, s, f in zip(timing.eids, starts_list, finish_list):
                tracer.event(
                    f, "hybrid", "step", cell=e,
                    step=step, start=s, finish=f,
                )
            spread = max(starts_list) - min(starts_list)
            tracer.event(
                makespans[step], "hybrid", "step_summary",
                step=step, start_spread=spread, makespan=makespans[step],
            )
        tracer.event(
            makespans[-1], "hybrid", "run",
            elements=len(timing.eids), steps=steps,
            cycle_time=timing.cycle_time,
            analytic_cycle_time=timing.analytic_cycle_time,
        )
    if metrics is not None:
        metrics.gauge("hybrid.cycle_time").set(timing.cycle_time)
        metrics.counter("hybrid.steps").inc(steps)
    return HybridRunResult(
        elements=len(timing.eids),
        steps=steps,
        completion_time=makespans[-1],
        cycle_time=timing.cycle_time,
        analytic_cycle_time=timing.analytic_cycle_time,
    )
