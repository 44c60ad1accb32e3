"""Executing systolic programs under hybrid synchronization.

Section VI's punchline is that cells can be "designed as if the entire
system were globally clocked" while only the small controller network is
self-timed.  This module makes that concrete: it runs a real systolic
program under a hybrid scheme and produces both

* the **functional result** — identical to the ideal lockstep semantics,
  because the neighbor barrier guarantees that when element ``E`` starts
  global step ``k+1``, every element containing a cell that feeds ``E`` has
  finished step ``k``; and
* the **timing** — per-element start/finish times from the max-plus
  handshake recurrence, whose steady-state cycle is constant in array size.

The dependency guarantee is not just asserted: :meth:`HybridExecution.
verify_dependencies` checks, for every cross-element communication edge and
every step, that the producer's finish time precedes the consumer's next
start time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Hashable, List, Tuple

import numpy as np

from repro.arrays.ideal import LockstepExecutor
from repro.arrays.systolic import SystolicProgram
from repro.core.hybrid import HybridScheme, build_hybrid
from repro.sim import batch
from repro.sim.hybrid_sim import _barrier_timing

CellId = Hashable
ElementId = Tuple[int, int]


@dataclass
class HybridExecution:
    """Result of one hybrid run: data plus the timing that carried it.

    ``start_matrix``/``finish_matrix`` hold one row per step and one
    column per element of ``eids``; :attr:`start_times` and
    :attr:`finish_times` are their per-step dict views, built on first
    use (at 1,024 cells, building them costs more than the run).
    """

    result: Any
    steps: int
    eids: List[ElementId]
    start_matrix: np.ndarray
    finish_matrix: np.ndarray
    cycle_time: float
    makespan: float
    scheme: HybridScheme

    @cached_property
    def start_times(self) -> List[Dict[ElementId, float]]:
        return [dict(zip(self.eids, row)) for row in self.start_matrix.tolist()]

    @cached_property
    def finish_times(self) -> List[Dict[ElementId, float]]:
        return [dict(zip(self.eids, row)) for row in self.finish_matrix.tolist()]

    def verify_dependencies(self) -> bool:
        """Every cross-element edge's producer finishes step ``k`` before
        the consumer starts step ``k+1`` — the condition that makes the
        functional result equal to lockstep."""
        element_of = self.scheme.element_of
        for u, v in self.scheme.array.communicating_pairs():
            eu, ev = element_of[u], element_of[v]
            if eu == ev:
                continue
            for k in range(self.steps - 1):
                if self.finish_times[k][eu] > self.start_times[k + 1][ev] + 1e-9:
                    return False
                if self.finish_times[k][ev] > self.start_times[k + 1][eu] + 1e-9:
                    return False
        return True


def execute_program_hybrid(
    program: SystolicProgram,
    element_size: float = 4.0,
    delta: float = 1.0,
    m: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
    steps: int = 0,
) -> HybridExecution:
    """Run ``program`` under a hybrid scheme built over its array.

    ``steps`` defaults to the program's cycle count.  The barrier makes
    the functional result exactly lockstep, so it is computed on arrays by
    :func:`repro.sim.batch.execute_lockstep`, or by the lockstep
    interpreter for programs outside the batch evaluators; timing follows
    the controller recurrence with optional per-step ``jitter``.
    """
    n_steps = steps if steps > 0 else program.cycles
    scheme = build_hybrid(program.array, element_size=element_size)
    timing = _barrier_timing(scheme, n_steps, delta, m, jitter, seed)

    # Functional execution: the barrier makes hybrid semantics lockstep.
    try:
        result = batch.execute_lockstep(program, n_steps)
    except batch.BatchUnsupported:
        executor = LockstepExecutor(program.array.comm, program.pes)
        executor.reset()
        executor.run(n_steps)
        result = program.read_result(executor)

    return HybridExecution(
        result=result,
        steps=n_steps,
        eids=timing.eids,
        start_matrix=np.array(timing.starts),
        finish_matrix=np.array(timing.finishes),
        cycle_time=timing.cycle_time,
        makespan=timing.makespans[-1],
        scheme=scheme,
    )
