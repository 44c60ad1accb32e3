"""Scaling oracles: the streamed/shared paths must change nothing.

The million-cell machinery trades memory and pickling for nothing else —
by construction, a chunked tick-matrix scan and a shared-memory trial
pool produce the *same bits* as their monolithic/serial formulations.
These checks make that claim a named, diagnosable failure:

* ``differential-chunked-timing`` — :class:`~repro.sim.compiled.CompiledTimingKernel`
  timing over several grid shapes and block sizes must equal the
  monolithic evaluation and the per-event scalar oracle exactly
  (violation list, order, makespan); on a real workload, one clean and
  one violating clocked run must equal ``run_scalar``, and the
  simulator's own timing kernel streamed at several block sizes must
  reproduce that run's violations and makespan.
* ``differential-shared-arena`` — a compiled sampler round-tripped
  through a :class:`~repro.analysis.shared.SharedTrialArena` must
  reproduce the serial ``run_trials`` summary bit-for-bit under thread
  and process executors, and the attached views must equal the source
  arrays byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.montecarlo import run_trials
from repro.analysis.shared import SharedTrialArena
from repro.arrays.topologies import mesh
from repro.check.registry import REGISTRY, CheckContext, require
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler
from repro.graphs.csr import csr_from_comm, grid_csr
from repro.sim.compiled import CompiledTimingKernel


def _random_offsets(ctx: CheckContext, salt: str, n: int, period: float) -> np.ndarray:
    rng = ctx.rng(salt)
    return np.array([rng.uniform(0.0, 1.5 * period) for _ in range(n)])


@REGISTRY.register(
    "differential-chunked-timing",
    "differential",
    "chunked tick-matrix timing (any edge-block size) equals the monolithic "
    "evaluation and the per-event scalar oracle bit-for-bit",
)
def check_chunked_timing(ctx: CheckContext) -> Dict[str, Any]:
    shapes: List[Tuple[int, int]] = [(3, 4), (7, 5), (9, 9)]
    if ctx.full:
        shapes.append((16, 16))
    period, lag, ticks = 1.0, 0.3, 4
    cases = 0
    for rows, cols in shapes:
        n = rows * cols
        grid = grid_csr(rows, cols)
        lowered = csr_from_comm(mesh(rows, cols).comm)
        require(
            lowered.same_structure(grid),
            f"grid_csr({rows},{cols}) disagrees with the CommGraph lowering",
            rows=rows, cols=cols,
        )
        offsets = _random_offsets(ctx, f"chunked|{rows}x{cols}", n, period)
        kernel = CompiledTimingKernel(grid, offsets, period=period, lag=lag)
        mono = kernel.timing(ticks)
        scalar = kernel.timing_scalar(ticks)
        require(
            mono.violations == scalar.violations
            and mono.makespan == scalar.makespan
            and mono.ticks == scalar.ticks,
            f"monolithic timing diverged from the scalar oracle on {rows}x{cols}",
            rows=rows, cols=cols,
            mono_violations=len(mono.violations),
            scalar_violations=len(scalar.violations),
        )
        for block in (1, 3, kernel.n_edges // 2 or 1, kernel.n_edges + 7):
            streamed = kernel.timing(ticks, edge_block=block)
            require(
                streamed.violations == mono.violations
                and streamed.makespan == mono.makespan
                and streamed.ticks == mono.ticks,
                f"edge_block={block} changed the timing result on {rows}x{cols}",
                rows=rows, cols=cols, edge_block=block,
            )
            cases += 1

    # The clocked simulator's streamed run on a real systolic workload.
    from repro.arrays.systolic import build_fir_array
    from repro.clocktree.builders import serpentine_clock
    from repro.clocktree.buffered import BufferedClockTree
    from repro.core.padding import plan_safe_clocking
    from repro.delay.variation import BoundedUniformVariation
    from repro.sim.clock_distribution import ClockSchedule
    from repro.sim.clocked import ClockedArraySimulator

    rng = ctx.rng("chunked|fir")
    program = build_fir_array(
        [rng.uniform(-1.0, 1.0) for _ in range(4)],
        [rng.uniform(-2.0, 2.0) for _ in range(8)],
    )
    tree = serpentine_clock(program.array)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.1, seed=ctx.seed),
    )
    cells = program.array.comm.nodes()
    probe = ClockSchedule.from_buffered_tree(buffered, 1.0, cells)
    plan = plan_safe_clocking(program.array, probe, delta=1.0)
    # Padding makes the pipelined array safe at any period, so the same
    # schedule without it gives the violating run.
    period = plan.min_safe_period * 1.05 + 1e-6
    schedule = ClockSchedule.from_buffered_tree(buffered, period, cells)
    for padding in (plan.padding, None):  # one clean run, one with violations
        sim = ClockedArraySimulator(
            program, schedule, delta=1.0, edge_padding=padding
        )
        whole = sim.run()
        scalar = sim.run_scalar()
        require(
            whole.result == scalar.result
            and whole.violations == scalar.violations
            and whole.makespan == scalar.makespan
            and bool(whole.violations) == (padding is None),
            f"clocked run diverged from run_scalar (padded: {padding is not None})",
            padded=padding is not None, violations=len(whole.violations),
            scalar_violations=len(scalar.violations),
        )
        kernel = sim.compiled().timing_kernel
        for block in (1, 5, 64):
            streamed = kernel.timing(whole.ticks, edge_block=block)
            require(
                streamed.violations == whole.violations
                and streamed.makespan == whole.makespan
                and streamed.ticks == whole.ticks,
                f"clocked timing(edge_block={block}) diverged from run() "
                f"(padded: {padding is not None})",
                edge_block=block, padded=padding is not None,
                violations=len(whole.violations),
            )
            cases += 1
    return {"cases": cases, "shapes": len(shapes)}


def _arena_build(arrays: Any) -> CompiledSkewSampler:
    return CompiledSkewSampler.from_arrays(arrays)


def _arena_run(state: CompiledSkewSampler, seed: int) -> float:
    return state.sample_max_skew(seed)


@REGISTRY.register(
    "differential-shared-arena",
    "differential",
    "shared-memory trial arena reproduces the serial Monte-Carlo summary "
    "bit-for-bit under thread and process executors",
)
def check_shared_arena(ctx: CheckContext) -> Dict[str, Any]:
    side = 8 if not ctx.full else 12
    array = mesh(side, side)
    sampler = CompiledSkewSampler.from_tree(
        htree_for_array(array), array.communicating_pairs()
    )
    source = sampler.arrays()
    trials = 8
    serial = run_trials(sampler.sample_max_skew, trials, base_seed=ctx.seed)
    # The scalar oracle consumes the same seeded uniform vector — one
    # divergent trial and the arena comparison below is meaningless.
    for seed in range(ctx.seed, ctx.seed + 3):
        require(
            sampler.sample_max_skew(seed) == sampler.sample_max_skew_scalar(seed),
            "vectorized sampler diverged from its scalar oracle",
            seed=seed,
        )
    arena = SharedTrialArena(source)
    try:
        attached = arena.handle.arrays()
        for key, value in source.items():
            require(
                np.array_equal(attached[key], np.asarray(value)),
                f"attached view {key!r} differs from the source array",
                key=key,
            )
        trial = arena.trial(_arena_build, _arena_run)
        for executor, workers in (("thread", 2), ("process", 2)):
            pooled = run_trials(
                trial, trials, base_seed=ctx.seed, workers=workers, executor=executor
            )
            require(
                pooled.mean == serial.mean
                and pooled.stdev == serial.stdev
                and pooled.minimum == serial.minimum
                and pooled.maximum == serial.maximum
                and pooled.ci_half_width == serial.ci_half_width,
                f"{executor} pool summary diverged from the serial run",
                executor=executor, workers=workers,
                serial_mean=serial.mean, pooled_mean=pooled.mean,
            )
    finally:
        arena.close()
    return {
        "side": side,
        "trials": trials,
        "segments": sampler.n_segments,
        "arena_bytes": sum(np.asarray(v).nbytes for v in source.values()),
    }
