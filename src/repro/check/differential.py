"""Differential oracles: one workload, four independent execution paths.

"Correctly synchronized" has a functional definition in this repo: a
skew-aware (or self-timed, or hybrid) run of a systolic program produces
exactly what the ideal lockstep interpreter produces.  These checks run
each workload through

* the **lockstep executor** (``SystolicProgram.run_lockstep``) — the A1
  reference semantics;
* the **clocked simulator** on a buffered serpentine clock, hold-fixed by
  :func:`repro.core.padding.plan_safe_clocking` and run above the minimum
  safe period — must be violation-free and lockstep-equal;
* the **self-timed dataflow simulator** with deterministic two-speed
  service times — must be lockstep-equal, and its engine-driven makespan
  must land exactly on the tandem recurrence computed directly;
* the **hybrid executor** (Section VI) — must be lockstep-equal with its
  cross-element dependency guarantee verified.

Violation-count consistency rides along: the clean run reports zero
violations, a run at half the safe period reports more than zero, and
:func:`repro.sim.faults.summarize_violations` totals must agree with the
raw violation list — on both the unpadded serpentine (setup failures) and
the hold-padded, wave-pipelined one (finite-channel overflows, via the
capacity-aware safe period).  ``differential-backpressure`` extends the
self-timed leg to finite channel capacities: the event-driven engine, the
scalar bounded recurrence, and the compiled marked-graph kernel must agree
exactly at every capacity — uniform depths and heterogeneous per-edge maps
alike — and ``capacity >= waves`` must be bit-identical to the unbounded
model.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.arrays.systolic import (
    SystolicProgram,
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.clocktree.builders import serpentine_clock
from repro.clocktree.buffered import BufferedClockTree
from repro.core.padding import plan_safe_clocking
from repro.delay.variation import BoundedUniformVariation
from repro.check.registry import REGISTRY, CheckContext, require
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.dataflow import SelfTimedProgramSimulator, hashed_service
from repro.sim.faults import summarize_violations
from repro.sim.hybrid_exec import execute_program_hybrid

TOL = 1e-9


def _values_equal(a: Any, b: Any) -> bool:
    """Structural equality with float tolerance (the simulators perform the
    identical per-cell arithmetic, so agreement is expected to be exact;
    the tolerance only absorbs representation noise)."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12)
    return a == b


def _workloads(ctx: CheckContext) -> List[Tuple[str, SystolicProgram]]:
    rng = ctx.rng("differential-workloads")
    weights = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    xs = [rng.uniform(-2.0, 2.0) for _ in range(8)]
    matrix = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(4)]
    vec = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    values = [rng.uniform(-10.0, 10.0) for _ in range(8)]
    programs = [
        ("fir", build_fir_array(weights, xs)),
        ("matvec", build_matvec_array(matrix, vec)),
        ("sorter", build_odd_even_sorter(values)),
    ]
    if ctx.full:
        a = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(4)]
        b = [[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(4)]
        programs.append(("matmul", build_mesh_matmul(a, b)))
    return programs


def _clocked_setup(program: SystolicProgram, seed: int, delta: float):
    """Hold-fixed clocked simulator above its minimum safe period, plus the
    ingredients to rebuild it at other periods."""
    tree = serpentine_clock(program.array)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.1, seed=seed),
    )
    cells = program.array.comm.nodes()
    probe = ClockSchedule.from_buffered_tree(buffered, 1.0, cells)
    plan = plan_safe_clocking(program.array, probe, delta=delta)
    return buffered, cells, plan


def _clean_clocked_run(
    name: str, program: SystolicProgram, seed: int, delta: float
) -> Any:
    """Clocked run above the safe period with hold padding applied,
    required violation-free."""
    buffered, cells, plan = _clocked_setup(program, seed, delta)
    period = plan.min_safe_period * 1.05 + 1e-6
    schedule = ClockSchedule.from_buffered_tree(buffered, period, cells)
    sim = ClockedArraySimulator(
        program, schedule, delta=delta, edge_padding=plan.padding
    )
    require(not sim.hold_hazards(),
            f"{name}: hold hazards survived the padding plan",
            workload=name, padded_edges=plan.padded_edges)
    clocked = sim.run()
    require(clocked.clean,
            f"{name}: clocked run above the safe period had violations",
            workload=name, violations=len(clocked.violations),
            period=period, min_safe_period=plan.min_safe_period)
    return clocked


@REGISTRY.register(
    "differential-functional",
    "differential",
    "lockstep, clocked (hold-fixed, safe period), self-timed dataflow, and "
    "hybrid execution all compute the same result",
)
def check_differential_functional(ctx: CheckContext) -> Dict[str, Any]:
    delta = 1.0
    checked = []
    for name, program in _workloads(ctx):
        reference = program.run_lockstep()

        clocked = _clean_clocked_run(name, program, ctx.seed, delta)
        require(_values_equal(clocked.result, reference),
                f"{name}: clocked result diverged from lockstep",
                workload=name, clocked=repr(clocked.result),
                lockstep=repr(reference))

        # Self-timed dataflow with irregular (two-speed) service times.
        selftimed = SelfTimedProgramSimulator(
            program,
            service=hashed_service(1.0, 3.0, 0.2, seed=ctx.seed),
            wire_delay=0.25,
        )
        df = selftimed.run()
        require(_values_equal(df.result, reference),
                f"{name}: self-timed result diverged from lockstep",
                workload=name, selftimed=repr(df.result),
                lockstep=repr(reference))
        require(df.events_processed > 0,
                f"{name}: self-timed run processed no events",
                workload=name)

        # Hybrid (Section VI): lockstep-equal with verified dependencies.
        hybrid = execute_program_hybrid(program, element_size=3.0, delta=delta)
        require(_values_equal(hybrid.result, reference),
                f"{name}: hybrid result diverged from lockstep",
                workload=name, hybrid=repr(hybrid.result),
                lockstep=repr(reference))
        require(hybrid.verify_dependencies(),
                f"{name}: hybrid cross-element dependency check failed",
                workload=name)
        checked.append(name)
    if ctx.full:
        # A sorter large enough that the clean clocked run and the hybrid
        # run take the batched kernel: both must equal the scalar lockstep
        # oracle bit for bit (keys with duplicates and signed zeros).
        name = "sorter-256"
        rng = ctx.rng("differential-sorter-256")
        keys = [
            rng.choice((0.0, -0.0)) if rng.random() < 0.2
            else round(rng.uniform(-10.0, 10.0), 1)
            for _ in range(256)
        ]
        program = build_odd_even_sorter(keys)
        reference = [v.hex() for v in program.run_lockstep()]
        clocked = _clean_clocked_run(name, program, ctx.seed, delta)
        hybrid = execute_program_hybrid(program, element_size=3.0, delta=delta)
        for path, result in (("clocked", clocked), ("hybrid", hybrid)):
            require([v.hex() for v in result.result] == reference,
                    f"{name}: {path} result is not bit-identical to lockstep",
                    workload=name, path=path)
        checked.append(name)
    return {"workloads": checked}


@REGISTRY.register(
    "differential-timing",
    "differential",
    "the engine-driven self-timed makespan equals the tandem recurrence "
    "computed directly, under constant and irregular service times",
)
def check_differential_timing(ctx: CheckContext) -> Dict[str, Any]:
    services = [
        ("constant", None),  # default constant_service(1.0)
        ("two-speed", hashed_service(1.0, 4.0, 0.3, seed=ctx.seed)),
    ]
    rows = []
    for name, program in _workloads(ctx):
        for service_name, service in services:
            sim = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5
            )
            run = sim.run()
            expected = sim.recurrence_makespan()
            require(abs(run.makespan - expected) <= TOL,
                    f"{name}/{service_name}: engine makespan diverged from "
                    f"the tandem recurrence",
                    workload=name, service=service_name,
                    engine=run.makespan, recurrence=expected)
            rows.append({"workload": name, "service": service_name,
                         "makespan": run.makespan})
    return {"cases": rows}


@REGISTRY.register(
    "differential-compiled",
    "differential",
    "the array-compiled simulation kernels agree exactly with their "
    "scalar oracles: identical clocked payloads, violation lists (contents "
    "and order), makespans, and tandem-recurrence makespans, across clean, "
    "overdriven, and jittered schedules",
)
def check_differential_compiled(ctx: CheckContext) -> Dict[str, Any]:
    from repro.sim.dataflow import constant_service
    from repro.sim.faults import JitteredSchedule

    delta = 1.0
    cases = []
    for name, program in _workloads(ctx):
        buffered, cells, plan = _clocked_setup(program, ctx.seed, delta)
        period = plan.min_safe_period * 1.05 + 1e-6
        safe = ClockSchedule.from_buffered_tree(buffered, period, cells)
        tight = ClockSchedule.from_buffered_tree(buffered, 0.5 * period, cells)
        jittered = JitteredSchedule(safe, amplitude=0.3 * period, seed=ctx.seed)
        regimes = [
            ("clean", safe, plan.padding),
            ("overdriven", tight, None),
            ("jittered", jittered, plan.padding),
        ]
        for regime, schedule, padding in regimes:
            sim = ClockedArraySimulator(
                program, schedule, delta=delta, edge_padding=padding
            )
            compiled = sim.run()
            scalar = sim.run_scalar()
            require(repr(compiled.result) == repr(scalar.result),
                    f"{name}/{regime}: compiled payload diverged from scalar",
                    workload=name, regime=regime,
                    compiled=repr(compiled.result), scalar=repr(scalar.result))
            require(compiled.violations == scalar.violations,
                    f"{name}/{regime}: compiled violation list diverged "
                    f"(contents or order)",
                    workload=name, regime=regime,
                    compiled=len(compiled.violations),
                    scalar=len(scalar.violations))
            require(compiled.makespan == scalar.makespan
                    and compiled.ticks == scalar.ticks,
                    f"{name}/{regime}: compiled timing diverged from scalar",
                    workload=name, regime=regime,
                    compiled=[compiled.makespan, compiled.ticks],
                    scalar=[scalar.makespan, scalar.ticks])
            cases.append({"workload": name, "regime": regime,
                          "violations": len(compiled.violations)})

        for service_name, service in [
            ("constant", constant_service(1.0)),
            ("two-speed", hashed_service(1.0, 3.0, 0.25, seed=ctx.seed)),
        ]:
            selftimed = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5
            )
            fast = selftimed.recurrence_makespan()
            slow = selftimed.recurrence_makespan_scalar()
            require(fast == slow,
                    f"{name}/{service_name}: compiled recurrence makespan "
                    f"diverged from the scalar loop",
                    workload=name, service=service_name,
                    compiled=fast, scalar=slow)
    return {"cases": cases}


@REGISTRY.register(
    "differential-violations",
    "differential",
    "violation counts are consistent on both serpentine constructions: the "
    "unpadded array is clean above its setup period and violates at half of "
    "it; the hold-padded (wave-pipelined) array has a genuine capacity-aware "
    "safe period — channels fit above it, overflow below it; "
    "summarize_violations agrees with the raw list",
)
def check_differential_violations(ctx: CheckContext) -> Dict[str, Any]:
    name, program = _workloads(ctx)[0]  # fir: linear, fast, representative
    tree = serpentine_clock(program.array)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.1, seed=ctx.seed),
    )
    cells = program.array.comm.nodes()
    probe = ClockSchedule.from_buffered_tree(buffered, 1.0, cells)

    # --- Unpadded regression: setup-only failure mode. ------------------
    # Delta above the largest sender->receiver clock lead removes every
    # hold hazard without padding, so the minimum safe period is the
    # genuine setup requirement and halving it must produce violations.
    max_lead = max(
        abs(probe.offset(u) - probe.offset(v))
        for u, v in program.array.comm.edges()
    )
    delta = max_lead + 1.0

    safe_sim = ClockedArraySimulator(program, probe, delta=delta)
    require(not safe_sim.hold_hazards(),
            f"{name}: hold hazards despite delta above the worst clock lead",
            workload=name, delta=delta, max_lead=max_lead)
    msp = safe_sim.minimum_safe_period()

    tight = 0.5 * msp
    schedule = ClockSchedule.from_buffered_tree(buffered, tight, cells)
    run = ClockedArraySimulator(program, schedule, delta=delta).run()
    require(len(run.violations) > 0,
            f"{name}: half the safe period produced no violations",
            workload=name, period=tight, min_safe_period=msp)

    summary = summarize_violations(run.violations)
    require(summary.total == len(run.violations),
            "summary total disagrees with the raw violation list",
            summary_total=summary.total, raw=len(run.violations))
    require(summary.stale + summary.race == summary.total,
            "stale + race does not add up to the total",
            stale=summary.stale, race=summary.race, total=summary.total)
    require(sum(summary.per_cell.values()) == summary.total,
            "per-cell counts do not add up to the total",
            per_cell_sum=sum(summary.per_cell.values()), total=summary.total)
    kinds = {"stale": 0, "race": 0}
    for v in run.violations:
        kinds[v.kind] += 1
    require(kinds["stale"] == summary.stale and kinds["race"] == summary.race,
            "summary stale/race split disagrees with per-violation kinds",
            summary=[summary.stale, summary.race],
            recount=[kinds["stale"], kinds["race"]])

    # --- Hold-padded serpentine: the wave-pipelined construction. -------
    # PR 3 excluded this case as vacuous: with unbounded channels the
    # padded array's setup msp is just the guard margin.  Finite channel
    # capacities close that hole — the capacity-aware msp bounds the
    # in-flight generations per edge, so the padded construction gets a
    # genuine boundary to drive from both sides.
    pad_delta = 1.0
    pad_buffered, pad_cells, plan = _clocked_setup(program, ctx.seed, pad_delta)
    capacity = 2

    pad_probe = ClockSchedule.from_buffered_tree(pad_buffered, 1.0, pad_cells)
    pad_probe_sim = ClockedArraySimulator(
        program, pad_probe, delta=pad_delta, edge_padding=plan.padding
    )
    msp_cap = pad_probe_sim.minimum_safe_period(channel_capacity=capacity)
    require(math.isfinite(msp_cap),
            f"{name}: padded serpentine has no finite capacity-aware safe "
            f"period at capacity {capacity}",
            workload=name, capacity=capacity)
    require(msp_cap > 10.0 * plan.min_safe_period,
            f"{name}: capacity-aware safe period is not a genuine bound — "
            f"it collapsed to the hold-guard margin",
            workload=name, capacity_aware=msp_cap,
            setup_only=plan.min_safe_period)

    pad_period = msp_cap * 1.05 + 1e-6
    pad_schedule = ClockSchedule.from_buffered_tree(
        pad_buffered, pad_period, pad_cells
    )
    pad_sim = ClockedArraySimulator(
        program, pad_schedule, delta=pad_delta, edge_padding=plan.padding
    )
    pad_run = pad_sim.run()
    require(pad_run.clean,
            f"{name}: padded run above the capacity-aware period had "
            f"latch violations",
            workload=name, violations=len(pad_run.violations),
            period=pad_period)
    above_overflows = pad_sim.channel_overflows(capacity)
    require(not above_overflows,
            f"{name}: channels overflowed above the capacity-aware period",
            workload=name, capacity=capacity, period=pad_period,
            overflows=len(above_overflows))
    depths = pad_sim.channel_depths()
    require(max(depths.values()) <= capacity,
            f"{name}: peak channel depth exceeded capacity above the "
            f"capacity-aware period",
            workload=name, capacity=capacity,
            peak_depth=max(depths.values()))

    tight_period = 0.5 * msp_cap
    tight_schedule = ClockSchedule.from_buffered_tree(
        pad_buffered, tight_period, pad_cells
    )
    tight_sim = ClockedArraySimulator(
        program, tight_schedule, delta=pad_delta, edge_padding=plan.padding
    )
    below_overflows = tight_sim.channel_overflows(capacity)
    require(len(below_overflows) > 0,
            f"{name}: half the capacity-aware period overflowed no channel",
            workload=name, capacity=capacity, period=tight_period)

    return {
        "workload": name,
        "min_safe_period": msp,
        "violations_at_half_period": summary.total,
        "stale": summary.stale,
        "race": summary.race,
        "padded_capacity": capacity,
        "padded_capacity_aware_msp": msp_cap,
        "padded_peak_depth": max(depths.values()),
        "padded_overflows_at_half_period": len(below_overflows),
    }


@REGISTRY.register(
    "differential-backpressure",
    "differential",
    "under finite channel capacities the event-driven engine, the scalar "
    "bounded recurrence, and the compiled marked-graph kernel agree exactly; "
    "results stay lockstep-equal, capacity >= waves is bit-identical to "
    "unbounded, and a zero-token cycle deadlocks eagerly",
)
def check_differential_backpressure(ctx: CheckContext) -> Dict[str, Any]:
    from repro.sim.dataflow import ChannelDeadlockError

    rows = []
    for name, program in _workloads(ctx):
        reference = program.run_lockstep()
        service = hashed_service(1.0, 3.0, 0.25, seed=ctx.seed)
        unbounded = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5
        )
        unbounded_run = unbounded.run()
        cyclic = not program.array.comm.is_acyclic()

        if cyclic:
            # A cyclic COMM graph at capacity 1 is a zero-token marked-graph
            # cycle: every construction path must refuse it eagerly.
            try:
                SelfTimedProgramSimulator(
                    program, service=service, wire_delay=0.5,
                    channel_capacity=1,
                )
            except ChannelDeadlockError:
                pass
            else:
                require(False,
                        f"{name}: capacity 1 on a cyclic COMM graph did not "
                        f"deadlock",
                        workload=name)

        capacities = [2, 4] if cyclic else [1, 2, 4]
        prev_makespan = None
        for cap in capacities:
            sim = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5,
                channel_capacity=cap,
            )
            run = sim.run()
            recurrence = sim.recurrence_makespan()
            scalar = sim.recurrence_makespan_scalar()
            require(run.makespan == recurrence == scalar,
                    f"{name}/cap={cap}: the three execution paths diverged",
                    workload=name, capacity=cap, engine=run.makespan,
                    compiled=recurrence, scalar=scalar)
            require(_values_equal(run.result, reference),
                    f"{name}/cap={cap}: bounded-channel result diverged "
                    f"from lockstep",
                    workload=name, capacity=cap,
                    bounded=repr(run.result), lockstep=repr(reference))
            require(run.makespan >= unbounded_run.makespan - TOL,
                    f"{name}/cap={cap}: backpressure made the run faster "
                    f"than unbounded",
                    workload=name, capacity=cap, bounded=run.makespan,
                    unbounded=unbounded_run.makespan)
            require(run.max_occupancy is not None
                    and run.max_occupancy <= cap,
                    f"{name}/cap={cap}: engine occupancy exceeded capacity",
                    workload=name, capacity=cap,
                    max_occupancy=run.max_occupancy)
            if prev_makespan is not None:
                require(run.makespan <= prev_makespan + TOL,
                        f"{name}: makespan not monotone non-increasing "
                        f"in capacity",
                        workload=name, capacity=cap,
                        makespan=run.makespan, previous=prev_makespan)
            prev_makespan = run.makespan
            rows.append({"workload": name, "capacity": cap,
                         "makespan": run.makespan,
                         "max_occupancy": run.max_occupancy})

        # Heterogeneous per-edge depths: the three execution paths must
        # stay lockstep on arbitrary capacity maps, and the map must be
        # bracketed by its tightest and widest uniform depths.
        rng = ctx.rng(f"backpressure-map|{name}")
        lo = 2 if cyclic else 1
        cap_map = {
            edge: rng.randint(lo, 4)
            for edge in program.array.comm.edges()
        }
        mapped = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5,
            channel_capacity=cap_map,
        )
        mapped_run = mapped.run()
        mapped_compiled = mapped.recurrence_makespan()
        mapped_scalar = mapped.recurrence_makespan_scalar()
        require(mapped_run.makespan == mapped_compiled == mapped_scalar,
                f"{name}/per-edge: the three execution paths diverged",
                workload=name, capacities=repr(cap_map),
                engine=mapped_run.makespan, compiled=mapped_compiled,
                scalar=mapped_scalar)
        require(_values_equal(mapped_run.result, reference),
                f"{name}/per-edge: capacity-map result diverged from "
                f"lockstep",
                workload=name, capacities=repr(cap_map))
        tight = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5,
            channel_capacity=min(cap_map.values()),
        ).run()
        wide_uniform = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5,
            channel_capacity=max(cap_map.values()),
        ).run()
        require(
            wide_uniform.makespan - TOL <= mapped_run.makespan
            <= tight.makespan + TOL,
            f"{name}/per-edge: map makespan outside its uniform bracket",
            workload=name, capacities=repr(cap_map),
            mapped=mapped_run.makespan, tight=tight.makespan,
            wide=wide_uniform.makespan)
        rows.append({"workload": name, "capacity": repr(cap_map),
                     "makespan": mapped_run.makespan,
                     "max_occupancy": mapped_run.max_occupancy})

        # Capacity at least the wave count never binds: bit-identical to
        # the unbounded model, makespan and per-cell finish times alike.
        wide = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5,
            channel_capacity=program.cycles,
        )
        wide_run = wide.run()
        require(wide_run.makespan == unbounded_run.makespan,
                f"{name}: capacity >= waves changed the makespan",
                workload=name, capacity=program.cycles,
                wide=wide_run.makespan, unbounded=unbounded_run.makespan)
        require(wide_run.finish_times == unbounded_run.finish_times,
                f"{name}: capacity >= waves changed per-cell finish times",
                workload=name, capacity=program.cycles)
        require(wide.recurrence_makespan() == unbounded.recurrence_makespan(),
                f"{name}: compiled wide-capacity recurrence diverged from "
                f"unbounded",
                workload=name, capacity=program.cycles)
    return {"cases": rows}
