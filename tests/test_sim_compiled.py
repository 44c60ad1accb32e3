"""The array-compiled simulation kernels vs their scalar oracles.

Deterministic (non-hypothesis) coverage of :mod:`repro.sim.compiled` and
:mod:`repro.sim.batch`: exact clocked equivalence across regimes and
workloads, the batched/replay split, the tandem recurrence, the hybrid
max-plus step, and the ``CompiledTrialContext`` Monte-Carlo cache.  The
randomized sweep lives in ``test_compiled_properties.py``.
"""

import dataclasses

import pytest

from repro.analysis.montecarlo import CompiledTrialContext, run_trials
from repro.arrays.systolic import (
    SorterCell,
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.builders import serpentine_clock
from repro.core.padding import plan_safe_clocking
from repro.delay.variation import BoundedUniformVariation
from repro.sim import batch
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.compiled import CompiledClockedKernel, compile_clocked
from repro.sim.dataflow import (
    SelfTimedProgramSimulator,
    constant_service,
    hashed_service,
)
from repro.sim.faults import JitteredSchedule


def _programs(include_matmul=True):
    progs = [
        ("fir", build_fir_array([0.5, -1.25, 2.0], [1.0, -2.0, 3.5, 0.25, -0.5])),
        ("matvec", build_matvec_array(
            [[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [2.5, 0.25, 1.0]],
            [1.0, -1.0, 2.0],
        )),
        ("sorter", build_odd_even_sorter([3.0, -1.0, 2.5, 0.0, -4.0])),
    ]
    if include_matmul:
        progs.append(("matmul", build_mesh_matmul(
            [[1.0, 2.0], [3.0, 4.0]], [[5.0, -6.0], [-7.0, 8.0]],
        )))
    return progs


def _setup(program, seed=11, delta=1.0):
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


def _assert_identical(compiled, scalar):
    assert repr(compiled.result) == repr(scalar.result)
    assert compiled.violations == scalar.violations  # contents AND order
    assert compiled.ticks == scalar.ticks
    assert compiled.makespan == scalar.makespan


@pytest.mark.parametrize("name,program", _programs())
def test_compiled_clocked_matches_scalar_all_regimes(name, program):
    delta = 1.0
    buffered, cells, plan = _setup(program, delta=delta)
    period = plan.min_safe_period * 1.05 + 1e-6
    safe = ClockSchedule.from_buffered_tree(buffered, period, cells)
    tight = ClockSchedule.from_buffered_tree(buffered, 0.5 * period, cells)
    jittered = JitteredSchedule(safe, amplitude=0.3 * period, seed=7)
    for schedule, padding in [
        (safe, plan.padding),
        (tight, None),
        (jittered, plan.padding),
    ]:
        sim = ClockedArraySimulator(
            program, schedule, delta=delta, edge_padding=padding
        )
        _assert_identical(sim.run(), sim.run_scalar())


def test_clean_compiled_run_is_lockstep_equal():
    for name, program in _programs():
        cells = program.array.comm.nodes()
        schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
        sim = ClockedArraySimulator(program, schedule, delta=1.0)
        run = sim.run()
        assert run.clean
        assert repr(run.result) == repr(program.run_lockstep())


def _count_calls(monkeypatch, owner, name, wrap=lambda f: f):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))
    return calls


def test_batched_path_for_clean_runs_and_replay_for_dirty(monkeypatch):
    replays = _count_calls(monkeypatch, CompiledClockedKernel, "_replay")
    streams = _count_calls(monkeypatch, batch, "execute_streams")
    kernels = _count_calls(monkeypatch, SorterCell, "fire_batch", staticmethod)
    for name, program in _programs():
        cells = program.array.comm.nodes()
        schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
        del replays[:], streams[:], kernels[:]
        run = ClockedArraySimulator(program, schedule, delta=1.0).run()
        assert run.clean and not replays
        # acyclic programs stream; the bidirectional sorter steps its
        # class kernel
        if name == "sorter":
            assert (len(streams), len(kernels)) == (0, 1)
        else:
            assert (len(streams), len(kernels)) == (1, 0)
    # Overdriven (period below the data-path lag): dirty, so it replays.
    program = _programs()[2][1]
    cells = program.array.comm.nodes()
    schedule = ClockSchedule({c: 0.0 for c in cells}, period=0.5)
    sim = ClockedArraySimulator(program, schedule, delta=1.0)
    del replays[:], kernels[:]
    run = sim.run()
    assert run.violations and len(replays) == 1 and not kernels
    _assert_identical(run, sim.run_scalar())


def test_compiled_kernel_cached_and_explicit_ticks():
    name, program = _programs(include_matmul=False)[0]
    cells = program.array.comm.nodes()
    schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
    sim = ClockedArraySimulator(program, schedule, delta=1.0)
    assert sim.compiled() is sim.compiled()  # cached per comm version
    assert compile_clocked(sim) is sim.compiled()
    assert isinstance(sim.compiled(), CompiledClockedKernel)
    ticks = program.cycles + 3
    _assert_identical(sim.run(ticks=ticks), sim.run_scalar(ticks=ticks))
    with pytest.raises(ValueError):
        sim.run(ticks=0)


def test_instrumented_run_uses_scalar_path():
    from repro.obs.trace import RecordingTracer

    name, program = _programs(include_matmul=False)[0]
    cells = program.array.comm.nodes()
    schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
    plain = ClockedArraySimulator(program, schedule, delta=1.0)
    tracer = RecordingTracer()
    traced = ClockedArraySimulator(program, schedule, delta=1.0, tracer=tracer)
    _assert_identical(traced.run(), plain.run())
    assert tracer.events  # the scalar path emitted per-event spans


def test_recurrence_compiled_matches_scalar():
    for name, program in _programs():
        for service in (
            None,  # default constant 1.0
            constant_service(2.5),
            hashed_service(1.0, 4.0, 0.3, seed=3),
        ):
            sim = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5
            )
            for waves in (None, 1, 2, 7):
                assert sim.recurrence_makespan(waves) == (
                    sim.recurrence_makespan_scalar(waves)
                )


def test_recurrence_matches_engine_run():
    for name, program in _programs():
        sim = SelfTimedProgramSimulator(
            program, service=hashed_service(1.0, 3.0, 0.2, seed=9),
            wire_delay=0.25,
        )
        run = sim.run()
        assert abs(run.makespan - sim.recurrence_makespan()) <= 1e-9


# ----------------------------------------------------------------------
# CompiledTrialContext
# ----------------------------------------------------------------------
def _structure():
    return {"built": True, "values": [1.0, 2.0, 3.0]}


def test_trial_context_builds_once_per_thread():
    calls = []

    def build():
        calls.append(1)
        return object()

    ctx = CompiledTrialContext(build)
    first = ctx.get()
    assert ctx.get() is first
    assert len(calls) == 1


def test_trial_context_pickles_without_contents():
    import pickle

    ctx = CompiledTrialContext(_structure)
    ctx.get()
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone.get() == _structure()
    assert clone.get() is not ctx.get()


def test_run_trials_summary_identical_with_and_without_cache():
    def uncached_trial(seed):
        structure = _structure()  # rebuilt every trial
        return structure["values"][seed % 3] * seed

    ctx = CompiledTrialContext(_structure)

    def cached_trial(seed):
        return ctx.get()["values"][seed % 3] * seed

    for workers in (None, 2):
        a = run_trials(uncached_trial, 12, base_seed=5, workers=workers)
        b = run_trials(cached_trial, 12, base_seed=5, workers=workers)
        assert a == b
