"""Property-based tests (hypothesis) for finite-channel backpressure.

Three laws over random systolic programs and random service/wire draws:

* **monotonicity** — the self-timed makespan is monotone non-increasing
  in channel capacity (more buffering can only reorder slack, never
  create work);
* **unbounded limit** — capacity at least the wave count reproduces the
  ``channel_capacity=None`` model bit for bit (makespan and per-cell
  finish times);
* **triple agreement** — the event-driven engine, the scalar bounded
  recurrence, and the compiled marked-graph kernel compute the same
  float at every capacity, uniform or a per-edge map with depth-1 edges
  (``ChannelDeadlockError`` from all paths for zero-token cycles counts
  as agreement), and the compiled and scalar steady-state simulators
  detect the same periodic regime.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.systolic import (
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    constant_service,
    hashed_service,
    per_cell_service,
)
from repro.sta.flow import (
    detect_deadlock,
    simulate_steady_state,
    simulate_steady_state_scalar,
)


@st.composite
def random_programs(draw):
    """A random systolic program over random (finite) float payloads."""
    rng = random.Random(draw(st.integers(0, 2**30)))
    kind = draw(st.sampled_from(["fir", "matvec", "sorter", "matmul"]))

    def val():
        return round(rng.uniform(-4.0, 4.0), 3)

    if kind == "fir":
        taps = [val() for _ in range(rng.randint(1, 4))]
        xs = [val() for _ in range(rng.randint(2, 8))]
        return build_fir_array(taps, xs)
    if kind == "matvec":
        n = rng.randint(1, 4)
        a = [[val() for _ in range(n)] for _ in range(n)]
        x = [val() for _ in range(n)]
        return build_matvec_array(a, x)
    if kind == "sorter":
        keys = [val() for _ in range(rng.randint(2, 8))]
        return build_odd_even_sorter(keys)
    n = rng.randint(1, 3)
    a = [[val() for _ in range(n)] for _ in range(n)]
    b = [[val() for _ in range(n)] for _ in range(n)]
    return build_mesh_matmul(a, b)


def _random_service(rng, cells):
    return rng.choice(
        [
            None,
            constant_service(rng.uniform(0.25, 3.0)),
            per_cell_service({c: rng.uniform(0.25, 3.0) for c in cells}),
            hashed_service(0.5, 2.5, 0.4, seed=rng.randint(0, 2**20)),
        ]
    )


def _random_capacity(rng, comm):
    """A uniform depth in 1..6, or a map over a random edge subset with
    depths 1..4 (depth-1 edges included; the rest stay unbounded)."""
    if rng.random() < 0.5:
        return rng.randint(1, 6)
    return {
        edge: rng.randint(1, 4) for edge in comm.edges() if rng.random() < 0.7
    }


def _sim(program, service, wire, capacity):
    return SelfTimedProgramSimulator(
        program, service=service, wire_delay=wire, channel_capacity=capacity
    )


@given(random_programs(), st.data())
@settings(max_examples=40, deadline=None)
def test_makespan_monotone_in_capacity(program, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    service = _random_service(rng, program.array.comm.nodes())
    wire = rng.uniform(0.0, 2.0)
    cyclic = not program.array.comm.is_acyclic()
    capacities = [2, 3, 5, None] if cyclic else [1, 2, 3, 5, None]
    spans = [
        _sim(program, service, wire, cap).run().makespan
        for cap in capacities
    ]
    for tighter, looser in zip(spans, spans[1:]):
        assert tighter >= looser


@given(random_programs(), st.data())
@settings(max_examples=40, deadline=None)
def test_wide_capacity_bitwise_equals_unbounded(program, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    service = _random_service(rng, program.array.comm.nodes())
    wire = rng.uniform(0.0, 2.0)
    unbounded = _sim(program, service, wire, None)
    unbounded_run = unbounded.run()
    margin = rng.randint(0, 3)
    wide = _sim(program, service, wire, program.cycles + margin)
    wide_run = wide.run()
    assert wide_run.makespan == unbounded_run.makespan
    assert wide_run.finish_times == unbounded_run.finish_times
    assert wide.recurrence_makespan() == unbounded.recurrence_makespan()
    assert (
        wide.recurrence_makespan_scalar()
        == unbounded.recurrence_makespan_scalar()
    )


@given(random_programs(), st.data())
@settings(max_examples=60, deadline=None)
def test_engine_scalar_and_compiled_agree_at_every_capacity(program, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    comm = program.array.comm
    service = _random_service(rng, comm.nodes())
    wire = rng.uniform(0.0, 2.0)
    capacity = _random_capacity(rng, comm)
    try:
        sim = _sim(program, service, wire, capacity)
    except ChannelDeadlockError:
        assert detect_deadlock(comm, capacity) is not None
        with pytest.raises(ChannelDeadlockError):
            CompiledRecurrence(comm).makespan(
                constant_service(1.0), wire, program.cycles, capacity=capacity
            )
        with pytest.raises(ChannelDeadlockError):
            simulate_steady_state_scalar(comm, 1.0, wire, capacity)
        return
    assert detect_deadlock(comm, capacity) is None
    run = sim.run()
    assert run.makespan == sim.recurrence_makespan()
    assert run.makespan == sim.recurrence_makespan_scalar()
    assert run.max_occupancy is not None
    if isinstance(capacity, int):
        assert run.max_occupancy <= capacity


@given(random_programs(), st.data())
@settings(max_examples=40, deadline=None)
def test_steady_state_scalar_equals_stepper(program, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    comm = program.array.comm
    # Dyadic per-cell services and wire: the periodic regime is exact.
    service = {c: 0.25 * rng.randint(1, 12) for c in comm.nodes()}
    wire = 0.25 * rng.randint(0, 4)
    capacity = rng.choice([None, _random_capacity(rng, comm)])
    if detect_deadlock(comm, capacity) is not None:
        return
    fast = simulate_steady_state(comm, service, wire, capacity)
    slow = simulate_steady_state_scalar(comm, service, wire, capacity)
    assert (slow.period, slow.waves_run) == (fast.period, fast.waves_run)
    assert slow.cycle_time == fast.cycle_time
    assert slow.makespans.tobytes() == fast.makespans.tobytes()
