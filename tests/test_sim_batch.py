"""Batched lockstep execution vs the per-object ``fire`` oracle.

:meth:`repro.arrays.systolic.SorterCell.fire_batch` must leave every
cell exactly where ``fire`` under :class:`LockstepExecutor` does (values
compared by ``float.hex``, so ±0.0 and NaN count, plus the post-run
tick), and :func:`repro.sim.batch.execute_lockstep` must pick it, the
stream evaluator, or refuse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.cells import DelayCell
from repro.arrays.ideal import LockstepExecutor
from repro.arrays.systolic import (
    SorterCell,
    build_fir_array,
    build_odd_even_sorter,
)
from repro.graphs.comm import CommGraph
from repro.sim import batch

#: Few distinct keys so duplicates and signed-zero ties are common.
_KEYS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _state(pes, n):
    return [(pes[i].value.hex(), pes[i]._tick) for i in range(n)]


@given(st.lists(_KEYS, min_size=1, max_size=64), st.data())
@settings(max_examples=150, deadline=None)
def test_fire_batch_equals_per_object_fire(values, data):
    n = len(values)
    cycles = build_odd_even_sorter(values).cycles
    ticks = data.draw(st.one_of(
        st.integers(0, cycles), st.integers(cycles + 1, 3 * cycles)
    ))
    oracle = build_odd_even_sorter(values)
    executor = LockstepExecutor(oracle.array.comm, oracle.pes)
    executor.reset()
    executor.run(ticks)

    batched = build_odd_even_sorter(values)
    SorterCell.fire_batch([batched.pes[i] for i in range(n)], ticks)
    assert _state(batched.pes, n) == _state(oracle.pes, n)


def test_execute_lockstep_on_the_sorter_resets_and_matches():
    values = [3.0, -0.0, 0.0, 3.0, float("nan"), -2.0, 0.0]
    program = build_odd_even_sorter(values)
    expected = [v.hex() for v in program.run_lockstep()]
    for _ in range(2):  # PEs are reset first, so a rerun is identical
        result = batch.execute_lockstep(program, program.cycles)
        assert [v.hex() for v in result] == expected


def test_execute_lockstep_streams_acyclic_programs():
    program = build_fir_array([0.5, -1.25], [1.0, -2.0, 3.5])
    assert batch.execute_lockstep(program, program.cycles) == program.run_lockstep()


def test_fire_batch_rejects_cells_outside_its_contract():
    pes = build_odd_even_sorter([2.0, 1.0, 0.0]).pes
    with pytest.raises(ValueError):
        SorterCell.fire_batch([pes[1], pes[0], pes[2]], 4)
    pes[1].fire({})  # ticks now disagree
    with pytest.raises(ValueError):
        SorterCell.fire_batch([pes[i] for i in range(3)], 4)


def test_execute_lockstep_refuses_before_touching_a_pe():
    # A sorter missing one neighbour wire is outside the kernel's chain.
    program = build_odd_even_sorter([2.0, 1.0, 0.0])
    program.array.comm = CommGraph([(0, 1), (1, 0), (1, 2)])
    for pe in program.pes.values():
        pe.value = 9.0
    with pytest.raises(batch.BatchUnsupported):
        batch.execute_lockstep(program, program.cycles)
    assert [program.pes[i].value for i in range(3)] == [9.0, 9.0, 9.0]
    # A cyclic program of a class without fire_batch.
    ring = build_odd_even_sorter([1.0, 0.0])
    ring.pes = {0: DelayCell(1, 1), 1: DelayCell(0, 0)}
    with pytest.raises(batch.BatchUnsupported):
        batch.execute_lockstep(ring, 3)


def test_kernel_contract_violation_refuses_and_resets():
    # Cell ids 0..2 wired as a chain, but the PEs' own indices disagree.
    program = build_odd_even_sorter([2.0, 1.0, 0.0])
    pes = program.pes
    pes[0], pes[2] = pes[2], pes[0]
    for pe in pes.values():
        pe.value = 9.0
    with pytest.raises(batch.BatchUnsupported):
        batch.execute_lockstep(program, program.cycles)
    assert sorted(pe.value for pe in pes.values()) == [0.0, 1.0, 2.0]
