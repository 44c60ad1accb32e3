"""The capacity-spec boundary: one normalizer, every entry point.

A :data:`~repro.sim.dataflow.CapacitySpec` (``None``, a uniform depth,
or a per-edge ``{edge: depth}`` map) is read only by
``repro.sim.dataflow._capacity_items``; every evaluator and analysis
goes through it.  These tests pin the normalizer itself, then drive each
entry point with malformed specs (which must raise ``ValueError``, never
truncate or overflow), a zero-token cycle (``ChannelDeadlockError`` from
every evaluator), and out-of-range wave counts.
"""

import numpy as np
import pytest

from repro.sim import dataflow
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    constant_service,
)
from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import design_for_workload
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    analyze_flow,
    detect_deadlock,
    flow_graph,
    simulate_steady_state,
    simulate_steady_state_scalar,
)
from repro.sta.flowreport import build_flow_report


def _design():
    # A 4-cell odd-even sorter: COMM edges both ways between neighbours,
    # so the graph is cyclic.
    return design_for_workload("sorter", size=4)


# ----------------------------------------------------------------------
# the normalizer
# ----------------------------------------------------------------------
class TestCapacityItems:
    EDGES = [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_none_is_no_bounded_channel(self):
        assert dataflow._capacity_items(self.EDGES, None) == []

    def test_uniform_bounds_every_edge_in_edge_order(self):
        items = dataflow._capacity_items(self.EDGES, 3)
        assert items == [(e, 3) for e in self.EDGES]

    def test_numpy_int_is_an_int(self):
        items = dataflow._capacity_items(self.EDGES, {(1, 2): np.int64(2)})
        assert items == [((1, 2), 2)]
        assert type(items[0][1]) is int

    def test_map_follows_edge_order_and_skips_absent_edges(self):
        items = dataflow._capacity_items(self.EDGES, {(2, 1): 4, (0, 1): 1})
        assert items == [((0, 1), 1), ((2, 1), 4)]

    @pytest.mark.parametrize(
        "spec",
        [0, -1, 2.0, 2.7, True, float("inf"), float("nan"), "2",
         {(0, 1): 0}, {(0, 1): 2.5}, {(0, 1): False}, {(0, 1): None},
         {(0, 2): 2}],
        ids=repr,
    )
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            dataflow._capacity_items(self.EDGES, spec)

    def test_credit_order_puts_consumers_first(self):
        items = [((0, 1), 1), ((1, 2), 1), ((2, 1), 2)]
        order = dataflow._credit_order([0, 1, 2], items)
        assert order.index(2) < order.index(1) < order.index(0)

    def test_credit_order_ignores_deeper_channels(self):
        items = [((0, 1), 1), ((1, 0), 2)]
        assert sorted(dataflow._credit_order([0, 1], items)) == [0, 1]

    def test_credit_order_raises_on_zero_token_cycle(self):
        with pytest.raises(ChannelDeadlockError):
            dataflow._credit_order([0, 1], [((0, 1), 1), ((1, 0), 1)])


# ----------------------------------------------------------------------
# every entry point, one boundary
# ----------------------------------------------------------------------
def _engine(design, cap):
    return SelfTimedProgramSimulator(design.program, channel_capacity=cap).run()


def _stepper(design, cap):
    compiled = CompiledRecurrence(design.program.array.comm)
    return compiled.stepper(constant_service(1.0), 0.5, capacity=cap).run(3)


def _makespan(design, cap):
    compiled = CompiledRecurrence(design.program.array.comm)
    return compiled.makespan(constant_service(1.0), 0.5, 3, capacity=cap)


def _steady(design, cap):
    return simulate_steady_state(design.program.array.comm, 1.0, 0.5, cap)


def _steady_scalar(design, cap):
    return simulate_steady_state_scalar(design.program.array.comm, 1.0, 0.5, cap)


def _flow_graph(design, cap):
    return flow_graph(design.program.array.comm, 1.0, 0.5, cap)


def _detect_deadlock(design, cap):
    return detect_deadlock(design.program.array.comm, cap)


def _analyze_flow(design, cap):
    return analyze_flow(design.program.array.comm, 1.0, 0.5, cap)


def _flow_report(design, cap):
    return build_flow_report(
        design.program.array.comm, 1.0, 0.5, cap, simulate=False
    )


def _analyzer(design, cap):
    return STAAnalyzer(design).flow(1.0, 0.5, cap)


def _eco(design, cap):
    session = ECOSession(design)
    items = cap.items() if isinstance(cap, dict) else [((0, 1), cap)]
    for edge, depth in items:
        session.set_channel_capacity(edge, depth)
    return session.flow(1.0, 0.5)


EVALUATORS = [_engine, _stepper, _makespan, _steady, _steady_scalar]
ENTRY_POINTS = EVALUATORS + [
    _flow_graph, _detect_deadlock, _analyze_flow, _flow_report, _analyzer,
    _eco,
]

BAD_SPECS = [
    2.7,
    {(0, 1): 2.5},
    True,
    {(0, 1): True},
    float("inf"),
    {(1, 2): float("inf")},
    0,
    {(0, 1): 0},
]


def _cases():
    for entry in ENTRY_POINTS:
        for spec in BAD_SPECS:
            yield pytest.param(
                entry, spec, ValueError, id=f"{entry.__name__}-{spec!r}"
            )
        if entry is not _eco:
            # ECO edits name one existing channel at a time.
            yield pytest.param(
                entry, {(0, 2): 2}, ValueError,
                id=f"{entry.__name__}-unknown-edge",
            )
    for entry in EVALUATORS:
        yield pytest.param(
            entry, {(1, 2): 1, (2, 1): 1}, ChannelDeadlockError,
            id=f"{entry.__name__}-cyclic-capacity-1",
        )


@pytest.mark.parametrize("entry, spec, error", list(_cases()))
def test_bad_capacity_spec_rejected(entry, spec, error):
    with pytest.raises(error):
        entry(_design(), spec)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_numpy_int_depth_accepted(entry):
    design = _design()
    plain = entry(design, {(0, 1): 2, (1, 2): 3})
    numpy = entry(design, {(0, 1): np.int64(2), (1, 2): np.int32(3)})
    if entry in (_stepper, _makespan):
        assert numpy == plain


# ----------------------------------------------------------------------
# wave counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("waves", [0, -3])
@pytest.mark.parametrize("capacity", [None, 2])
def test_every_evaluator_rejects_nonpositive_waves(waves, capacity):
    design = _design()
    sim = SelfTimedProgramSimulator(design.program, channel_capacity=capacity)
    with pytest.raises(ValueError):
        sim.run(waves)
    with pytest.raises(ValueError):
        sim.recurrence_makespan(waves)
    with pytest.raises(ValueError):
        sim.recurrence_makespan_scalar(waves)
    with pytest.raises(ValueError):
        sim.compiled_recurrence().stepper(
            constant_service(1.0), 0.0, capacity=capacity
        ).run(waves)
