"""Unit tests for the static flow analyzer (:mod:`repro.sta.flow`).

Covers the token-weighted graph build, the Karp/Howard MCM solvers, the
static deadlock detector, minimal buffer sizing, the steady-state
simulator and its closed-form transient extrapolation, the
``STAAnalyzer.flow`` memo, ``ECOSession.set_channel_capacity``
incremental reuse, the schema-validated flow report, and — the
handshake cross-check — the signal-level pipeline disciplines'
measured ``steady_cycle_time`` against their marked-graph MCM models.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.graphs.comm import CommGraph
from repro.obs.schema import validate_flow_report
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import per_cell_service
from repro.sim.handshake import run_credit_pipeline, run_handshake_pipeline
from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import WORKLOADS, design_for_workload
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    FlowEdge,
    FlowGraph,
    analyze_flow,
    certify_mcm,
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state,
    simulate_steady_state_scalar,
)
from repro.sta.flowreport import build_flow_report, render_flow_report


def _pipeline(n):
    comm = CommGraph()
    for i in range(n):
        comm.add_node(i)
    for i in range(n - 1):
        comm.add_edge(i, i + 1)
    return comm


def _ring(n):
    comm = CommGraph()
    for i in range(n):
        comm.add_node(i)
    for i in range(n):
        comm.add_edge(i, (i + 1) % n)
    return comm


def _mesh(side):
    comm = CommGraph()
    for r in range(side):
        for c in range(side):
            comm.add_node((r, c))
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                comm.add_edge((r, c), (r, c + 1))
            if r + 1 < side:
                comm.add_edge((r, c), (r + 1, c))
    return comm


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
class TestFlowGraph:
    def test_unbounded_pipeline_has_self_and_forward_edges_only(self):
        comm = _pipeline(3)
        fg = flow_graph(comm, 1.5, 0.25)
        kinds = [e.kind for e in fg.edges]
        assert kinds.count("compute") == 3
        assert kinds.count("forward") == 2
        assert kinds.count("credit") == 0
        for e in fg.edges:
            if e.kind == "compute":
                assert e.src == e.dst and e.tokens == 1 and e.weight == 1.5
            else:
                assert e.tokens == 1 and e.weight == 0.25 + 1.5

    def test_finite_capacity_adds_credit_back_edges(self):
        comm = _pipeline(3)
        fg = flow_graph(comm, 1.0, 0.0, 3)
        credits = [e for e in fg.edges if e.kind == "credit"]
        assert len(credits) == 2
        for e in credits:
            assert e.tokens == 2  # depth - 1

    def test_per_edge_capacity_map(self):
        comm = _pipeline(3)
        cap = {(0, 1): 1, (1, 2): 4}
        fg = flow_graph(comm, 1.0, 0.0, cap)
        tokens = sorted(
            e.tokens for e in fg.edges if e.kind == "credit"
        )
        assert tokens == [0, 3]

    def test_unknown_edge_in_capacity_map_rejected(self):
        comm = _pipeline(2)
        with pytest.raises((KeyError, ValueError)):
            flow_graph(comm, 1.0, 0.0, {(7, 8): 2})


# ----------------------------------------------------------------------
# MCM solvers
# ----------------------------------------------------------------------
class TestMCM:
    def test_unbounded_mcm_is_max_service(self):
        comm = _pipeline(4)
        service = {0: 1.0, 1: 1.875, 2: 1.25, 3: 1.5}
        fg = flow_graph(comm, service, 0.5)
        cycle = mcm_howard(fg)
        assert cycle is not None
        assert cycle.cycle_time == 1.875
        assert mcm_karp(fg) == 1.875

    def test_karp_equals_howard_on_meshes_and_rings(self):
        for comm in (_mesh(3), _mesh(4), _ring(5)):
            cells = comm.nodes()
            service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(cells)}
            for cap in (None, 2, 4):
                fg = flow_graph(comm, service, 0.5, cap)
                howard = mcm_howard(fg)
                assert howard is not None
                assert howard.cycle_time == mcm_karp(fg)

    def test_cycle_weight_token_ratio_is_consistent(self):
        fg = flow_graph(_mesh(3), 1.25, 0.5, 2)
        cycle = mcm_howard(fg)
        assert cycle is not None
        assert cycle.tokens > 0
        assert cycle.cycle_time == cycle.weight / cycle.tokens

    def test_warm_start_reaches_same_answer(self):
        fg = flow_graph(_mesh(4), 1.375, 0.5, 2)
        cold = mcm_howard(fg)
        assert cold is not None
        warm = mcm_howard(fg, warm_start=cold.policy)
        assert warm is not None
        assert warm.cycle_time == cold.cycle_time


# ----------------------------------------------------------------------
# the optimality certificate
# ----------------------------------------------------------------------
def _cli_services(comm, seed, workload):
    """The flow CLI's timing model: dyadic eighth-step services."""
    rng = random.Random(f"{seed}|flow|{workload}")
    return {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}


def _certified_cases():
    """(fg, howard cycle) over every workload, unbounded (multi-SCC),
    uniform, and random per-edge capacity maps; deadlocked maps skipped."""
    cases = []
    for workload in WORKLOADS:
        for size in (3, 5):
            comm = design_for_workload(workload, size=size, seed=1).array.comm
            service = _cli_services(comm, size, workload)
            rng = random.Random(f"cert|{workload}|{size}")
            caps = [None, 1, 2, 3,
                    {e: rng.randint(1, 4) for e in comm.edges()}]
            for cap in caps:
                if detect_deadlock(comm, cap) is not None:
                    continue
                fg = flow_graph(comm, service, 0.5, cap)
                cycle = mcm_howard(fg)
                assert cycle is not None
                cases.append((fg, cycle))
    return cases


def _credit(src, dst, weight):
    """A one-token edge of arbitrary weight (credit edges carry any)."""
    return FlowEdge(src=src, dst=dst, weight=weight, tokens=1, kind="credit")


class TestCertificate:
    def test_accepts_howard_and_matches_karp(self):
        cases = _certified_cases()
        assert len(cases) >= 30
        for fg, cycle in cases:
            assert certify_mcm(fg, cycle) is True
            assert cycle.cycle_time == mcm_karp(fg)

    def test_rejects_lambda_lowered_by_one_grid_step(self):
        step = 2.0 ** -3  # the services' 1/8 grid
        for fg, cycle in _certified_cases()[::3]:
            low = cycle.cycle_time - step
            assert certify_mcm(
                fg, dataclasses.replace(cycle, cycle_time=low)
            ) is False
            forged = dataclasses.replace(
                cycle, cycle_time=low, weight=low * cycle.tokens
            )
            assert certify_mcm(fg, forged) is False

    def test_rejects_a_policy_that_hides_the_critical_cycle(self):
        # Self loops of mean 2 (cell 0) and 1 (cell 1), and a two-cell
        # loop 0 -> 1 -> 0 of mean 4: the MCM.  A policy keeping both
        # self loops makes cell 0's class 2 the top one and would pass
        # the potential check; only "classes never decrease along an
        # edge" (0 -> 1 goes from 2 down to 1) refutes it.
        edges = [
            _credit(0, 0, 2.0), _credit(1, 1, 1.0),
            _credit(0, 1, 4.0), _credit(1, 0, 4.0),
        ]
        fg = FlowGraph.from_edges([0, 1], edges, np.zeros(2))
        cycle = mcm_howard(fg)
        assert cycle is not None and cycle.cycle_time == 4.0
        assert certify_mcm(fg, cycle) is True
        forged = dataclasses.replace(
            cycle, cycle_time=2.0, weight=2.0, tokens=1,
            edges=[fg.edge(0)], in_edges=np.array([0, 1]),
        )
        assert certify_mcm(fg, forged) is False

    def test_rejects_a_real_but_non_critical_cycle(self):
        # Unbounded pipeline: every self loop is a cycle, the slowest
        # cell's is critical; claiming a faster one must fail.
        service = {0: 1.0, 1: 1.875, 2: 1.25}
        fg = flow_graph(_pipeline(3), service, 0.5)
        cycle = mcm_howard(fg)
        assert cycle is not None and cycle.cycle_time == 1.875
        fast = fg.edge(0)  # cell 0's self loop, mean 1.0
        forged = dataclasses.replace(
            cycle, cycle_time=1.0, weight=1.0, tokens=1, edges=[fast]
        )
        assert certify_mcm(fg, forged) is False

    def test_rejects_a_perturbed_potential(self):
        # Cells 0 (self loop, mean 2: critical), 1 and 2.  With lambda 2
        # the potentials are g0 = 0, g1 = g0 + 1 - 2 = -1 and g2 =
        # max(g0 + 5 - 2, g1 + 1 - 2) = 3 through edge 0 -> 2.  Pointing
        # cell 2's policy at 1 -> 2 instead lowers g2 to -2, which the
        # edge 0 -> 2 (needs g2 >= 3) refutes.
        edges = [
            _credit(0, 0, 2.0), _credit(0, 1, 1.0), _credit(1, 1, 1.0),
            _credit(0, 2, 5.0), _credit(1, 2, 1.0), _credit(2, 2, 1.0),
        ]
        fg = FlowGraph.from_edges([0, 1, 2], edges, np.zeros(3))
        cycle = mcm_howard(fg)
        assert cycle is not None and cycle.cycle_time == 2.0
        assert certify_mcm(fg, cycle) is True
        assert cycle.in_edges is not None
        assert cycle.in_edges.tolist() == [0, 1, 3]
        perturbed = cycle.in_edges.copy()
        perturbed[2] = 4  # edge 1 -> 2
        forged = dataclasses.replace(cycle, in_edges=perturbed)
        assert certify_mcm(fg, forged) is False

    def test_rejects_a_cycle_that_is_not_a_closed_walk(self):
        for fg, cycle in _certified_cases():
            if len(cycle.edges) < 2:
                continue
            # Drop a hop between two cells: the walk no longer closes.
            hop = next(i for i, e in enumerate(cycle.edges) if e.src != e.dst)
            gapped = cycle.edges[:hop] + cycle.edges[hop + 1:]
            forged = dataclasses.replace(cycle, edges=gapped)
            assert certify_mcm(fg, forged) is False
            # Right hops but a made-up weight: not an edge of the graph.
            head = dataclasses.replace(
                cycle.edges[0], weight=cycle.edges[0].weight + 1.0
            )
            forged = dataclasses.replace(
                cycle, edges=[head] + cycle.edges[1:]
            )
            assert certify_mcm(fg, forged) is False

    def test_rejects_an_open_walk_at_the_right_mean(self):
        # The same two-cell loop: one hop 0 -> 1 (weight 4, one token)
        # has the critical mean but does not close.
        edges = [
            _credit(0, 0, 2.0), _credit(1, 1, 1.0),
            _credit(0, 1, 4.0), _credit(1, 0, 4.0),
        ]
        fg = FlowGraph.from_edges([0, 1], edges, np.zeros(2))
        cycle = mcm_howard(fg)
        assert cycle is not None
        forged = dataclasses.replace(
            cycle, weight=4.0, tokens=1, edges=[fg.edge(2)]
        )
        assert certify_mcm(fg, forged) is False

    def test_rejects_a_cycle_without_a_policy(self):
        fg, cycle = _certified_cases()[0]
        assert certify_mcm(fg, dataclasses.replace(cycle, in_edges=None)) \
            is False

    def test_non_dyadic_design_takes_the_karp_fallback(self):
        comm = _ring(5)
        fg = flow_graph(comm, 1.1, 0.3, 2)
        cycle = mcm_howard(fg)
        assert cycle is not None
        assert certify_mcm(fg, cycle) is None
        report = build_flow_report(comm, 1.1, 0.3, 2, simulate=False)
        assert validate_flow_report(report) == []
        assert report["agreement"]["verify"] == "karp"
        assert report["agreement"]["karp_cycle_time"] == mcm_karp(fg)
        assert "verify=karp" in render_flow_report(report)

    def test_non_finite_weight_is_not_certifiable(self):
        fg = flow_graph(_ring(3), 1.0, 0.5, 2)
        cycle = mcm_howard(fg)
        assert cycle is not None
        bad = dataclasses.replace(fg, eweight=fg.eweight.copy())
        bad.eweight[-1] = np.inf
        assert certify_mcm(bad, cycle) is None


# ----------------------------------------------------------------------
# deadlock detection
# ----------------------------------------------------------------------
class TestDeadlock:
    def test_capacity_one_ring_deadlocks_with_witness(self):
        comm = _ring(4)
        cycle = detect_deadlock(comm, 1)
        assert cycle is not None
        assert len(cycle) == 4
        # The witness closes on itself.
        for (u, v), (nxt, _w) in zip(cycle, cycle[1:] + cycle[:1]):
            assert v == nxt

    def test_capacity_two_ring_is_live(self):
        assert detect_deadlock(_ring(4), 2) is None

    def test_acyclic_comm_never_deadlocks(self):
        assert detect_deadlock(_pipeline(5), 1) is None
        assert detect_deadlock(_mesh(3), 1) is None

    def test_unbounded_never_deadlocks(self):
        assert detect_deadlock(_ring(3), None) is None

    def test_mixed_map_deadlocks_only_when_a_unit_cycle_exists(self):
        comm = _ring(3)
        live = {(0, 1): 1, (1, 2): 1, (2, 0): 2}
        assert detect_deadlock(comm, live) is None
        dead = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        assert detect_deadlock(comm, dead) is not None

    def test_analyze_flow_surfaces_deadlock(self):
        analysis = analyze_flow(_ring(3), 1.0, 0.5, 1)
        assert analysis.dead
        assert analysis.cycle is None
        assert analysis.cycle_time is None
        assert analysis.throughput is None


# ----------------------------------------------------------------------
# static vs dynamic: bit-equality on dyadic designs
# ----------------------------------------------------------------------
class TestStaticVsDynamic:
    def test_mcm_equals_simulated_rate_bit_for_bit(self):
        for comm in (_mesh(3), _ring(4)):
            cells = comm.nodes()
            service = {c: 1.0 + (i * 3 % 8) / 8 for i, c in enumerate(cells)}
            for cap in (None, 2):
                cycle = mcm_howard(flow_graph(comm, service, 0.5, cap))
                steady = simulate_steady_state(comm, service, 0.5, cap)
                assert cycle is not None
                assert cycle.cycle_time == steady.cycle_time

    def test_scalar_steady_state_matches_stepper(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        a = simulate_steady_state(comm, service, 0.5, 2)
        b = simulate_steady_state_scalar(comm, service, 0.5, 2)
        assert a.cycle_time == b.cycle_time
        assert a.period == b.period

    def test_makespan_extrapolation_matches_compiled_recurrence(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i * 5 % 8) / 8 for i, c in enumerate(comm.nodes())}
        steady = simulate_steady_state(comm, service, 0.5, 2)
        svc = per_cell_service(service)
        compiled = CompiledRecurrence(comm)
        for horizon in (steady.waves_run + 3, 2 * steady.waves_run + 1):
            assert steady.makespan_at(horizon) == compiled.makespan(
                svc, 0.5, horizon, capacity=2
            )

    def test_transient_bounds_bracket_the_makespans(self):
        comm = _mesh(3)
        steady = simulate_steady_state(comm, 1.25, 0.5, None)
        lo, hi = steady.bounds()
        for waves in range(1, steady.waves_run + 1):
            m = steady.makespans[waves - 1]
            assert waves * steady.cycle_time + lo <= m + 1e-9
            assert m <= waves * steady.cycle_time + hi + 1e-9


# ----------------------------------------------------------------------
# buffer sizing
# ----------------------------------------------------------------------
class TestSizing:
    def test_sizing_meets_target_and_reanalysis_agrees(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        base = mcm_howard(flow_graph(comm, service, 0.5, None))
        assert base is not None
        result = minimal_buffer_sizing(comm, service, 0.5, base.cycle_time)
        assert result.cycle_time <= base.cycle_time
        verdict = analyze_flow(comm, service, 0.5, result.capacities)
        assert not verdict.dead
        assert verdict.cycle_time == result.cycle_time
        assert set(result.capacities) == set(comm.edges())

    def test_slack_shrinks_required_depths(self):
        comm = _ring(5)
        base = mcm_howard(flow_graph(comm, 1.5, 0.5, None))
        assert base is not None
        tight = minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time)
        loose = minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time + 2.0)
        assert loose.total_capacity <= tight.total_capacity

    def test_unachievable_target_raises(self):
        comm = _mesh(3)
        base = mcm_howard(flow_graph(comm, 1.5, 0.5, None))
        assert base is not None
        with pytest.raises(ValueError):
            minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time - 0.5)


# ----------------------------------------------------------------------
# handshake cross-check: signal-level disciplines vs their MCM models
# ----------------------------------------------------------------------
class TestHandshakeCrossCheck:
    """The three handshake flow-control laws are maximum cycle means of
    tiny marked graphs.  The simulator measures the law; the MCM solver
    derives it — they must agree on every (service, wire) point."""

    @staticmethod
    def _mcm(edges, services):
        fg = FlowGraph.from_edges(list(range(len(services))), edges,
                                  np.asarray(services, dtype=np.float64))
        cycle = mcm_howard(fg)
        assert cycle is not None
        return cycle.cycle_time

    def _model(self, s, w, discipline, credits=2):
        # One stage and its downstream neighbour: a forward request, the
        # returning ack/credit, and the stage's own compute recycle.
        if discipline == "unbuffered":
            # Token leaves after compute+wire; the ack (one more wire)
            # must return before the next token departs: s + 2w.
            edges = [
                FlowEdge(0, 1, s + w, 1, "forward", wire=w, service=s),
                FlowEdge(1, 0, w, 0, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        elif discipline == "buffered":
            # The skid owns the round trip; compute only waits for the
            # skid slot, not the far end: max(s, 2w).
            edges = [
                FlowEdge(0, 1, w, 1, "forward", wire=w),
                FlowEdge(1, 0, w, 0, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        else:  # credit
            # `credits` tokens pipeline the round-trip loop:
            # max(s, 2w / credits).
            edges = [
                FlowEdge(0, 1, w, 1, "forward", wire=w),
                FlowEdge(1, 0, w, credits - 1, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        return self._mcm(edges, [s, s])

    def test_unbuffered_law_matches_mcm(self):
        for s, w in ((1.25, 0.25), (0.5, 0.5), (2.0, 0.125)):
            assert self._model(s, w, "unbuffered") == s + 2 * w
            run = run_handshake_pipeline(
                5, 120, lambda rng: s, wire_delay=w, seed=3
            )
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "unbuffered")
            )

    def test_buffered_law_matches_mcm(self):
        for s, w in ((1.25, 0.25), (0.25, 1.0), (1.0, 0.5)):
            assert self._model(s, w, "buffered") == max(s, 2 * w)
            run = run_handshake_pipeline(
                5, 120, lambda rng: s, wire_delay=w, seed=3, buffered=True
            )
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "buffered")
            )

    def test_credit_law_matches_mcm(self):
        for s, w, credits in ((0.125, 0.5, 2), (0.125, 0.5, 4),
                              (1.5, 0.25, 2), (0.25, 1.0, 8)):
            assert self._model(s, w, "credit", credits) == max(
                s, 2 * w / credits
            )
            run = run_credit_pipeline(
                5, 160, lambda rng: s, wire_delay=w, credits=credits, seed=3
            )
            # The finite run's tail drains without backpressure, so the
            # measured rate sits a hair under the law (same tolerance as
            # the handshake law tests).
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "credit", credits), rel=0.02
            )


# ----------------------------------------------------------------------
# analyzer memo
# ----------------------------------------------------------------------
class TestAnalyzerFlow:
    def test_flow_memo_hits_on_identical_spec(self):
        sta = STAAnalyzer(design_for_workload("fir", size=4))
        a = sta.flow(service=1.25, wire_delay=0.5, capacity=2)
        b = sta.flow(service=1.25, wire_delay=0.5, capacity=2)
        assert a is b

    def test_flow_memo_misses_on_different_spec(self):
        sta = STAAnalyzer(design_for_workload("fir", size=4))
        a = sta.flow(service=1.25, wire_delay=0.5)
        b = sta.flow(service=1.5, wire_delay=0.5)
        assert a is not b

    def test_flow_matches_cold_analyze(self):
        design = design_for_workload("fir", size=4)
        sta = STAAnalyzer(design)
        memoed = sta.flow(service=1.25, wire_delay=0.5, capacity=2)
        cold = analyze_flow(design.array.comm, 1.25, 0.5, 2)
        assert memoed.dead == cold.dead
        assert memoed.cycle_time == cold.cycle_time


# ----------------------------------------------------------------------
# ECO incremental capacity edits
# ----------------------------------------------------------------------
class TestEcoFlow:
    def test_widening_off_critical_edge_reuses_cached_cycle(self):
        session = ECOSession(design_for_workload("fir", size=5))
        comm = session.design.array.comm
        for edge in comm.edges():
            session.set_channel_capacity(edge, 2)
        before = session.flow(service=1.25, wire_delay=0.5)
        assert not before.dead and before.cycle is not None
        spare = next(e for e in comm.edges()
                     if e not in before.critical_comm_edges())
        edit = session.set_channel_capacity(spare, 3)
        assert edit.op == "set_channel_capacity"
        after = session.flow(service=1.25, wire_delay=0.5)
        assert after.cycle is before.cycle  # identity: no re-solve

    def test_narrowing_recomputes_and_matches_cold_solve(self):
        session = ECOSession(design_for_workload("fir", size=5))
        comm = session.design.array.comm
        for edge in comm.edges():
            session.set_channel_capacity(edge, 4)
        session.flow(service=1.25, wire_delay=0.5)
        edge = comm.edges()[0]
        session.set_channel_capacity(edge, 2)
        warm = session.flow(service=1.25, wire_delay=0.5)
        cold = analyze_flow(comm, 1.25, 0.5, session.channel_capacities)
        assert warm.dead == cold.dead
        assert warm.cycle_time == cold.cycle_time

    def test_capacity_edit_validation(self):
        session = ECOSession(design_for_workload("fir", size=4))
        edge = session.design.array.comm.edges()[0]
        with pytest.raises(ValueError):
            session.set_channel_capacity(edge, 0)
        with pytest.raises(KeyError):
            session.set_channel_capacity(("no", "such"), 2)

    def test_apply_dispatches_capacity_edits(self):
        session = ECOSession(design_for_workload("fir", size=4))
        edge = session.design.array.comm.edges()[0]
        edit = session.apply("set_channel_capacity", edge=edge, depth=3)
        assert edit.op == "set_channel_capacity"
        assert session.channel_capacities[edge] == 3


# ----------------------------------------------------------------------
# flow report + CLI
# ----------------------------------------------------------------------
class TestFlowReport:
    def test_live_report_validates_and_is_exact(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        report = build_flow_report(comm, service, 0.5, 2,
                                   design_name="mesh3",
                                   sizing_target=None)
        assert validate_flow_report(report) == []
        assert not report["deadlock"]["dead"]
        assert report["agreement"]["exact"]
        assert report["agreement"]["max_abs_diff"] == 0.0
        text = render_flow_report(report)
        assert "mesh3" in text and "cycle time" in text

    def test_dead_report_carries_witness(self):
        report = build_flow_report(_ring(3), 1.0, 0.5, 1,
                                   design_name="ring3")
        assert validate_flow_report(report) == []
        assert report["deadlock"]["dead"]
        assert len(report["deadlock"]["cycle"]) == 3
        assert "DEADLOCK" in render_flow_report(report).upper()

    def test_cli_flow_verb_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "flow.json"
        code = cli_main(["flow", "--workload", "fir", "--size", "4",
                         "--json", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        assert validate_flow_report(reports[0]) == []
        assert reports[0]["agreement"]["exact"]

    def test_cli_sta_flow_flag_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "sta_flow.json"
        code = cli_main(["sta", "--workload", "fir", "--size", "4",
                         "--flow", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(validate_flow_report(r) == [] for r in reports)
        assert all(r["agreement"]["verify"] == "cert" for r in reports)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("size", [3, 5])
    def test_cli_reports_are_certified_and_match_karp(
        self, tmp_path, workload, size
    ):
        out = tmp_path / "flow.json"
        code = cli_main(["flow", "--workload", workload, "--size",
                         str(size), "--seed", "3", "--json", str(out)])
        assert code == 0
        (report,) = json.loads(out.read_text())
        agreement = report["agreement"]
        assert agreement["verify"] == "cert"
        assert agreement["karp_cycle_time"] is None
        assert agreement["exact"]
        comm = design_for_workload(workload, size=size, seed=3).array.comm
        service = _cli_services(comm, 3, workload)
        karp = mcm_karp(flow_graph(comm, service, 0.5, 2))
        assert report["mcm"]["cycle_time"] == karp

    def test_certified_report_renders_its_tier(self):
        report = build_flow_report(_ring(4), 1.25, 0.5, 2)
        assert report["agreement"]["verify"] == "cert"
        assert "verify=cert" in render_flow_report(report)

    def test_zero_cycle_time_reports_null_throughput(self):
        report = build_flow_report(_ring(3), 0.0, 0.0, 2)
        assert report["mcm"]["cycle_time"] == 0.0
        assert report["mcm"]["throughput"] is None
        assert "throughput unbounded" in render_flow_report(report)
        json.dumps(report, allow_nan=False)


# ----------------------------------------------------------------------
# the sta/flow CLI input boundary and strict artifacts
# ----------------------------------------------------------------------
class TestFlowInputBoundary:
    def _rejects(self, argv, capsys, needle):
        code = cli_main(argv)
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("error: ") and needle in err
        assert "\n" not in err and "Traceback" not in err

    def test_nan_wire_is_rejected(self, capsys):
        self._rejects(["flow", "--workload", "fir", "--size", "4",
                       "--wire", "nan"], capsys, "--wire")

    def test_infinite_target_is_rejected(self, capsys):
        self._rejects(["flow", "--workload", "fir", "--size", "4",
                       "--target", "inf"], capsys, "--target")

    def test_zero_size_is_rejected(self, capsys):
        self._rejects(["flow", "--workload", "fir", "--size", "0"],
                      capsys, "--size")

    def test_negative_size_is_rejected_by_sta(self, capsys):
        self._rejects(["sta", "--workload", "fir", "--size", "-3"],
                      capsys, "--size")

    def test_nan_period_is_rejected_by_sta(self, capsys):
        self._rejects(["sta", "--workload", "fir", "--size", "4",
                       "--period", "nan"], capsys, "--period")

    def test_artifacts_are_strict_json(self, tmp_path):
        out = tmp_path / "flow.json"
        assert cli_main(["flow", "--workload", "sorter", "--size", "4",
                         "--json", str(out)]) == 0
        text = out.read_text()
        json.loads(text, parse_constant=lambda c: pytest.fail(c))
        assert text.endswith("\n")

    def test_non_finite_artifact_is_refused_whole(self, tmp_path):
        from repro.cli import _write_json_artifact

        out = tmp_path / "flow.json"
        with pytest.raises(ValueError):
            _write_json_artifact(str(out), [{"wire_delay": float("nan")}])
        assert not out.exists()

    @pytest.mark.parametrize("block,key", [
        ("mcm", "cycle_time"),
        ("agreement", "max_abs_diff"),
        ("transient", "c_hi"),
    ])
    def test_validator_rejects_non_finite_numbers(self, block, key):
        report = build_flow_report(_ring(4), 1.25, 0.5, 2)
        for bad in (float("nan"), float("inf")):
            forged = json.loads(json.dumps(report))
            forged[block][key] = bad
            errors = validate_flow_report(forged)
            assert any(f"$.{block}.{key}" in e for e in errors), errors

    def test_validator_checks_the_verify_tier(self):
        report = build_flow_report(_ring(4), 1.25, 0.5, 2)
        forged = json.loads(json.dumps(report))
        forged["agreement"]["verify"] = "trust-me"
        assert validate_flow_report(forged)
        forged["agreement"]["verify"] = "karp"  # karp tier without a value
        assert validate_flow_report(forged)
        del forged["agreement"]["verify"]
        assert validate_flow_report(forged)
