"""The schema-pinned flow report: one JSON document per flow query.

:func:`build_flow_report` runs the full static stack — deadlock verdict,
Howard MCM with critical-cycle blame, its verify tier, optionally the
dynamic steady-state cross-check and the buffer-sizing optimizer — and
packs the result in the :data:`repro.obs.schema.FLOW_REPORT_SCHEMA`
shape, self-validating before returning (an invalid report is a bug,
never an artifact).  ``python -m repro flow`` / ``python -m repro sta
--flow`` emit and render these.

The ``agreement`` block is the report's teeth.  On live designs it
records which tier verified Howard's cycle time (``verify``): ``"cert"``
when the exact O(E) :func:`~repro.sta.flow.certify_mcm` certificate
accepts it, otherwise ``"karp"`` with the O(V * E) Karp oracle's value
in ``karp_cycle_time`` (``null`` under ``"cert"``).  It also records the
simulated cycle time and the worst absolute difference, with ``exact``
true only at a bitwise zero — the same contract the ``differential-mcm``
oracle enforces in :mod:`repro.check`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.graphs.comm import CommGraph
from repro.obs.schema import validate_flow_report
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import CapacitySpec, _capacity_items, per_cell_service
from repro.sta.flow import (
    FlowAnalysis,
    ServiceSpec,
    _service_vector,
    analyze_flow,
    certify_mcm,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state,
)

__all__ = ["build_flow_report", "render_flow_report"]


def _capacity_label(comm: CommGraph, capacity: CapacitySpec) -> str:
    edges = comm.edges()
    items = _capacity_items(edges, capacity)
    depths = {d for _, d in items}
    if not items:
        return "unbounded"
    if len(items) == len(edges) and len(depths) == 1:
        return f"uniform:{depths.pop()}"
    return f"per-edge:{len(items)}"


def _mcm_block(analysis: FlowAnalysis) -> Optional[Dict[str, Any]]:
    cycle = analysis.cycle
    if cycle is None:
        return None
    blame = [
        {
            "label": label,
            "kind": kind,
            "seconds": seconds,
            # A credit hop's weight (s_dst - s_src) can be negative; the
            # blame share is its fraction of the cycle weight clipped to
            # the unit interval — a negative contribution blames zero.
            "share": min(1.0, max(0.0, share)),
        }
        for label, kind, seconds, share in cycle.path.blame()
    ]
    return {
        "cycle_time": cycle.cycle_time,
        # Zero cycle time: unbounded throughput, which JSON cannot hold.
        "throughput": cycle.throughput if cycle.cycle_time > 0 else None,
        "weight": cycle.weight,
        "tokens": int(cycle.tokens),
        "iterations": int(cycle.iterations),
        "critical_cycle": blame,
    }


def build_flow_report(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
    *,
    design_name: str = "design",
    simulate: bool = True,
    sizing_target: Optional[float] = None,
    max_waves: int = 100_000,
    max_period: int = 64,
) -> Dict[str, Any]:
    """Run the static flow stack and pack a schema-valid report.

    ``simulate=True`` (the default) adds the dynamic cross-check: the
    compiled recurrence runs to its periodic regime, its long-run rate
    lands in ``agreement.simulated_cycle_time``, and the closed-form
    :meth:`~repro.sta.flow.SteadyState.makespan_at` is checked bit-for-
    bit against the iterated makespan at two extrapolated horizons
    (``transient.makespan_max_err``).  ``sizing_target`` additionally
    runs :func:`~repro.sta.flow.minimal_buffer_sizing` toward that
    cycle time.
    """
    cells = comm.nodes()
    analysis = analyze_flow(comm, service, wire_delay, capacity)
    agreement: Optional[Dict[str, Any]] = None
    transient: Optional[Dict[str, Any]] = None
    if not analysis.dead and analysis.cycle is not None:
        howard = analysis.cycle.cycle_time
        diffs: List[float] = []
        karp: Optional[float] = None
        if certify_mcm(analysis.graph, analysis.cycle):
            verify = "cert"
        else:
            verify = "karp"
            karp = mcm_karp(analysis.graph)
            if karp is not None:
                diffs.append(abs(howard - karp))
        simulated: Optional[float] = None
        if simulate:
            steady = simulate_steady_state(
                comm,
                service,
                wire_delay,
                capacity,
                max_waves=max_waves,
                max_period=max_period,
            )
            simulated = steady.cycle_time
            diffs.append(abs(howard - simulated))
            c_lo, c_hi = steady.bounds()
            services = _service_vector(cells, service)
            svc = per_cell_service(
                {c: float(s) for c, s in zip(cells, services.tolist())}
            )
            compiled = CompiledRecurrence(comm)
            horizons = (steady.waves_run + 7, 2 * steady.waves_run + 3)
            max_err = 0.0
            for horizon in horizons:
                predicted = steady.makespan_at(horizon)
                iterated = compiled.makespan(
                    svc, wire_delay, horizon, capacity=capacity
                )
                max_err = max(max_err, abs(predicted - iterated))
            transient = {
                "period": int(steady.period),
                "waves_run": int(steady.waves_run),
                "c_lo": c_lo,
                "c_hi": c_hi,
                "makespan_checks": len(horizons),
                "makespan_max_err": max_err,
            }
        max_abs_diff = max(diffs, default=0.0)
        agreement = {
            "verify": verify,
            "karp_cycle_time": karp,
            "simulated_cycle_time": simulated,
            "max_abs_diff": max_abs_diff,
            "exact": max_abs_diff == 0.0,
        }
    sizing: Optional[Dict[str, Any]] = None
    if sizing_target is not None:
        result = minimal_buffer_sizing(
            comm, service, wire_delay, sizing_target
        )
        sizing = {
            "target": result.target,
            "cycle_time": result.cycle_time,
            "total_capacity": int(result.total_capacity),
            "mcm_calls": int(result.mcm_calls),
            "capacities": [
                [repr(u), repr(v), int(d)]
                for (u, v), d in result.capacities.items()
            ],
        }
    report: Dict[str, Any] = {
        "design": design_name,
        "cells": len(cells),
        "comm_edges": len(comm.edges()),
        "wire_delay": float(wire_delay),
        "capacity": _capacity_label(comm, capacity),
        "deadlock": {
            "dead": analysis.dead,
            "cycle": [
                [repr(u), repr(v)] for u, v in (analysis.deadlock or [])
            ],
        },
        "mcm": _mcm_block(analysis),
        "agreement": agreement,
        "transient": transient,
        "sizing": sizing,
        "meta": {
            "emitted_at": time.time(),
            "repro_version": __version__,
        },
    }
    errors = validate_flow_report(report)
    if errors:
        raise RuntimeError(
            "flow report failed its own schema: " + "; ".join(errors)
        )
    return report


def render_flow_report(report: Dict[str, Any]) -> str:
    """Human rendering of a flow report (the CLI's default output)."""
    lines = [
        f"flow report — {report['design']}",
        f"  cells={report['cells']} comm_edges={report['comm_edges']} "
        f"wire_delay={report['wire_delay']:g} "
        f"capacity={report['capacity']}",
    ]
    dead = report["deadlock"]
    if dead["dead"]:
        lines.append("  DEADLOCK: token-free cycle")
        for u, v in dead["cycle"]:
            lines.append(f"    {u} -> {v}")
        return "\n".join(lines)
    mcm = report["mcm"]
    if mcm is None:
        lines.append("  acyclic: no steady-state cycle")
        return "\n".join(lines)
    throughput = mcm["throughput"]
    tput_txt = "unbounded" if throughput is None else f"{throughput:g}"
    lines.append(
        f"  cycle time {mcm['cycle_time']:g}  throughput {tput_txt}  "
        f"(weight {mcm['weight']:g} / tokens "
        f"{mcm['tokens']}, {mcm['iterations']} Howard sweeps)"
    )
    lines.append("  critical cycle:")
    for step in mcm["critical_cycle"]:
        lines.append(
            f"    {step['share']:6.1%}  {step['kind']:8s} "
            f"{step['label']}  ({step['seconds']:g}s)"
        )
    agreement = report["agreement"]
    if agreement is not None:
        sim = agreement["simulated_cycle_time"]
        sim_txt = f"{sim:g}" if sim is not None else "skipped"
        karp = agreement["karp_cycle_time"]
        karp_txt = "" if karp is None else f" karp={karp:g}"
        lines.append(
            f"  agreement: verify={agreement['verify']}{karp_txt} "
            f"simulated={sim_txt} max_abs_diff="
            f"{agreement['max_abs_diff']:g} "
            f"{'EXACT' if agreement['exact'] else 'APPROX'}"
        )
    transient = report["transient"]
    if transient is not None:
        lines.append(
            f"  transient: period={transient['period']} over "
            f"{transient['waves_run']} waves, makespan in "
            f"[N*mcm{transient['c_lo']:+g}, N*mcm{transient['c_hi']:+g}], "
            f"{transient['makespan_checks']} closed-form checks "
            f"(max err {transient['makespan_max_err']:g})"
        )
    sizing = report["sizing"]
    if sizing is not None:
        lines.append(
            f"  sizing: target {sizing['target']:g} met at "
            f"{sizing['cycle_time']:g} with total capacity "
            f"{sizing['total_capacity']} ({sizing['mcm_calls']} MCM "
            "solves)"
        )
    return "\n".join(lines)
