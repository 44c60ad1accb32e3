"""The per-layer metrics of the traced run and the entry points they wrap.

Each layer's metric ``<name>_s`` is its self time per op and
``<name>.calls`` its calls per op.  A function imported by name into
another module is wrapped at every binding the workloads reach, so a
call is timed whichever module makes it.  Counts are read from results
at the layer boundary (``COUNTS``), summed per op.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from tracing import Layer


def _report_edges(report: Any) -> List[Tuple[str, float]]:
    return [("sta.slack.edges", report.counts["edges"])]


def _eco_edit(edit: Any) -> List[Tuple[str, float]]:
    return [("sta.eco.dirty_rows", edit.dirty_rows),
            ("sta.eco.reuse_fraction", edit.reuse_fraction)]


def _steady_waves(steady: Any) -> List[Tuple[str, float]]:
    return [("sta.flow.steady_waves", steady.waves_run)]


def _howard_iterations(report: Any) -> List[Tuple[str, float]]:
    mcm = report.get("mcm")
    return [("sta.flow.howard_iterations", mcm["iterations"] if mcm else 0)]


_ANALYZER = "repro.sta.analyzer:STAAnalyzer."
_ECO = "repro.sta.eco:ECOSession."

LAYERS: Tuple[Layer, ...] = (
    Layer("sta.design.build", ("repro.sta:design_for_workload",
                               "repro.sta.design:design_for_workload")),
    Layer("sta.slack.analyze", (_ANALYZER + "slack",)),
    Layer("sta.slack.period", (_ANALYZER + "minimum_feasible_period",)),
    Layer("sta.drc.run", (_ANALYZER + "drc",)),
    Layer("sta.analyzer.empirical", (_ANALYZER + "empirical",)),
    Layer("sta.analyzer.report", (_ANALYZER + "report",), _report_edges),
    Layer("sta.report.render", ("repro.sta.report:render_report",
                                "repro.sta:render_report")),
    Layer("obs.schema.validate", ("repro.obs.schema:validate_sta_report",
                                  "repro.obs.schema:validate_flow_report",
                                  "repro.sta.flowreport:validate_flow_report")),
    Layer("cli.serialize", ("json:dump",)),
    Layer("sta.eco.session", (_ECO + "__init__",)),
    Layer("sta.eco.edit", tuple(_ECO + m for m in (
        "repad_edge", "retarget_wire", "resize_buffer", "set_period")), _eco_edit),
    Layer("sta.eco.query", (_ECO + "summary",)),
    Layer("sta.eco.report", (_ECO + "report",)),
    Layer("sta.flow.analyze", ("repro.sta.flowreport:analyze_flow",
                               "repro.sta.flow:analyze_flow",
                               "repro.sta:analyze_flow")),
    Layer("sta.flow.karp", ("repro.sta.flowreport:mcm_karp",)),
    Layer("sta.flow.steady", ("repro.sta.flowreport:simulate_steady_state",), _steady_waves),
    Layer("sta.flowreport.build", ("repro.sta.flowreport:build_flow_report",),
          _howard_iterations),
    Layer("sim.compiled.recurrence", ("repro.sim.compiled:CompiledRecurrence.makespan",)),
    Layer("sim.clocked.run", ("repro.sim.clocked:ClockedArraySimulator.run",)),
    Layer("sim.dataflow.recurrence",
          ("repro.sim.dataflow:SelfTimedProgramSimulator.recurrence_makespan",)),
    Layer("sim.hybrid_exec.run", ("repro.sim.hybrid_exec:execute_program_hybrid",
                                  "repro.sim:execute_program_hybrid")),
    Layer("arrays.ideal.lockstep", ("repro.arrays.ideal:LockstepExecutor.run",)),
    Layer("sim.compiled.maxplus", ("repro.sim.compiled:CompiledMaxPlus.starts",)),
)

#: Counts taken from layer results: name -> unit.
COUNTS = {
    "sta.slack.edges": "count",
    "sta.eco.dirty_rows": "count",
    "sta.eco.reuse_fraction": "ratio",
    "sta.flow.howard_iterations": "count",
    "sta.flow.steady_waves": "count",
}


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order: the
    import time, each layer's self time and calls, the counts, then the
    glue, coverage and tracing-overhead values."""
    out = [("repro.import_s", "s")]
    for layer in LAYERS:
        out.append((layer.name + "_s", "s"))
        out.append((layer.name + ".calls", "count"))
    out.extend(COUNTS.items())
    out.extend([("glue_s", "s"), ("span_coverage", "ratio"), ("trace_overhead_s", "s")])
    return out
