"""The STA report: one bounded, JSON-serializable verdict per design.

The shape is pinned by :data:`repro.obs.schema.STA_REPORT_SCHEMA` and
validated on every CLI emission; the verdict drives the exit code
(``clean`` -> 0, ``violations`` -> 1, analysis errors -> 2 — same contract
as ``python -m repro check``).

A design is ``clean`` when its exact-mode slack vector has no stale or
race edge *and* no design rule fails; bound-mode (worst-case-skew)
problems and DRC warnings leave the verdict clean but are counted and
listed so the caller can gate on robustness separately (``robust`` is the
stricter bit).

The default artifact is bounded whatever the design's size: the counts,
the slack summary, the DRC rows, the empirical block and ``worst``, the
:data:`WORST_EDGES` edges with the smallest ``min(setup, hold)`` exact
slack.  Per-edge data is opt-in (``to_dict(edges=True)``, ``repro sta
--edges``) and columnar: one list per field, with the flags packed into
one integer bitmask per edge in :data:`~repro.sta.slack.FLAG_BITS` order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import __version__
from repro.sta.design import Design
from repro.sta.drc import RuleResult, STATUS_FAIL, STATUS_WARN, drc_counts
from repro.sta.slack import FLAG_BITS, SlackAnalysis, decode_flags
from repro.tables import render_table

VERDICT_CLEAN = "clean"
VERDICT_VIOLATIONS = "violations"

#: Rows in a report's ``worst`` list: the edges with the smallest
#: ``min(setup_slack, hold_slack)``, ascending, ties by edge index.
WORST_EDGES = 16

#: Column name -> SlackAnalysis array, in the per-edge row order.
_FLOAT_COLUMNS = (
    ("lag", "lag"),
    ("sigma_ub", "sigma_ub"),
    ("sigma_lb", "sigma_lb"),
    ("offset_lead", "offset_lead"),
    ("setup_slack", "setup_exact"),
    ("hold_slack", "hold_exact"),
    ("setup_slack_bound", "setup_bound"),
    ("hold_slack_bound", "hold_bound"),
)


def _worst_order(analysis: SlackAnalysis) -> np.ndarray:
    """Indices of the :data:`WORST_EDGES` edges with the smallest
    ``min(setup, hold)`` exact slack, ascending, ties by edge index."""
    key = np.minimum(analysis.setup_exact, analysis.hold_exact)
    return np.argsort(key, kind="stable")[:WORST_EDGES]


def _edge_row(analysis: SlackAnalysis, i: int, bits: int) -> Dict[str, Any]:
    u, v = analysis.edges[i]
    row: Dict[str, Any] = {"edge": [str(u), str(v)]}
    for name, attr in _FLOAT_COLUMNS:
        row[name] = float(getattr(analysis, attr)[i])
    row["flags"] = list(decode_flags(bits))
    return row


@dataclass
class STAReport:
    """Everything the static pass concluded about one design."""

    design: str
    period: float
    verdict: str
    robust: bool
    counts: Dict[str, int]
    slack_summary: Dict[str, float]
    worst: List[Dict[str, Any]]
    drc: List[Dict[str, str]]
    #: The slack vectors behind the per-edge columns of ``to_dict(edges=True)``.
    analysis: SlackAnalysis = field(repr=False, compare=False)
    #: Edges carrying at least one flag (``worst`` lists at most
    #: :data:`WORST_EDGES` edges, flagged or not).
    flagged: int = 0
    empirical: Optional[Dict[str, Any]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Audit record of the ECO edit this report reflects (one report per
    #: edit-script step); absent for plain full-analysis reports.
    eco: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_CLEAN

    def _edge_columns(self) -> Dict[str, Any]:
        """Every edge's slack row as columns: ``src``, ``dst``, the eight
        float fields, and the ``flags`` bitmask (bit order ``flag_bits``)."""
        a = self.analysis
        out: Dict[str, Any] = {
            "flag_bits": list(FLAG_BITS),
            "src": [str(u) for u, _ in a.edges],
            "dst": [str(v) for _, v in a.edges],
        }
        for name, attr in _FLOAT_COLUMNS:
            out[name] = getattr(a, attr).tolist()
        out["flags"] = a.flags.bits().tolist()
        return out

    def to_dict(self, edges: bool = False) -> Dict[str, Any]:
        """The JSON artifact; ``edges=True`` adds the per-edge columns."""
        out: Dict[str, Any] = {
            "design": self.design,
            "period": self.period,
            "verdict": self.verdict,
            "robust": self.robust,
            "counts": dict(self.counts),
            "slack": dict(self.slack_summary),
            "worst": [dict(e) for e in self.worst],
            "drc": [dict(r) for r in self.drc],
            "empirical": dict(self.empirical) if self.empirical is not None else None,
            "meta": dict(self.meta),
        }
        if edges:
            out["edges"] = self._edge_columns()
        if self.eco is not None:
            out["eco"] = dict(self.eco)
        return out


def build_report(
    design: Design,
    analysis: SlackAnalysis,
    drc_results: List[RuleResult],
    min_feasible_exact: float,
    min_feasible_bound: float,
    empirical: Optional[Dict[str, Any]] = None,
) -> STAReport:
    """Assemble the report from the analysis pieces (pure; no I/O)."""
    flags = analysis.flags
    drc = drc_counts(drc_results)
    counts: Dict[str, int] = {"edges": len(analysis.edges)}
    counts.update(flags.counts())
    counts["drc_fail"] = drc[STATUS_FAIL]
    counts["drc_warn"] = drc[STATUS_WARN]
    timing_clean = counts["stale"] == 0 and counts["race"] == 0
    verdict = (
        VERDICT_CLEAN
        if timing_clean and counts["drc_fail"] == 0
        else VERDICT_VIOLATIONS
    )
    robust = verdict == VERDICT_CLEAN and flags.robust and counts["drc_warn"] == 0
    bits = flags.bits()
    return STAReport(
        design=design.name,
        period=design.period,
        verdict=verdict,
        robust=robust,
        counts=counts,
        slack_summary={
            "worst_setup_slack": analysis.worst_setup_slack,
            "worst_hold_slack": analysis.worst_hold_slack,
            "min_feasible_period_exact": min_feasible_exact,
            "min_feasible_period_bound": min_feasible_bound,
        },
        worst=[
            _edge_row(analysis, int(i), int(bits[i]))
            for i in _worst_order(analysis)
        ],
        drc=[
            {
                "rule": r.rule,
                "title": r.title,
                "status": r.status,
                "detail": r.detail,
            }
            for r in drc_results
        ],
        analysis=analysis,
        flagged=int(np.count_nonzero(bits)),
        empirical=empirical,
        meta={"emitted_at": time.time(), "repro_version": __version__},
    )


def render_report(report: STAReport, verbose: bool = False) -> str:
    """Plain-text rendering for the CLI: summary, DRC table, and (with
    ``verbose`` or on a dirty design) the flagged rows among ``worst``."""
    parts: List[str] = []
    s = report.slack_summary
    parts.append(
        render_table(
            ["design", "period", "verdict", "robust", "edges",
             "worst setup", "worst hold", "min T (exact)", "min T (bound)"],
            [[
                report.design,
                report.period,
                report.verdict,
                "yes" if report.robust else "no",
                report.counts["edges"],
                s["worst_setup_slack"],
                s["worst_hold_slack"],
                s["min_feasible_period_exact"],
                s["min_feasible_period_bound"],
            ]],
            title="static timing",
        )
    )
    parts.append(
        render_table(
            ["rule", "status", "title", "detail"],
            [[r["rule"], r["status"], r["title"], r["detail"]] for r in report.drc],
            title="design rules (A1-A11)",
        )
    )
    if report.flagged and (verbose or report.verdict != VERDICT_CLEAN):
        listed = [e for e in report.worst if e["flags"]]
        table = render_table(
            ["edge", "lag", "setup", "hold", "setup(b)", "hold(b)", "flags"],
            [[
                f"{e['edge'][0]}->{e['edge'][1]}",
                e["lag"],
                e["setup_slack"],
                e["hold_slack"],
                e["setup_slack_bound"],
                e["hold_slack_bound"],
                ",".join(e["flags"]),
            ] for e in listed],
            title=f"flagged edges ({report.flagged})",
        )
        if len(listed) < report.flagged:
            table += (
                f"\nshowing {len(listed)} of {report.flagged} flagged "
                f"(the flagged edges among the {WORST_EDGES} worst by "
                "min(setup, hold); --edges writes every edge)"
            )
        parts.append(table)
    if report.empirical is not None:
        emp = report.empirical
        parts.append(
            render_table(
                ["empirical max skew", "model sigma_ub max", "within model"],
                [[
                    emp["max_skew"],
                    emp["model_sigma_ub_max"],
                    "yes" if emp["within_model"] else "no",
                ]],
                title="buffered realization vs model",
            )
        )
    return "\n\n".join(parts)
