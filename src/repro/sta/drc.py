"""Design-rule conformance: the paper's assumptions A1-A11 as lint rules.

Each rule inspects the :class:`~repro.sta.design.Design` statically and
returns a :class:`RuleResult` with one of four statuses:

* ``pass`` — the rule was checked and holds;
* ``fail`` — the rule was checked and is violated (drives the CLI's exit
  code, together with exact-mode slack violations);
* ``warn`` — the rule holds for the concrete schedule but not at the skew
  model's worst case (or is otherwise marginal);
* ``skip`` — the rule does not apply to this design (no routed wires, no
  buffered realization, no ``s`` budget) or is an axiom the abstract model
  cannot falsify.

Structural rules (A1-A4, A6-A10) delegate to the executable audit in
:mod:`repro.core.assumptions`; the timing rules A5 (period covers
``sigma + delta + tau`` plus the discipline's setup window) and A11 (data
paths clear the skew floor — race immunity) are evaluated from the same
slack vectors the analyzer reports, so the DRC verdict and the slack
verdict can never disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import assumptions as A
from repro.core.models import DifferenceModel
from repro.sta.design import Design
from repro.sta.slack import SIM_TOL, SlackAnalysis, analyze_slack

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_WARN = "warn"
STATUS_SKIP = "skip"


@dataclass(frozen=True)
class RuleResult:
    """Outcome of one design rule."""

    rule: str
    title: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != STATUS_FAIL


def _from_assumption(rule: str, title: str, check: A.AssumptionCheck) -> RuleResult:
    if not check.checkable:
        return RuleResult(rule, title, STATUS_SKIP, check.detail)
    return RuleResult(
        rule, title, STATUS_PASS if check.holds else STATUS_FAIL, check.detail
    )


def _rule_a1(design: Design, slack: SlackAnalysis) -> RuleResult:
    return _from_assumption(
        "A1", "COMM laid out in the plane", A.check_a1_comm_graph(design.array)
    )


def _rule_a2(design: Design, slack: SlackAnalysis) -> RuleResult:
    return _from_assumption(
        "A2", "unit-area cells", A.check_a2_unit_area(design.array)
    )


def _rule_a3(design: Design, slack: SlackAnalysis) -> RuleResult:
    return _from_assumption(
        "A3",
        "rectilinear unit-width wires",
        A.check_a3_rectilinear_wires(design.array),
    )


def _rule_a4(design: Design, slack: SlackAnalysis) -> RuleResult:
    return _from_assumption(
        "A4",
        "CLK binary tree over all cells",
        A.check_a4_clock_tree(design.array, design.tree),
    )


def _rule_a5(design: Design, slack: SlackAnalysis) -> RuleResult:
    """Period covers sigma + delta + tau + t_setup (the A5 inequality).

    Failing against the *concrete* schedule means stale reads will happen
    (same condition as the slack verdict); meeting the schedule but not the
    skew model's worst case is a warning — the design is betting on this
    particular skew realization.  A non-finite period fails outright: no
    comparison against NaN or inf says anything about the clock.
    """
    if not math.isfinite(design.period):
        return RuleResult(
            "A5", "period >= sigma + delta + tau", STATUS_FAIL,
            f"period {design.period} is not finite",
        )
    tau = design.buffered.tau() if design.buffered is not None else 0.0
    sigma_ub = float(slack.sigma_ub.max()) if len(slack.edges) else 0.0
    model_need = design.discipline.min_period(sigma_ub, design.delta, tau)
    stale = int(slack.stale_mask.sum())
    detail = (
        f"period {design.period:.4g} vs model min_period {model_need:.4g} "
        f"(sigma_ub {sigma_ub:.4g}, delta {design.delta:.4g}, tau {tau:.4g})"
    )
    if stale:
        return RuleResult(
            "A5", "period >= sigma + delta + tau", STATUS_FAIL,
            f"{stale} edges read stale data at this schedule; {detail}",
        )
    if design.period < model_need - SIM_TOL:
        return RuleResult(
            "A5", "period >= sigma + delta + tau", STATUS_WARN,
            f"schedule-clean but below the model's worst case; {detail}",
        )
    return RuleResult("A5", "period >= sigma + delta + tau", STATUS_PASS, detail)


def _rule_a6(design: Design, slack: SlackAnalysis) -> RuleResult:
    return _from_assumption(
        "A6",
        "equipotential tau floor",
        A.check_a6_equipotential_floor(design.tree),
    )


def _rule_a7(design: Design, slack: SlackAnalysis) -> RuleResult:
    if design.buffered is None:
        return RuleResult(
            "A7", "pipelined tau constant", STATUS_SKIP,
            "no buffered realization attached",
        )
    return _from_assumption(
        "A7", "pipelined tau constant", A.check_a7_bounded_tau(design.buffered)
    )


def _rule_a8(design: Design, slack: SlackAnalysis) -> RuleResult:
    if design.buffered is None:
        return RuleResult(
            "A8", "time-invariant path delays", STATUS_SKIP,
            "no buffered realization attached",
        )
    return _from_assumption(
        "A8", "time-invariant path delays", A.check_a8_time_invariance(design.buffered)
    )


def _rule_a9(design: Design, slack: SlackAnalysis) -> RuleResult:
    """Equidistance readiness.  A hard requirement only when the skew model
    is a DifferenceModel pinned at f(0) (H-tree designs); otherwise the
    worst path difference is reported informationally."""
    check = A.check_a9_equidistance(
        design.array, design.tree, design.equidistance_tolerance
    )
    if isinstance(design.model, DifferenceModel):
        status = STATUS_PASS if check.holds else STATUS_FAIL
    else:
        status = STATUS_PASS if check.holds else STATUS_WARN
    return RuleResult("A9", "equidistant cells (d = 0)", status, check.detail)


def _rule_a10(design: Design, slack: SlackAnalysis) -> RuleResult:
    if design.s_budget is None:
        return RuleResult(
            "A10", "bounded communicating-pair s", STATUS_SKIP,
            "no s budget declared for this design",
        )
    return _from_assumption(
        "A10",
        "bounded communicating-pair s",
        A.check_a10_bounded_s(design.array, design.tree, design.s_budget),
    )


def _rule_a11(design: Design, slack: SlackAnalysis) -> RuleResult:
    """Race immunity: every data path clears the skew floor.

    Exact-mode hold violations are failures (the simulator *will* race).
    Edges that are safe at this schedule but whose lag does not clear the
    model's worst-case skew (``sigma_ub``), or sits under the ``beta*s``
    floor no tree tuning can remove, are warnings: the fix is padding.
    """
    races = int(slack.race_mask.sum())
    floor = int(slack.race_floor_mask.sum())
    possible = int(slack.flags.race_possible.sum())
    min_lag = float(slack.lag.min()) if len(slack.edges) else 0.0
    sigma_ub = float(slack.sigma_ub.max()) if len(slack.edges) else 0.0
    report = design.discipline.evaluate(
        sigma_ub,
        design.delta,
        design.buffered.tau() if design.buffered is not None else 0.0,
        min_lag,
    )
    detail = (
        f"min data lag {min_lag:.4g}; {report.detail}; "
        f"{floor} edges under the beta*s floor"
    )
    if races:
        return RuleResult(
            "A11", "race immunity (hold)", STATUS_FAIL,
            f"{races} edges race at this schedule; {detail}",
        )
    if possible or floor or not report.race_immune:
        return RuleResult(
            "A11", "race immunity (hold)", STATUS_WARN,
            f"{possible} edges racy at worst-case skew; {detail}",
        )
    return RuleResult("A11", "race immunity (hold)", STATUS_PASS, detail)


_RULES: Tuple[Callable[[Design, SlackAnalysis], RuleResult], ...] = (
    _rule_a1,
    _rule_a2,
    _rule_a3,
    _rule_a4,
    _rule_a5,
    _rule_a6,
    _rule_a7,
    _rule_a8,
    _rule_a9,
    _rule_a10,
    _rule_a11,
)


def run_drc(
    design: Design, slack: Optional[SlackAnalysis] = None
) -> List[RuleResult]:
    """Run every design rule; ``slack`` may be shared with the caller to
    avoid recomputing the vectors."""
    analysis = slack if slack is not None else analyze_slack(design)
    return [rule(design, analysis) for rule in _RULES]


def drc_failures(results: List[RuleResult]) -> List[RuleResult]:
    return [r for r in results if r.status == STATUS_FAIL]


def drc_counts(results: List[RuleResult]) -> Dict[str, int]:
    counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_WARN: 0, STATUS_SKIP: 0}
    for r in results:
        counts[r.status] += 1
    return counts
