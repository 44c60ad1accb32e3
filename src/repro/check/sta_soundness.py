"""The ``sta-soundness`` oracle: static verdicts vs the clocked simulator.

The static analyzer (:mod:`repro.sta`) claims a *soundness contract*:

1. a ``clean`` verdict implies the clocked simulator runs violation-free
   (static-clean => simulated-clean), and
2. every simulator-observed violation edge has non-positive static slack
   (it appears in the analyzer's stale or race set).

This check enforces both directions on a fleet of randomized designs —
half certified-safe by construction, half deliberately stressed — plus
three cheap internal consistency claims along the way:

* the analyzer's per-edge lag arithmetic agrees *exactly* with the
  simulator's own (:meth:`ClockedArraySimulator.edge_lags`), so the two
  sides cannot drift apart silently;
* the monotone-bisection minimum feasible period matches the closed-form
  algebraic oracle;
* the emitted report is schema-valid
  (:data:`repro.obs.schema.STA_REPORT_SCHEMA` + cross-field rules), both
  the bounded default and the one with per-edge columns, whose validation
  recomputes the flags, counts and ``worst`` from the columns.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.check.registry import REGISTRY, CheckContext, require
from repro.obs.schema import validate_sta_report
from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import random_design
from repro.sta.slack import (
    minimum_feasible_period,
    minimum_feasible_period_closed_form,
)

#: Designs checked per suite; the issue's acceptance gate demands >= 50
#: in the quick suite.
QUICK_DESIGNS = 50
FULL_DESIGNS = 120


@REGISTRY.register(
    "sta-soundness",
    "differential",
    "static analyzer verdicts bracket the clocked simulator on randomized designs",
)
def check_sta_soundness(ctx: CheckContext) -> Dict[str, Any]:
    n_designs = FULL_DESIGNS if ctx.full else QUICK_DESIGNS
    base = ctx.rng("sta-soundness").randrange(1 << 30)
    n_clean = 0
    n_dirty = 0
    n_sim_violations = 0
    for i in range(n_designs):
        seed = base + i
        # Alternate certified-safe and stressed constructions so both
        # contract directions are exercised on every run.
        design = random_design(seed, clean=(i % 2 == 0))
        analyzer = STAAnalyzer(design)
        analysis = analyzer.slack()
        report = analyzer.report()

        schema_errors = validate_sta_report(report.to_dict())
        schema_errors += validate_sta_report(report.to_dict(edges=True))
        require(
            not schema_errors,
            f"design {design.name} (seed {seed}): report fails schema",
            errors=schema_errors[:5],
        )

        bisect = minimum_feasible_period(design, mode="exact")
        closed = minimum_feasible_period_closed_form(design, mode="exact")
        require(
            abs(bisect - closed) <= 1e-6 * max(1.0, closed),
            f"design {design.name} (seed {seed}): bisection disagrees with "
            "the closed-form minimum feasible period",
            bisect=bisect,
            closed_form=closed,
        )

        simulator = design.simulator()
        sim_lags = simulator.edge_lags()
        for edge in design.edges():
            require(
                sim_lags[edge] == design.edge_lag(edge),
                f"design {design.name} (seed {seed}): analyzer and simulator "
                f"disagree on the lag of edge {edge!r}",
                analyzer_lag=design.edge_lag(edge),
                simulator_lag=sim_lags[edge],
            )

        result = simulator.run()
        violated = {v.edge for v in result.violations}
        n_sim_violations += len(result.violations)

        if report.passed:
            n_clean += 1
            require(
                not violated,
                f"design {design.name} (seed {seed}): static verdict is "
                "clean but the simulator observed violations",
                violations=len(result.violations),
                edges=[str(e) for e in sorted(violated, key=str)[:5]],
            )
        else:
            n_dirty += 1

        flagged = set(analysis.stale_edges()) | set(analysis.race_edges())
        unexplained = violated - flagged
        require(
            not unexplained,
            f"design {design.name} (seed {seed}): simulator violations on "
            "edges the static analyzer left with positive slack",
            unexplained=[str(e) for e in sorted(unexplained, key=str)[:5]],
            flagged=len(flagged),
            violated=len(violated),
        )

    return {
        "designs": n_designs,
        "clean_verdicts": n_clean,
        "dirty_verdicts": n_dirty,
        "simulated_violations": n_sim_violations,
    }
