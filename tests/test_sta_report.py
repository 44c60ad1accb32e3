"""The bounded STA report: counts from masks, ``worst``, per-edge columns.

The per-edge rows the report used to carry are now opt-in columns
(``to_dict(edges=True)``, ``repro sta --edges``).  These tests hold the
columns to the row format they replace, value for value:

* ``tests/data/sta_edge_rows.json`` holds the per-edge rows of the
  row-per-edge report (one dict per edge, before the columnar change) for
  every workload at size 4, seed 3, clean and overclocked (``--period 1.0
  --no-pad``), floats as ``float.hex``;
* :meth:`SlackAnalysis.rows` is the scalar oracle those rows were built
  from, and the vectorized counts, flag bitmask and ``worst`` must equal
  what it gives on randomized clean and stressed designs.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import schema
from repro.obs.schema import validate_sta_report
from repro.sta import ECOSession, STAAnalyzer, design_for_workload, random_design
from repro.sta.report import WORST_EDGES, render_report
from repro.sta.slack import FLAG_BITS, SIM_TOL

FIELDS = ("lag", "sigma_ub", "sigma_lb", "offset_lead", "setup_slack",
          "hold_slack", "setup_slack_bound", "hold_slack_bound")
GOLDEN = Path(__file__).parent / "data" / "sta_edge_rows.json"


def _cli_reports(tmp_path, *flags):
    out = tmp_path / "sta.json"
    code = main(["sta", "--workload", "all", "--size", "4", "--seed", "3",
                 "--edges", "--json", str(out), *flags])
    assert code in (0, 1)
    return {r["design"].split("-")[0]: r for r in json.loads(out.read_text())}


def _column_rows(cols):
    """The columns as the fixture's rows: [src, dst, *hex floats, flags]."""
    return [
        [cols["src"][i], cols["dst"][i],
         *[float(cols[f][i]).hex() for f in FIELDS],
         [flag for b, flag in enumerate(cols["flag_bits"])
          if cols["flags"][i] >> b & 1]]
        for i in range(len(cols["src"]))
    ]


def _oracle_rows(analysis):
    return [
        [str(r.edge[0]), str(r.edge[1]),
         *[getattr(r, f).hex() for f in FIELDS], list(r.flags)]
        for r in analysis.rows()
    ]


@pytest.mark.parametrize(
    "label, flags",
    [("clean", ()), ("overclocked", ("--period", "1.0", "--no-pad"))],
)
def test_edge_columns_equal_the_row_format_they_replace(tmp_path, label, flags):
    golden = json.loads(GOLDEN.read_text())
    reports = _cli_reports(tmp_path, *flags)
    assert len(reports) == 4
    for workload, report in reports.items():
        assert validate_sta_report(report) == []
        assert _column_rows(report["edges"]) == golden[f"{workload}/{label}"]


@pytest.mark.parametrize("workload", ["fir", "matvec", "sorter", "matmul"])
@pytest.mark.parametrize("size, seed", [(3, 0), (8, 1), (18, 5)])
def test_edge_columns_equal_the_scalar_rows(workload, size, seed):
    analyzer = STAAnalyzer(design_for_workload(workload, size=size, seed=seed))
    report = analyzer.report().to_dict(edges=True)
    assert validate_sta_report(report) == []
    assert len(report["edges"]["src"]) == report["counts"]["edges"]
    assert _column_rows(report["edges"]) == _oracle_rows(analyzer.slack())


def _expected_from_rows(rows):
    counts = {
        "stale": sum("stale" in r.flags for r in rows),
        "race": sum("race" in r.flags for r in rows),
        "stale_possible": sum("stale-possible" in r.flags for r in rows),
        "race_possible": sum("race-possible" in r.flags for r in rows),
        "race_floor": sum("race-floor" in r.flags for r in rows),
    }
    bits = [sum(1 << FLAG_BITS.index(f) for f in r.flags) for r in rows]
    order = sorted(
        range(len(rows)),
        key=lambda i: (min(rows[i].setup_slack, rows[i].hold_slack), i),
    )[:WORST_EDGES]
    worst = [
        {"edge": [str(rows[i].edge[0]), str(rows[i].edge[1])],
         **{f: getattr(rows[i], f) for f in FIELDS},
         "flags": list(rows[i].flags)}
        for i in order
    ]
    return counts, bits, worst


@given(seed=st.integers(min_value=0, max_value=10_000), clean=st.booleans())
@settings(max_examples=40, deadline=None)
def test_vectorized_classification_equals_the_scalar_rows(seed, clean):
    design = random_design(seed, clean=clean)
    analyzer = STAAnalyzer(design)
    analysis = analyzer.slack()
    rows = analysis.rows()
    counts, bits, worst = _expected_from_rows(rows)
    report = analyzer.report()
    assert {k: report.counts[k] for k in counts} == counts
    assert report.flagged == sum(1 for b in bits if b)
    assert report.robust == (
        report.passed
        and all(r.setup_slack_bound >= -SIM_TOL for r in rows)
        and all(r.hold_slack_bound > SIM_TOL for r in rows)
        and report.counts["drc_warn"] == 0
    )
    full = report.to_dict(edges=True)
    assert full["edges"]["flags"] == bits
    assert full["worst"] == worst
    assert validate_sta_report(full) == []
    session = ECOSession(design)
    assert {k: session.counts()[k] for k in counts} == counts
    assert session.robust_clean() == analysis.robust_clean


def test_default_artifact_is_bounded():
    report = STAAnalyzer(design_for_workload("matmul", size=32, seed=0)).report()
    payload = report.to_dict()
    assert "edges" not in payload
    assert report.counts["edges"] == 2048
    assert len(payload["worst"]) == WORST_EDGES
    assert len(json.dumps(payload, indent=2, sort_keys=True)) < 16_000
    keys = [min(r["setup_slack"], r["hold_slack"]) for r in payload["worst"]]
    assert keys == sorted(keys)


def test_contract_constants_match_the_producer():
    assert schema.STA_WORST_EDGES == WORST_EDGES
    assert schema.STA_FLAG_BITS == FLAG_BITS
    assert schema.STA_SLACK_TOL == SIM_TOL


@pytest.mark.parametrize("period", [float("nan"), float("inf")])
def test_non_finite_period_fails_a5_and_validation(period):
    design = design_for_workload("fir", size=8, seed=1, period=period)
    report = STAAnalyzer(design).report()
    a5 = next(r for r in report.drc if r["rule"] == "A5")
    assert a5["status"] == "fail"
    assert report.verdict == "violations" and not report.robust
    assert validate_sta_report(report.to_dict())
    assert validate_sta_report(report.to_dict(edges=True))


@pytest.fixture(scope="module")
def dirty_report():
    report = STAAnalyzer(random_design(9, clean=False)).report()
    assert report.counts["edges"] == 72 and report.flagged > WORST_EDGES
    return report


def _mutated(payload, mutate):
    payload = json.loads(json.dumps(payload))
    mutate(payload)
    return validate_sta_report(payload)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p["slack"].__setitem__("worst_hold_slack", math.inf),
         "$.slack.worst_hold_slack: non-finite"),
        (lambda p: p["worst"][3].__setitem__("lag", math.nan),
         "$.worst[3].lag: non-finite"),
        (lambda p: p["edges"]["sigma_ub"].__setitem__(5, math.nan),
         "$.edges.sigma_ub[5]: non-finite"),
        (lambda p: p["edges"]["lag"].pop(), "$.edges.lag: 71 values"),
        (lambda p: p["edges"]["hold_slack"].__setitem__(0, True),
         "$.edges.hold_slack: element of the wrong type"),
        (lambda p: p["edges"]["flags"].__setitem__(7, p["edges"]["flags"][7] ^ 16),
         "$.edges.flags[7]"),
        (lambda p: p["edges"].__setitem__("flag_bits", ["race", "stale"]),
         "$.edges.flag_bits"),
        (lambda p: p["counts"].__setitem__("race_floor", 1),
         "$.counts.race_floor: 1 != 0 flagged edges"),
        (lambda p: p["worst"].reverse(), "$.worst: rows not ascending"),
        (lambda p: p["worst"].pop(), "$.worst: 15 rows, expected 16"),
        (lambda p: p["worst"][0]["flags"].clear(), "$.worst[0].flags"),
        (lambda p: p["edges"]["dst"].__setitem__(0, "elsewhere"),
         "$.worst: differs from the worst edges of the columns"),
        (lambda p: p["edges"]["flags"].__setitem__(0, 32),
         "$.edges.flags: bitmask outside the flag bits"),
        (lambda p: p["edges"]["lag"].__setitem__(0, 10**400),
         "$.edges: int too large"),
    ],
    ids=["summary-inf", "worst-nan", "column-nan", "column-length",
         "column-bool", "flag-bits", "flag-order", "counts", "worst-order",
         "worst-length", "worst-flags", "worst-vs-columns", "flags-range",
         "column-overflow"],
)
def test_validator_rejects_tampered_reports(dirty_report, mutate, message):
    payload = dirty_report.to_dict(edges=True)
    assert validate_sta_report(payload) == []
    errors = _mutated(payload, mutate)
    assert any(e.startswith(message) for e in errors), errors


def test_render_lists_flagged_worst_rows_and_says_how_many_are_left(dirty_report):
    text = render_report(dirty_report)
    listed = [e for e in dirty_report.worst if e["flags"]]
    assert 0 < len(listed) < dirty_report.flagged
    assert f"flagged edges ({dirty_report.flagged})" in text
    assert f"showing {len(listed)} of {dirty_report.flagged} flagged" in text
    for e in listed:
        assert f"{e['edge'][0]}->{e['edge'][1]}" in text


def test_render_has_no_remainder_line_when_every_flagged_edge_is_listed():
    report = STAAnalyzer(random_design(2, clean=False)).report()
    assert 0 < report.flagged <= WORST_EDGES
    text = render_report(report)
    assert f"flagged edges ({report.flagged})" in text
    assert "showing" not in text


def test_cli_edges_columns_have_one_value_per_edge(tmp_path):
    out = tmp_path / "sta.json"
    assert main(["sta", "--workload", "matmul", "--size", "6",
                 "--edges", "--json", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    n = report["counts"]["edges"]
    assert {len(v) for k, v in report["edges"].items() if k != "flag_bits"} == {n}
    assert np.isfinite(np.asarray(report["edges"]["lag"])).all()
