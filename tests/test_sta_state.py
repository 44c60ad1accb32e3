"""One STA slack state: the design's version counter, its input boundary,
and the analyzer as a read facade over a zero-edit ECO session.

* Every write that can move a slack row bumps ``Design.version`` (field
  assignment and in-place padding / wire-override writes), and the same
  hook rejects non-finite or negative lengths, naming the field.
* An :class:`ECOSession` whose design is mutated out of band raises at
  the next query instead of serving stale slack.
* :class:`STAAnalyzer` answers bit-identically to the full-pass oracles
  (``analyze_slack`` and the module-level ``minimum_feasible_period``)
  over seeded random designs and every workload, with one cold gather
  per design version.
"""

import contextlib
import gc
import io
import json
import sys
import weakref

import pytest

import repro.sta.slack as slack_module
from repro.cli import main
from repro.delay.wire import LinearWireModel
from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import WORKLOADS, design_for_workload, random_design
from repro.sta.drc import run_drc
from repro.sta.eco import ECOSession
from repro.sta.slack import _bisect_period, analyze_slack, minimum_feasible_period

ARRAYS = (
    "lag", "sigma_ub", "sigma_lb", "offset_lead",
    "setup_exact", "hold_exact", "setup_bound", "hold_bound",
)
NAN = float("nan")


def make_design():
    return design_for_workload("fir", size=5, scheme="serpentine", seed=0)


@contextlib.contextmanager
def counted_gathers():
    """Count calls of the one cold-gather function, ``_edge_vectors``."""
    calls = [0]
    original = slack_module._edge_vectors.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is original:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


# ----------------------------------------------------------------------
# the version counter
# ----------------------------------------------------------------------
def test_every_slack_input_write_bumps_version():
    design = make_design()
    edge = design.edges()[0]
    writes = (
        lambda: setattr(design, "delta", design.delta + 0.5),
        lambda: setattr(design, "wire_model", LinearWireModel(m=2e-12)),
        lambda: design.edge_padding.__setitem__(edge, 0.25),
        lambda: design.edge_padding.pop(edge),
        lambda: design.wire_overrides.__setitem__(edge, 3.0),
        lambda: design.wire_overrides.update({edge: 4.0}),
        lambda: design.wire_overrides.clear(),
        lambda: setattr(design, "edge_padding", {}),
    )
    for write in writes:
        before = design.version
        write()
        assert design.version > before


def test_with_period_copies_the_maps():
    design = make_design()
    edge = design.edges()[0]
    twin = design.with_period(design.period * 2.0)
    before = design.version
    twin.edge_padding[edge] = 0.5
    assert design.version == before
    assert edge not in design.edge_padding or design.edge_padding[edge] != 0.5


def test_design_is_not_in_a_reference_cycle():
    # Freed by reference counting alone: large designs must not wait for
    # the cyclic collector.
    design = make_design()
    ref = weakref.ref(design)
    gc.disable()
    try:
        del design
        assert ref() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the input boundary
# ----------------------------------------------------------------------
def test_facade_rejects_nan_delta():
    with pytest.raises(ValueError, match="delta"):
        design_for_workload("fir", size=4, seed=1, delta=NAN)


def test_delta_assignment_rejects_nan():
    design = make_design()
    with pytest.raises(ValueError, match="delta"):
        design.delta = NAN
    assert design.delta == 1.0


def test_nan_padding_entry_rejected():
    design = make_design()
    edge = design.edges()[0]
    with pytest.raises(ValueError, match="edge_padding"):
        design.edge_padding[edge] = NAN
    with pytest.raises(ValueError, match="edge_padding"):
        design.edge_padding = {edge: NAN}


@pytest.mark.parametrize("value", [float("inf"), -1.0])
def test_bad_wire_override_rejected(value):
    design = make_design()
    with pytest.raises(ValueError, match="wire_overrides"):
        design.wire_overrides[design.edges()[0]] = value


@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_bisection_rejects_non_finite_need(value):
    with pytest.raises(ValueError, match="not finite"):
        _bisect_period(value)


@pytest.mark.parametrize("op", ["repad_edge", "retarget_wire"])
def test_session_rejects_nan_lengths(op):
    session = ECOSession(make_design())
    with pytest.raises(ValueError, match="finite"):
        getattr(session, op)(session.design.edges()[0], NAN)


# ----------------------------------------------------------------------
# the out-of-band hole
# ----------------------------------------------------------------------
def _pad_entry(design):
    edge = design.edges()[0]
    design.edge_padding[edge] = design.edge_padding.get(edge, 0.0) + 5.0


def _delta(design):
    design.delta = design.delta + 1.0


def _wire_override(design):
    design.wire_overrides[design.edges()[0]] = 25.0


def _wire_model(design):
    design.wire_model = LinearWireModel(m=0.5)


@pytest.mark.parametrize(
    "mutate", [_pad_entry, _delta, _wire_override, _wire_model],
    ids=["padding", "delta", "wire_override", "wire_model"],
)
def test_out_of_band_design_write_raises(mutate):
    session = ECOSession(make_design())
    session.summary()
    mutate(session.design)
    with pytest.raises(RuntimeError, match="mutated outside"):
        session.worst_hold_slack()
    with pytest.raises(RuntimeError, match="mutated outside"):
        session.summary()


# ----------------------------------------------------------------------
# the analyzer is a facade over the session
# ----------------------------------------------------------------------
def _no_timestamp(report):
    out = report.to_dict(edges=True)
    out["meta"].pop("emitted_at")
    out.pop("eco", None)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_session_and_analyzer_reports_agree(workload):
    design = design_for_workload(workload, size=5, seed=2)
    eco = _no_timestamp(ECOSession(design).report())
    full = _no_timestamp(STAAnalyzer(design).report())
    assert eco == full
    assert full["empirical"]["tree_version"] == design.buffered.version


def _assert_matches_oracles(design):
    analyzer = STAAnalyzer(design)
    ours = analyzer.slack()
    theirs = analyze_slack(design)
    assert ours.edges == theirs.edges
    for name in ARRAYS:
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), name
    for mode in ("exact", "bound"):
        assert analyzer.minimum_feasible_period(mode) == minimum_feasible_period(
            design, mode
        )


@pytest.mark.parametrize("seed", range(24))
def test_analyzer_matches_full_pass_on_random_designs(seed):
    _assert_matches_oracles(random_design(seed))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("pad", [True, False])
def test_analyzer_matches_full_pass_on_every_workload(workload, pad):
    _assert_matches_oracles(
        design_for_workload(workload, size=6, seed=3, pad_races=pad)
    )


def test_analyzer_gathers_once_per_design_version():
    design = make_design()
    analyzer = STAAnalyzer(design)
    with counted_gathers() as calls:
        analyzer.report()
        analyzer.report()
        analyzer.minimum_feasible_period("bound")
        assert calls[0] == 1
        design.delta = design.delta + 0.25
        after = analyzer.slack()
        analyzer.report()
        assert calls[0] == 2
    assert after.lag.tobytes() == analyze_slack(design).lag.tobytes()


def test_analyzer_drc_and_report_follow_resample():
    """DRC reads the buffered realization (A5/A11 tau, A7, A8), so a
    resample must drop the DRC memo too, not only the empirical block —
    while the session, whose slack vectors it does not touch, is kept."""
    design = design_for_workload("fir", size=5, seed=4)
    analyzer = STAAnalyzer(design)
    before = analyzer.drc()
    analyzer.report()
    with counted_gathers() as calls:
        design.buffered.resample(12345)
        drc = analyzer.drc()
        report = _no_timestamp(analyzer.report())
    assert calls[0] == 0
    assert drc != before
    assert drc == run_drc(design, analyze_slack(design))
    assert report == _no_timestamp(STAAnalyzer(design).report())
    assert report["empirical"]["tree_version"] == design.buffered.version


def test_sta_run_makes_at_most_three_cold_gathers():
    with counted_gathers() as calls, contextlib.redirect_stdout(io.StringIO()):
        code = main(["sta", "--workload", "matmul", "--size", "6"])
    assert code == 0
    assert calls[0] <= 3


# ----------------------------------------------------------------------
# compact artifacts
# ----------------------------------------------------------------------
def test_json_artifact_is_compact(tmp_path):
    out = tmp_path / "edges.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sta", "--workload", "fir", "--size", "5", "--edges",
                     "--json", str(out)])
    assert code == 0
    text = out.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    (report,) = payload
    assert len(report["edges"]["lag"]) == report["counts"]["edges"]
