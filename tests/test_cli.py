"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_spine_on_linear(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--topology", "linear", "--size", "32")
        assert code == 0
        assert "spine on linear-32" in out
        assert "sigma (model bound)" in out

    def test_htree_on_mesh_difference(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--topology", "mesh", "--size", "4",
            "--scheme", "htree", "--model", "difference",
        )
        assert code == 0
        assert "difference model" in out

    def test_unknown_scheme_errors(self, capsys):
        code, _out, err = run_cli(capsys, "report", "--scheme", "bogus")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["report", "compare"])
    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_errors(self, capsys, command, delta):
        code, _out, err = run_cli(capsys, command, "--delta", delta)
        assert code == 2
        assert err.strip().splitlines() == [
            "error: clock parameters must be finite and non-negative"
        ]


class TestCompare:
    def test_linear_summation_ranks_spine_first(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--topology", "linear", "--size", "32",
            "--model", "summation",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        first_scheme_row = lines[2]
        assert first_scheme_row.strip().startswith("spine")

    def test_mesh_difference_ranks_htree_first(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--topology", "mesh", "--size", "4",
            "--model", "difference",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[2].strip().startswith("htree")


class TestSweep:
    def test_spine_classified_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--topology", "linear", "--scheme", "spine",
            "--sizes", "8,16,32,64",
        )
        assert code == 0
        assert "growth law: constant" in out

    def test_dissection_classified_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--topology", "linear", "--scheme", "dissection-1d",
            "--sizes", "8,16,32,64,128",
        )
        assert code == 0
        assert "growth law: linear" in out

    def test_two_sizes_skip_classification(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sizes", "8,16", "--topology", "linear"
        )
        assert code == 0
        assert "growth law" not in out


class TestLowerBound:
    def test_runs_certificates(self, capsys):
        code, out, _ = run_cli(capsys, "lower-bound", "--size", "8")
        assert code == 0
        assert "Section V-B proof" in out
        for scheme in ("htree", "serpentine", "kdtree"):
            assert scheme in out

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_errors(self, capsys, beta):
        code, _out, err = run_cli(capsys, "lower-bound", "--beta", beta)
        assert code == 2
        assert err.strip().splitlines() == [
            "error: beta must be finite and positive (A11)"
        ]


class TestInverter:
    def test_default_reproduces_68x(self, capsys):
        code, out, _ = run_cli(capsys, "inverter", "--chips", "2")
        assert code == 0
        assert "67.9" in out or "68" in out.replace("67.96", "68")

    def test_custom_length(self, capsys):
        code, out, _ = run_cli(capsys, "inverter", "--stages", "256", "--chips", "2")
        assert code == 0
        assert "n=256" in out

    @pytest.mark.parametrize("chips", ["0", "-2"])
    def test_no_chips_errors(self, capsys, chips):
        code, out, err = run_cli(capsys, "inverter", "--chips", chips)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: --chips must be >= 1, got {chips}"


class TestHybridAndSchemes:
    def test_hybrid_wins_at_scale(self, capsys):
        code, out, _ = run_cli(capsys, "hybrid", "--size", "16")
        assert code == 0
        assert "hybrid wins" in out
        assert "True" in out

    def test_schemes_listing(self, capsys):
        code, out, _ = run_cli(capsys, "schemes")
        assert code == 0
        for name in ("htree", "spine", "serpentine", "kdtree", "star", "comm-tree"):
            assert name in out

    def test_advise_linear(self, capsys):
        code, out, _ = run_cli(
            capsys, "advise", "--topology", "linear", "--size", "64"
        )
        assert code == 0
        assert "spine" in out
        assert "rationale" in out

    def test_advise_mesh_difference(self, capsys):
        code, out, _ = run_cli(
            capsys, "advise", "--topology", "mesh", "--size", "8",
            "--model", "difference",
        )
        assert code == 0
        assert "htree" in out


class TestObservabilityFlags:
    def test_default_run_prints_no_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "hybrid", "--size", "8")
        assert code == 0
        assert "metrics:" not in out
        assert "phases:" not in out

    def test_metrics_flag_appends_metrics_and_phases(self, capsys):
        code, out, _ = run_cli(capsys, "hybrid", "--size", "8", "--metrics")
        assert code == 0
        assert "metrics:" in out
        assert "hybrid.cycle_time" in out
        assert "hybrid.step_skew" in out
        assert "phases:" in out

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        code, out, _ = run_cli(capsys, "hybrid", "--size", "8", "--trace", path)
        assert code == 0
        from repro.obs.trace import load_trace

        events = load_trace(path)
        assert any(e.cat == "hybrid" and e.kind == "step" for e in events)
        assert events[0].cat == "cli" and events[0].data["command"] == "hybrid"

    def test_trace_output_identical_to_untraced(self, capsys, tmp_path):
        code, plain, _ = run_cli(capsys, "hybrid", "--size", "8")
        assert code == 0
        path = str(tmp_path / "run.jsonl")
        code, traced, _ = run_cli(capsys, "hybrid", "--size", "8", "--trace", path)
        assert code == 0
        assert traced == plain

    def test_inverter_trace_records_chips(self, capsys, tmp_path):
        path = str(tmp_path / "inv.jsonl")
        code, _out, _ = run_cli(
            capsys, "inverter", "--chips", "2", "--trace", path
        )
        assert code == 0
        from repro.obs.trace import load_trace

        chips = [e for e in load_trace(path) if e.kind == "chip"]
        assert len(chips) == 2
        assert all("speedup" in e.data for e in chips)


class TestTraceCommand:
    def test_replays_hybrid_trace(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        code, _out, _ = run_cli(capsys, "hybrid", "--size", "8", "--trace", path)
        assert code == 0
        code, out, _ = run_cli(capsys, "trace", path)
        assert code == 0
        assert "events by category:" in out
        assert "hybrid" in out
        assert "skew histogram" in out
        assert "violation timeline" in out
        assert "the run was clean" in out

    def test_violation_timeline_from_clocked_trace(self, capsys, tmp_path):
        from repro.clocktree.buffered import BufferedClockTree
        from repro.clocktree.spine import spine_clock
        from repro.arrays.systolic import build_fir_array
        from repro.delay.variation import NoVariation
        from repro.obs.trace import JsonlTracer
        from repro.sim.clock_distribution import ClockSchedule
        from repro.sim.clocked import ClockedArraySimulator
        from repro.sim.faults import JitteredSchedule

        program = build_fir_array([1.0, 2.0, -1.0], [3.0, 1.0, 4.0, 1.0, 5.0])
        buffered = BufferedClockTree(
            spine_clock(program.array, order=["snk", 2, 1, 0, "src"]),
            wire_variation=NoVariation(),
        )
        base = ClockSchedule.from_buffered_tree(
            buffered, 4.0, program.array.comm.nodes()
        )
        path = str(tmp_path / "a8.jsonl")
        with JsonlTracer(path) as tracer:
            result = ClockedArraySimulator(
                program, JitteredSchedule(base, 1.9, seed=7), delta=1.0,
                tracer=tracer,
            ).run()
        assert not result.clean
        code, out, _ = run_cli(capsys, "trace", path)
        assert code == 0
        assert "violation timeline" in out
        assert "stale" in out
        assert "the run was clean" not in out

    def test_missing_file_errors(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "trace", str(tmp_path / "absent.jsonl"))
        assert code == 2
        assert "error" in err

    def test_unwritable_trace_path_errors(self, capsys):
        code, _out, err = run_cli(
            capsys, "hybrid", "--size", "8", "--trace", "/nonexistent-dir/x.jsonl"
        )
        assert code == 2
        assert "error" in err


def _record_clocked_trace(path):
    from repro.obs.trace import JsonlTracer
    from repro.sta.design import random_design

    with JsonlTracer(path) as tracer:
        sim = random_design(0, clean=True).simulator(tracer=tracer)
        run = sim.run()
        sim.run_compiled()  # adds compiled-phase spans to the same trace
    return run


class TestCriticalPathCommand:
    def test_exact_chain_from_clocked_trace(self, capsys, tmp_path):
        path = str(tmp_path / "clocked.jsonl")
        run = _record_clocked_trace(path)
        code, out, _ = run_cli(capsys, "trace", path, "--critical-path")
        assert code == 0
        assert "(clocked engine)" in out
        assert f"makespan {run.makespan:.6g}" in out
        assert "exact" in out
        assert "blame" in out

    def test_non_causal_trace_errors(self, capsys, tmp_path):
        path = str(tmp_path / "hybrid.jsonl")
        code, _out, _ = run_cli(capsys, "hybrid", "--size", "8", "--trace", path)
        assert code == 0
        code, _out, err = run_cli(capsys, "trace", path, "--critical-path")
        assert code == 2
        assert "error" in err


class TestDashboardCommand:
    def test_text_dashboard(self, capsys, tmp_path):
        path = str(tmp_path / "clocked.jsonl")
        _record_clocked_trace(path)
        code, out, _ = run_cli(capsys, "dashboard", path)
        assert code == 0
        assert "events by category:" in out
        assert "span waterfall" in out
        assert "violation timeline" in out

    def test_html_dashboard(self, capsys, tmp_path):
        trace_path = str(tmp_path / "clocked.jsonl")
        _record_clocked_trace(trace_path)
        html_path = str(tmp_path / "dash.html")
        code, out, _ = run_cli(capsys, "dashboard", trace_path, "--html", html_path)
        assert code == 0
        assert "wrote" in out
        with open(html_path) as fh:
            html = fh.read()
        assert html.startswith("<!DOCTYPE html>")
        assert "Span waterfall" in html

    def test_missing_file_errors(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "dashboard", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert "error" in err


class TestMetricsExports:
    def test_metrics_print_on_diagnostic_exit(self, capsys):
        # A dirty design exits 1 (violations found) — exactly the run
        # worth inspecting, so the metrics table must still print.
        code, out, _ = run_cli(
            capsys, "sta", "--workload", "fir", "--size", "4", "--no-pad",
            "--metrics",
        )
        assert code == 1
        assert "metrics:" in out
        assert "sta.runs" in out

    def test_metrics_json_export(self, capsys, tmp_path):
        from repro.obs.schema import validate_metrics_snapshot
        import json

        path = str(tmp_path / "m.json")
        code, out, _ = run_cli(
            capsys, "hybrid", "--size", "8", "--metrics-json", path
        )
        assert code == 0
        assert "metrics:" not in out  # table only under --metrics
        with open(path) as fh:
            snapshot = json.load(fh)
        assert validate_metrics_snapshot(snapshot) == []
        assert "hybrid.steps" in snapshot["counters"]

    def test_metrics_prometheus_export(self, capsys, tmp_path):
        path = str(tmp_path / "m.prom")
        code, _out, _ = run_cli(
            capsys, "hybrid", "--size", "8", "--metrics-prom", path
        )
        assert code == 0
        with open(path) as fh:
            text = fh.read()
        assert "# TYPE repro_hybrid_steps counter" in text
        assert "repro_hybrid_steps_total" in text
