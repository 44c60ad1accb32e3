"""The perf microbenchmark harness: timings, artifact shape, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.perf import (
    BENCH_HEADERS,
    GATE_CELLS,
    GATES,
    KernelTiming,
    _best_time,
    bench_montecarlo,
    bench_skew_kernels,
    gate_failures,
    run_perf_suite,
    speedup_by_kernel,
    write_bench_results,
)
from repro.cli import main
from repro.obs.schema import validate_benchmark_result
from repro.obs.trace import RecordingTracer


class TestKernelBenches:
    def test_skew_kernels_report_equivalent_results(self):
        results = bench_skew_kernels(side=4, repeats=1)
        kernels = {r.kernel for r in results}
        assert {"max_skew_bound", "max_skew_bound_cold",
                "max_skew_lower_bound", "buffered_max_skew"} <= kernels
        for r in results:
            assert r.size == 16
            assert r.items > 0
            assert r.baseline_s > 0 and r.optimized_s > 0
            assert r.max_abs_diff == 0.0

    def test_montecarlo_bench_is_deterministic(self):
        r = bench_montecarlo(trials=2, workers=2)
        assert r.max_abs_diff == 0.0
        assert r.size == 2 and r.items == 2

    def test_suite_emits_tracer_events(self):
        tracer = RecordingTracer()
        results = run_perf_suite(
            sides=(4,), repeats=1, include_montecarlo=False, tracer=tracer
        )
        events = tracer.by_kind("perf", "kernel")
        assert len(events) == len(results)
        assert events[0].data["kernel"] == results[0].kernel


class TestArtifact:
    def test_write_bench_results_is_schema_valid(self, tmp_path):
        results = bench_skew_kernels(side=4, repeats=1)
        out = tmp_path / "BENCH_perf.json"
        payload = write_bench_results(results, str(out), wall_s=0.5)
        assert validate_benchmark_result(payload) == []
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["headers"] == BENCH_HEADERS
        assert on_disk["meta"]["timing"]["wall_s"] == 0.5

    def test_speedup_by_kernel_takes_worst(self):
        rows = [
            KernelTiming("k", 16, 8, 1.0, 0.1, 0.0),
            KernelTiming("k", 64, 8, 1.0, 0.5, 0.0),
        ]
        payload = {
            "headers": BENCH_HEADERS,
            "rows": [r.row() for r in rows],
        }
        assert speedup_by_kernel(payload) == {"k": pytest.approx(2.0)}

    def test_invalid_payload_rejected_before_write(self, tmp_path):
        # A row narrower than the header violates the cross-field schema
        # invariant; nothing may reach the disk in that case.
        class Broken(KernelTiming):
            def row(self):
                return ["only-one-cell"]

        out = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            write_bench_results(
                [Broken("k", 16, 8, 1.0, 1.0, 0.0)], str(out)
            )
        assert not out.exists()

    def test_non_finite_payload_leaves_no_file(self, tmp_path):
        # json.dump would write a bare ``Infinity``, which is not JSON.
        out = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_bench_results(
                [KernelTiming("k", 16, 8, 1.0, 1.0, float("inf"))], str(out)
            )
        assert not out.exists()

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_best_time_rejects_fewer_than_one_repeat(self, repeats):
        with pytest.raises(ValueError, match="repeats"):
            _best_time(lambda: None, repeats)


def _gated_row(kernel, size, speedup, diff=0.0):
    """A synthetic BENCH row whose speedup column is exactly ``speedup``."""
    return KernelTiming(kernel, size, 1, speedup, 1.0, diff).row()


def _payload(rows, **meta):
    return {"headers": list(BENCH_HEADERS), "rows": rows, "meta": meta}


def _set(rows, kernel, size, speedup=None, diff=None):
    for row in rows:
        if row[0] == kernel and row[1] == size:
            if speedup is not None:
                row[BENCH_HEADERS.index("speedup")] = speedup
            if diff is not None:
                row[BENCH_HEADERS.index("max_abs_diff")] = diff
            return rows
    raise AssertionError(f"no {kernel} row at {size}")


def _small():
    """One exact row per gate at 1024 cells, at twice its any-size floor,
    plus an ungated kernel."""
    rows = [
        _gated_row(g.kernel + "4" if g.kernel.endswith("_") else g.kernel,
                   1024, 2.0 * g.floor)
        for g in GATES
    ]
    return rows + [_gated_row("engine_dispatch", 100_000, 1.5)]


def _large(drop=None):
    """One row at GATE_CELLS per ``floor_4096`` gate, at twice that floor."""
    return [
        _gated_row(g.kernel, GATE_CELLS, 2.0 * g.floor_4096)
        for g in GATES
        if g.floor_4096 is not None and g.kernel != drop
    ]


# (case, payload, expected failure lines — empty means the gate passes)
GATE_CASES = [
    ("all floors met", _payload(_small() + _large()), []),
    (
        "below an any-size floor",
        _payload(_set(_small(), "tile_stitch", 1024, speedup=19.0)),
        ["tile_stitch at 1024: 19.00x < 20x floor"],
    ),
    (
        "between the floors at 1024 cells",
        _payload(_set(_small(), "buffered_max_skew", 1024, speedup=3.0)),
        [],
    ),
    (
        "between the floors at 4096 cells",
        _payload(_small() + _set(_large(), "buffered_max_skew", 4096, speedup=3.0)),
        ["buffered_max_skew at 4096: 3.00x < 5x floor"],
    ),
    (
        "a near-miss diff is not exact",
        _payload(_set(_small(), "max_skew_bound", 1024, diff=1e-12)),
        ["max_skew_bound at 1024: max_abs_diff 1e-12 != 0.0"],
    ),
    (
        "exactness covers ungated kernels",
        _payload(_set(_small(), "engine_dispatch", 100_000, diff=1.0)),
        ["engine_dispatch at 100000: max_abs_diff 1.0 != 0.0"],
    ),
    (
        "a floored kernel is missing",
        _payload([r for r in _small() if r[0] != "eco_resize"]),
        ["eco_resize: no row"],
    ),
    (
        "a floor_4096 kernel has no large row",
        _payload(_small() + _large(drop="mcm_howard")),
        ["mcm_howard: no row at >= 4096 cells"],
    ),
    (
        "a NaN speedup",
        _payload(_set(_small(), "max_skew_bound_cold", 1024, speedup=float("nan"))),
        ["max_skew_bound_cold at 1024: nanx < 1x floor"],
    ),
    (
        "Monte-Carlo rows skipped by the run",
        _payload(
            [r for r in _small() if not r[0].startswith("montecarlo_")],
            skipped=["montecarlo_"],
        ),
        [],
    ),
    (
        "Monte-Carlo rows missing without a skip",
        _payload([r for r in _small() if not r[0].startswith("montecarlo_")]),
        ["montecarlo_workers_: no row", "montecarlo_cached: no row"],
    ),
]


class TestGate:
    @pytest.mark.parametrize(
        "payload,expected", [c[1:] for c in GATE_CASES], ids=[c[0] for c in GATE_CASES]
    )
    def test_gate_failures(self, payload, expected):
        assert gate_failures(payload) == expected

    def test_check_regression_script_exit_codes(self, tmp_path):
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "perf", "check_regression.py"
        )
        for name, payload, expected in GATE_CASES[:2]:
            path = tmp_path / "bench.json"
            path.write_text(json.dumps(payload))
            proc = subprocess.run(
                [sys.executable, script, str(path)], capture_output=True, text=True
            )
            assert proc.returncode == (1 if expected else 0), (name, proc.stdout)
            assert all(f"FAIL {line}" in proc.stdout for line in expected)


class TestCliBench:
    def test_bench_command_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        code = main([
            "bench", "--sides", "4", "--trials", "2", "--workers", "2",
            "--repeats", "1", "--no-montecarlo", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "max_skew_bound" in captured
        assert "schema-validated" in captured
        payload = json.loads(out.read_text())
        assert validate_benchmark_result(payload) == []
        assert payload["name"] == "BENCH_perf"
        assert payload["meta"]["skipped"] == ["montecarlo_"]

    @pytest.mark.parametrize(
        "flags",
        [["--repeats", "0"], ["--repeats", "-1"], ["--scale-sides", "0"]],
    )
    def test_bench_rejects_non_positive_counts(self, capsys, tmp_path, flags):
        out = tmp_path / "BENCH_perf.json"
        code = main([
            "bench", "--sides", "4", "--repeats", "1", "--no-montecarlo",
            "--out", str(out), *flags,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
