"""Tests of the benchmark itself: percentiles, span self time, wrappers,
tiny-size smoke runs of every workload's op and check, and error counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_p90_of_100_samples_has_10_beyond():
    value, beyond = stats.percentile(list(range(100)), 90)
    assert (value, beyond) == (89, 10)


@pytest.mark.parametrize("n", [100, 101, 137, 1000, 5000])
def test_p90_keeps_at_least_10_samples_beyond(n):
    value, beyond = stats.percentile(list(range(n)), 90)
    assert beyond >= 10
    assert sum(1 for x in range(n) if x > value) == beyond


def test_fewer_than_100_samples_leave_fewer_than_10_beyond_p90():
    assert stats.percentile(list(range(99)), 90)[1] == 9
    assert stats.ops_needed(90) == 100
    assert run.MIN_OPS >= stats.ops_needed(90)


def test_percentile_is_order_free_and_rejects_empty():
    assert stats.percentile([5.0, 1.0, 3.0], 50) == (3.0, 1)
    with pytest.raises(ValueError):
        stats.percentile([], 90)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def _calibration(starts, samples):
    cal = calibrate.Calibration()
    cal.starts, cal.samples, cal.total = list(starts), list(samples), sum(samples)
    return cal


def test_scale_maps_mean_kernel_time_to_the_reference():
    ref = calibrate.REFERENCE_S
    cal = _calibration([0.0, 1.0], [ref / 2, ref * 3 / 2])
    assert cal.scale() == pytest.approx(1.0)
    assert _calibration([0.0], [2 * ref]).scale() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate.Calibration().scale()


def test_scaler_uses_only_nearby_kernels_and_falls_back_to_all():
    ref, w = calibrate.REFERENCE_S, calibrate.WINDOW_S
    cal = _calibration([0.0, 10.0], [2 * ref, ref / 2])  # slow, then fast
    scale = cal.scaler()
    assert scale(0.1, 0.2) == pytest.approx(0.5)
    assert scale(10.0 - w / 2, 10.0 - w / 4) == pytest.approx(2.0)
    assert scale(5.0, 5.1) == pytest.approx(cal.scale())  # no kernel near


def test_rescaled_scales_each_unit_by_its_own_window():
    ref = calibrate.REFERENCE_S
    meter = workloads.Meter(1.0, 1, 2.0, calibration=_calibration([0.0, 10.0], [2 * ref, ref]))
    meter.units = [(0.0, 0.4), (5.0, 0.1), (10.0, 0.2)]  # op, session, op
    meter.op_units = [0, 2]
    latencies, wall = meter.rescaled()
    assert latencies == pytest.approx([0.2, 0.2])
    assert wall == pytest.approx(0.2 + 0.1 * 2 / 3 + 0.2)  # no kernel near 5.0
    with pytest.raises(ValueError):
        workloads.Meter(1.0, 1, 2.0).rescaled()


def test_calibrated_meter_keeps_kernel_time_at_its_share(tmp_path):
    cal = calibrate.Calibration()
    wl = TINY["sim-compare"]()
    meter = workloads.Meter(0.0, 3, 60.0, calibration=cal)
    wl.run(meter, wl.setup(seed=3, count=8), 3, str(tmp_path))
    assert meter.failed == 0 and meter.attempted == 3
    assert cal.total >= workloads.CALIBRATION_SHARE * meter.wall
    assert len(meter.units) == len(meter.op_units) == 3
    latencies, _ = meter.rescaled()
    assert all(t > 0 for t in latencies)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    S = tracing.Span
    spans = [
        S("op", 0.0, 10.0, -1, 0),
        S("a", 1.0, 6.0, 0, 0),   # 5 s, of which b covers 2
        S("b", 2.0, 4.0, 1, 0),
        S("c", 7.0, 9.0, 0, 0),   # 2 s, of which a nested a covers 0.5
        S("a", 7.5, 8.0, 3, 0),
    ]
    (unit,) = tracing.unit_breakdown(spans)
    assert unit.wall == 10.0
    assert unit.self_s == {"a": 3.5, "b": 2.0, "c": 1.5}
    assert unit.calls == {"a": 2, "b": 1, "c": 1}
    assert unit.top_level_s == 7.0
    assert unit.glue_s == 3.0
    assert sum(unit.self_s.values()) + unit.glue_s == unit.wall


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("pb_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Thing:
        def work(self):
            return mod.outer(1)

    class Sub(Thing):
        pass

    mod.inner, mod.outer, mod.Thing, mod.Sub = inner, outer, Thing, Sub
    monkeypatch.setitem(sys.modules, "pb_fake", mod)
    return mod


def test_wrappers_record_nested_spans_and_uninstall(fake_module):
    originals = (fake_module.inner, fake_module.outer, fake_module.Thing.__dict__["work"])
    recorder = tracing.Recorder()
    installed = tracing.install(recorder, [
        tracing.Layer("outer", ("pb_fake:outer",)),
        tracing.Layer("inner", ("pb_fake:inner",), lambda r: [("inner.value", r)]),
        tracing.Layer("work", ("pb_fake:Thing.work",)),
        tracing.Layer("sub", ("pb_fake:Sub.work",)),  # inherited
        tracing.Layer("gone", ("pb_fake:missing", "pb_no_such_module:f", "pb_fake:Thing.nope")),
    ])
    assert installed.absent_layers == ["gone"]
    assert len(installed.absent_targets) == 3
    assert fake_module.Thing().work() == 4  # outside a unit: passes through
    assert recorder.spans == []
    with recorder.unit(7, "op"):
        assert fake_module.Thing().work() == 4
    assert [s.name for s in recorder.spans] == ["op", "work", "outer", "inner"]
    assert [s.parent for s in recorder.spans] == [-1, 0, 1, 2]
    assert {s.unit for s in recorder.spans} == {7}
    assert recorder.counts == {(7, "inner.value"): 2.0}
    (unit,) = tracing.unit_breakdown(recorder.spans)
    assert unit.calls == {"work": 1, "outer": 1, "inner": 1}
    assert abs(sum(unit.self_s.values()) + unit.glue_s - unit.wall) < 1e-12
    installed.uninstall()
    assert (fake_module.inner, fake_module.outer, fake_module.Thing.__dict__["work"]) == originals
    assert "work" not in vars(fake_module.Sub)


def test_every_layer_target_resolves_at_this_commit():
    recorder = tracing.Recorder()
    installed = tracing.install(recorder, layers.LAYERS)
    try:
        assert installed.absent_targets == []
    finally:
        installed.uninstall()


def test_per_layer_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.per_layer_metrics()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.registry())


# ----------------------------------------------------------------------
# workloads at tiny sizes
# ----------------------------------------------------------------------
TINY = {
    "sta-signoff": lambda: workloads.StaSignoff(size=4),
    "eco-edit": lambda: workloads.EcoEdit(size=4, edits=40),
    "flow-selftimed": lambda: workloads.FlowSelftimed(size=4),
    "sim-compare": lambda: workloads.SimCompare(size=8),
}


def _run_tiny(name, tmp_path, recorder=None, ops=4):
    wl = TINY[name]()
    wl.sample_every = 1  # every op also runs the off-clock oracle
    meter = workloads.Meter(0.0, ops, 60.0, recorder=recorder)
    wl.run(meter, wl.setup(seed=3, count=64), 3, str(tmp_path))
    return meter


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_op_and_check_pass(name, tmp_path):
    meter = _run_tiny(name, tmp_path)
    assert meter.failures == []
    assert meter.failed == 0
    assert meter.attempted >= 4
    assert len(meter.artifact_bytes) == meter.attempted
    assert min(meter.artifact_bytes) > 0


def test_inputs_come_only_from_the_seed():
    wl = workloads.EcoEdit(size=4, edits=40)
    assert wl.setup(5, count=8) == wl.setup(5, count=8)
    assert wl.setup(5, count=8) != wl.setup(6, count=8)
    assert wl.script(11) == wl.script(11)
    kinds = [k for k, _, _ in wl.script(11)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "repad_edge": 13, "retarget_wire": 13, "resize_buffer": 4, "set_period": 10}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_tiny_run_accounts_for_every_op(name, tmp_path):
    recorder = tracing.Recorder()
    installed = tracing.install(recorder, layers.LAYERS)
    try:
        meter = _run_tiny(name, tmp_path, recorder=recorder, ops=2)
    finally:
        installed.uninstall()
    assert meter.failed == 0
    units = tracing.unit_breakdown(recorder.spans)
    assert sum(1 for u in units if u.kind == "op") == meter.attempted
    for u in units:
        assert u.top_level_s > 0.0
        assert abs(sum(u.self_s.values()) + u.glue_s - u.wall) <= 1e-9


def test_wrong_sorter_output_counts_as_error(monkeypatch, tmp_path):
    from repro.sim import hybrid_exec

    real = hybrid_exec.execute_program_hybrid

    def reversed_output(program, *args, **kwargs):
        out = real(program, *args, **kwargs)
        out.result = list(reversed(out.result))
        return out

    monkeypatch.setattr(hybrid_exec, "execute_program_hybrid", reversed_output)
    meter = _run_tiny("sim-compare", tmp_path)
    assert meter.failed == meter.attempted >= 4
    assert "hybrid output differs" in meter.failures[0]


@pytest.mark.parametrize("code, why", [(1, "exited 1"), (0, "check raised FileNotFoundError")])
def test_bad_exit_or_missing_artifact_counts_as_error(monkeypatch, tmp_path, code, why):
    from repro import cli

    monkeypatch.setattr(cli, "cmd_sta", lambda args: code)  # writes no artifact
    meter = _run_tiny("sta-signoff", tmp_path)
    assert meter.failed == meter.attempted >= 4
    assert why in meter.failures[0]


def test_eco_summary_drift_counts_as_error(monkeypatch, tmp_path):
    from repro.sta import eco

    real = eco.ECOSession.summary

    def drifted(self):
        out = real(self)
        out["worst_setup_slack"] += 1e-9
        return out

    monkeypatch.setattr(eco.ECOSession, "summary", drifted)
    meter = _run_tiny("eco-edit", tmp_path, ops=1)
    assert meter.failed == 1
    assert "fresh STAAnalyzer" in meter.failures[0]


def test_traced_measurement_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = TINY["flow-selftimed"]()
    record, meters = run.measure_traced(wl, 1, 1.0)
    names = [n for n, _ in layers.per_layer_metrics()]
    assert sorted(record["metrics"]) == sorted(names)
    assert record["metrics"]["sta.flowreport.build.calls"] == 1.0
    assert 0.0 < record["metrics"]["span_coverage"] <= 1.0
    assert record["extra"]["absent_layers"] == []
    assert sum(m.failed for m in meters) == 0
    assert (tmp_path / f"spans-{wl.name}-1.json").is_file()


def test_exits_nonzero_without_the_sources(tmp_path):
    """Outside a checkout (only BENCHMARK.json and the benchmark files)
    the command fails fast and prints no result line."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sta-signoff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
