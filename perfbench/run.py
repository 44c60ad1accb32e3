#!/usr/bin/env python3
"""End-to-end benchmark of the repro toolkit, run from the repository root.

    python3 perfbench/run.py --workload sta-signoff --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation; its
times are rescaled to a reference host by an interleaved calibration
kernel (perfbench/calibrate.py), and the raw times are printed as well.
``--trace 1`` runs half the time untraced and half with every layer's
entry points wrapped, and reports per-layer self times, counts, glue time
and the tracing overhead.  ``--workload all`` runs every workload, each in
its own process.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any op failed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One caller, one op at a time: no BLAS thread pools.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

# The benchmark's own modules; none of them imports repro.
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics: name -> unit.  ``error_rate`` is printed but not in
#: the JSON metrics: it reads 0 on a correct run, and the result line
#: already carries ``failed`` / ``attempted``.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MiB",
    "artifact_bytes_per_op": "bytes",
}
SETUP_PROBES = 7
SETUP_CALIBRATION_KERNELS = 10
MIN_OPS = stats.ops_needed(90)  # 100: p90 then has 10 samples beyond it
TRACE_MIN_OPS = 20
# Timed wall may stretch to this many times --seconds to reach MIN_OPS,
# and no further, so a slow machine still ends in time.
MAX_WALL_FACTOR = 1.5


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the full result record here")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: interpreter start, imports and
    input generation, up to the point the first op could start.  The child
    stamps the system-wide monotonic clock when ready."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def measure_setup(workload: str, seed: int) -> Tuple[float, float, List[float]]:
    """Median set-up time of ``SETUP_PROBES`` fresh processes, raw and in
    reference-host seconds, and the raw samples.  Kernels run between the
    probes; their pooled mean scales the median, since a probe is too long
    for the kernels next to it to say how fast the host ran during it."""
    calibration = Calibration()
    samples = []
    for _ in range(SETUP_PROBES):
        calibration.sample(SETUP_CALIBRATION_KERNELS)
        samples.append(probe_setup(workload, seed))
    calibration.sample(SETUP_CALIBRATION_KERNELS)
    raw = statistics.median(samples)
    return raw, raw * calibration.scale(), samples


def kinds_near(
    latencies: List[float], kinds: List[str], p: float, width: float = 2.5
) -> Dict[str, int]:
    """Op kinds whose latency ranks within ``width`` percent of the
    ``p``-th percentile: a percentile on a boundary between kinds shows
    two kinds here, and moves when the mix does."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    lo = int((p - width) / 100 * len(order))
    hi = int((p + width) / 100 * len(order))
    near = [kinds[i] for i in order[lo:hi]]
    return {k: near.count(k) for k in sorted(set(near))}


def measure(wl: Any, seed: int, seconds: float) -> Tuple[Dict[str, Any], Any]:
    """The untraced run: end-to-end metrics, in reference-host seconds."""
    seeds = wl.setup(seed)  # also compiles every module the probes import
    raw_setup, setup, setup_samples = measure_setup(wl.name, seed)
    calibration = Calibration()
    meter = workloads.Meter(seconds, MIN_OPS, MAX_WALL_FACTOR * seconds,
                            calibration=calibration)
    wl.run(meter, seeds, seed, str(OUT))
    latencies, wall = meter.rescaled()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90, beyond = stats.percentile(latencies, 90)
    metrics = {
        "setup_s": setup,
        "ops_per_s": meter.attempted / wall,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mb": rss_kib / 1024.0,
        "artifact_bytes_per_op": (
            statistics.fmean(meter.artifact_bytes) if meter.artifact_bytes else 0.0
        ),
    }
    extra = {
        "ops": meter.attempted,
        "p90_samples_beyond": beyond,
        "timed_wall_s": meter.wall,
        "time_scale": wall / meter.wall,
        "calibration_kernels": len(calibration.samples),
        "raw_setup_s": raw_setup,
        "raw_ops_per_s": meter.attempted / meter.wall,
        "raw_op_p50_s": statistics.median(meter.latencies),
        "raw_op_p90_s": stats.percentile(meter.latencies, 90)[0],
        "raw_setup_samples_s": setup_samples,
        "error_rate": meter.failed / max(1, meter.attempted),
        "op_kinds": {k: meter.kinds.count(k) for k in sorted(set(meter.kinds))},
        "kind_p50_s": {
            k: statistics.median(t for t, kk in zip(latencies, meter.kinds) if kk == k)
            for k in sorted(set(meter.kinds))
        },
        "kinds_near_p50": kinds_near(latencies, meter.kinds, 50),
        "kinds_near_p90": kinds_near(latencies, meter.kinds, 90),
    }
    return {"metrics": metrics, "extra": extra}, meter


def measure_traced(wl: Any, seed: int, seconds: float) -> Tuple[Dict[str, Any], List[Any]]:
    """The traced run: per-layer metrics.  The first half runs untraced,
    the second half replays the same inputs with the layers wrapped."""
    t0 = time.perf_counter()
    seeds = wl.setup(seed)
    import_s = time.perf_counter() - t0
    half = seconds / 2
    plain = workloads.Meter(half, TRACE_MIN_OPS, MAX_WALL_FACTOR * half)
    wl.run(plain, seeds, seed, str(OUT))

    recorder = tracing.Recorder()
    installed = tracing.install(recorder, layers.LAYERS)
    traced = workloads.Meter(half, TRACE_MIN_OPS, MAX_WALL_FACTOR * half, recorder=recorder)
    try:
        wl.run(traced, seeds, seed, str(OUT))
    finally:
        installed.uninstall()
    recorder.dump(str(OUT / f"spans-{wl.name}-{seed}.json"))

    units = tracing.unit_breakdown(recorder.spans)
    for u in units:  # self times plus glue must add up to each unit's wall
        total = sum(u.self_s.values()) + u.glue_s
        if abs(total - u.wall) > 1e-9 * max(1.0, u.wall):
            raise AssertionError(f"unit {u.unit}: self+glue {total!r} != wall {u.wall!r}")
    n = traced.attempted
    metrics: Dict[str, float] = {"repro.import_s": import_s}
    for layer in layers.LAYERS:
        metrics[layer.name + "_s"] = sum(u.self_s.get(layer.name, 0.0) for u in units) / n
        metrics[layer.name + ".calls"] = sum(u.calls.get(layer.name, 0) for u in units) / n
    for name in layers.COUNTS:
        metrics[name] = sum(v for (_, k), v in recorder.counts.items() if k == name) / n
    wall = sum(u.wall for u in units)
    top = sum(u.top_level_s for u in units)
    metrics["glue_s"] = (wall - top) / n
    metrics["span_coverage"] = top / wall
    metrics["trace_overhead_s"] = (
        statistics.median(traced.latencies) - statistics.median(plain.latencies)
    )
    extra = {
        "ops": n,
        "untraced_ops": plain.attempted,
        "units": len(units),
        "spans": len(recorder.spans),
        "absent_layers": installed.absent_layers,
        "absent_targets": installed.absent_targets,
        "error_rate": (plain.failed + traced.failed) / max(1, plain.attempted + n),
    }
    return {"metrics": metrics, "extra": extra}, [plain, traced]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args: argparse.Namespace, registry: Dict[str, Any]) -> int:
    wl = registry[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        record, meters = measure_traced(wl, args.seed, args.seconds)
        units = dict(layers.per_layer_metrics())
    else:
        record, meter = measure(wl, args.seed, args.seconds)
        meters = [meter]
        units = dict(END_TO_END)
    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    failures = [f for m in meters for f in m.failures]
    extra = record["extra"]

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, unit in units.items():
        print(f"  {name:32s} {_fmt(record['metrics'][name]):>14s} {unit}")
    print(f"  {'error_rate':32s} {_fmt(extra['error_rate']):>14s} ratio")
    for key, value in extra.items():
        if key != "error_rate":
            print(f"  # {key}: {value}")
    for reason in failures:
        print(f"  ! {reason}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                       "units": units, **record}, fh, indent=2, sort_keys=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace, registry: Dict[str, Any]) -> int:
    """Every workload in its own process, one after another."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    code = 0
    for name in registry:
        out = OUT / f"all-{name}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        with open(out, encoding="utf-8") as fh:
            records[name] = json.load(fh)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
    print(json.dumps(combined))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    registry = workloads.registry()
    if args.workload != "all" and args.workload not in registry:
        print(f"error: unknown workload {args.workload!r} (one of {sorted(registry)} or all)",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        registry[args.workload].setup(args.seed)
        print(repr(time.monotonic()))
        return 0
    if args.workload == "all":
        OUT.mkdir(exist_ok=True)
        return run_all(args, registry)
    return run_one(args, registry)


if __name__ == "__main__":
    sys.exit(main())
