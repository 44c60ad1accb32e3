#!/usr/bin/env python3
"""Append one entry to perfbench/ledger.json: the untraced end-to-end
metrics and the traced per-layer metrics of every workload at one seed.

    python3 perfbench/record.py --label "<commit or change name>"

The ledger also carries each workload's description (why, op mix, cells,
edges, default and held-out seed) and the predictions later changes are
judged by, rewritten from this file on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: What each kind of later change should move, and what it must leave flat.
PREDICTIONS = [
    {
        "change": "a certificate in place of the Karp cross-check in build_flow_report",
        "moves": "op_p50_s on flow-selftimed, down by at most the sta.flow.karp_s share",
        "flat": "op_p50_s on sta-signoff, eco-edit and sim-compare",
    },
    {
        "change": "reshaping the STA report or the schema validation",
        "moves": "op_p50_s, artifact_bytes_per_op and peak_rss_mb on sta-signoff",
        "flat": "eco-edit",
    },
    {
        "change": "an input-validation boundary on the library facades",
        "moves": "nothing by intent",
        "flat": "eco-edit op_p50_s is the one at risk (per-call cost on every edit)",
    },
    {
        "change": "consolidating the max-plus evaluators",
        "moves": "nothing by intent",
        "flat": "sim-compare and flow-selftimed, every metric",
    },
]


def workload_meta() -> dict:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = {}
    for name, wl in workloads.registry().items():
        out[name] = {
            "why": wl.why,
            "op_mix": wl.op_mix,
            "size": wl.size,
            **wl.shape(),
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
        }
    return out


def run_all(seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        out = os.path.join(tmp, "all.json")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", out],
            cwd=str(ROOT), text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed with exit {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = p.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    plain = run_all(args.seed, seconds, 0)
    traced = run_all(args.seed, seconds, 1)
    entry = {
        "label": args.label,
        "seed": args.seed,
        "run_seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine()},
        "workloads": {
            name: {
                "end_to_end": plain[name]["metrics"],
                "run": plain[name]["extra"],
                "per_layer": traced[name]["metrics"],
                "traced_run": traced[name]["extra"],
            }
            for name in plain
        },
    }
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {"entries": []}
    ledger = {"workloads": workload_meta(), "predictions": PREDICTIONS,
              "entries": ledger["entries"] + [entry]}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"appended entry {len(ledger['entries'])} to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
