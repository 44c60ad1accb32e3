#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance gate
computes it: one workload run once per seed, then per metric the distance
between the first and third quartiles of the runs, as a share of their
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload flow-selftimed --seeds 1-10 --out runs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--out", default=None, help="append every run's result line here")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, {result['failed']} failed")
            return 1
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread >= m["bound"] else "over 1/3")
        print(f"{m['name']:24s} median {med:.5g}  spread {spread:.4f}  "
              f"bound {m['bound']}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
