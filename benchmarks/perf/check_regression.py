"""Gate a BENCH_perf.json written by ``python -m repro bench``.

Usage::

    python benchmarks/perf/check_regression.py BENCH.json

(with the package installed, or ``PYTHONPATH=src`` from the repo root).
Prints each kernel's worst speedup, then every failure of
:func:`repro.analysis.perf.gate_failures`, which applies the one gate
table (:data:`repro.analysis.perf.GATES`): universal exactness
(``max_abs_diff == 0.0``), per-kernel speedup floors, and no missing
rows.  Exits 1 on any failure, so CI can run it as a step.
"""

import json
import sys

from repro.analysis.perf import gate_failures, speedup_by_kernel


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[1]) as fh:
        payload = json.load(fh)
    for kernel, speedup in sorted(speedup_by_kernel(payload).items()):
        print(f"{kernel}: worst {speedup:.1f}x")
    failures = gate_failures(payload)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"perf gate: all {len(payload['rows'])} rows exact and above their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
