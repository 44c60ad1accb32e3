"""A small stdlib-only JSON validator plus the schemas the repo emits.

Two machine-readable artifact families need to stay well-formed for the
perf-trajectory tooling of later PRs:

* ``benchmarks/results/<name>.json`` — benchmark tables with timing
  metadata (:data:`BENCHMARK_RESULT_SCHEMA`);
* JSONL trace lines from :class:`~repro.obs.trace.JsonlTracer`
  (:data:`TRACE_EVENT_SCHEMA`).

The validator speaks a deliberately tiny dialect of JSON Schema —
``type`` (string or list of strings), ``properties`` + ``required`` for
objects, ``items`` for arrays — enough to pin the shapes down without a
dependency.  Columnar payloads (the STA report's optional per-edge
``edges`` block) are not walked element by element: they are checked in
bulk with numpy (length, element types, finiteness, and the cross-field
rules recomputed as array expressions).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

import numpy as np

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(obj: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """Validate ``obj`` against the mini-schema; returns error strings
    (empty list means valid)."""
    errors: List[str] = []
    types = schema.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else list(types)
        for t in allowed:
            if t not in _TYPE_CHECKS:
                raise ValueError(f"unsupported schema type {t!r}")
        if not any(_TYPE_CHECKS[t](obj) for t in allowed):
            errors.append(
                f"{path}: expected {'/'.join(allowed)}, got {type(obj).__name__}"
            )
            return errors
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in obj:
                errors.extend(validate(obj[key], subschema, f"{path}.{key}"))
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


_SCALAR = {"type": ["string", "number", "boolean", "null"]}

#: Shape of one JSONL trace line (a serialised TraceEvent).
TRACE_EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["t", "cat", "kind", "cell", "data"],
    "properties": {
        "t": {"type": "number"},
        "cat": {"type": "string"},
        "kind": {"type": "string"},
        "data": {"type": "object"},
    },
}

#: Shape of ``benchmarks/results/<name>.json``.
BENCHMARK_RESULT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["name", "title", "headers", "rows", "meta"],
    "properties": {
        "name": {"type": "string"},
        "title": {"type": "string"},
        "headers": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
                "timing": {"type": "object"},
            },
        },
    },
}


#: Shape of the report ``python -m repro check --json FILE`` writes.
CHECK_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["suite", "seed", "passed", "counts", "checks", "meta"],
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "passed": {"type": "boolean"},
        "counts": {
            "type": "object",
            "required": ["total", "passed", "failed"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "passed", "duration_s", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "duration_s": {"type": "number"},
                    "error": {"type": ["string", "null"]},
                    "details": {"type": "object"},
                },
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}

#: The STA report's artifact contract.  The producer's constants
#: (``repro.sta.report.WORST_EDGES``, ``repro.sta.slack.FLAG_BITS`` and
#: ``repro.sta.slack.SIM_TOL``) are pinned equal to these by tests; the
#: validator keeps its own copy so that it checks the analyzer instead of
#: reusing it.
STA_WORST_EDGES = 16
STA_FLAG_BITS = ("stale", "stale-possible", "race", "race-possible", "race-floor")
STA_SLACK_TOL = 1e-12
STA_FLOAT_COLUMNS = (
    "lag", "sigma_ub", "sigma_lb", "offset_lead",
    "setup_slack", "hold_slack", "setup_slack_bound", "hold_slack_bound",
)

#: One per-edge slack row (the shape of each ``worst`` entry).
STA_EDGE_ROW_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["edge", *STA_FLOAT_COLUMNS, "flags"],
    "properties": {
        "edge": {"type": "array", "items": {"type": "string"}},
        **{name: {"type": "number"} for name in STA_FLOAT_COLUMNS},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
}

#: Shape of the report ``python -m repro sta --json FILE`` writes.  The
#: optional ``edges`` block (``--edges``) holds one list per field; the
#: schema walk only checks that each is a list, and
#: :func:`validate_sta_report` checks their contents in bulk.
STA_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "design", "period", "verdict", "robust",
        "counts", "slack", "worst", "drc", "empirical", "meta",
    ],
    "properties": {
        "design": {"type": "string"},
        "period": {"type": "number"},
        "verdict": {"type": "string"},
        "robust": {"type": "boolean"},
        "counts": {
            "type": "object",
            "required": [
                "edges", "stale", "race", "stale_possible",
                "race_possible", "race_floor", "drc_fail", "drc_warn",
            ],
            "properties": {
                "edges": {"type": "integer"},
                "stale": {"type": "integer"},
                "race": {"type": "integer"},
                "stale_possible": {"type": "integer"},
                "race_possible": {"type": "integer"},
                "race_floor": {"type": "integer"},
                "drc_fail": {"type": "integer"},
                "drc_warn": {"type": "integer"},
            },
        },
        "slack": {
            "type": "object",
            "required": [
                "worst_setup_slack", "worst_hold_slack",
                "min_feasible_period_exact", "min_feasible_period_bound",
            ],
            "properties": {
                "worst_setup_slack": {"type": "number"},
                "worst_hold_slack": {"type": "number"},
                "min_feasible_period_exact": {"type": "number"},
                "min_feasible_period_bound": {"type": "number"},
            },
        },
        "worst": {"type": "array", "items": STA_EDGE_ROW_SCHEMA},
        "edges": {
            "type": "object",
            "required": ["flag_bits", "src", "dst", *STA_FLOAT_COLUMNS, "flags"],
            "properties": {
                name: {"type": "array"}
                for name in ("flag_bits", "src", "dst", *STA_FLOAT_COLUMNS, "flags")
            },
        },
        "drc": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "title", "status", "detail"],
                "properties": {
                    "rule": {"type": "string"},
                    "title": {"type": "string"},
                    "status": {"type": "string"},
                    "detail": {"type": "string"},
                },
            },
        },
        "empirical": {
            "type": ["object", "null"],
            "required": ["max_skew", "model_sigma_ub_max", "within_model"],
            "properties": {
                "max_skew": {"type": "number"},
                "model_sigma_ub_max": {"type": "number"},
                "within_model": {"type": "boolean"},
                "tree_version": {"type": "integer"},
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
        # Present only on ECO edit-script step reports (optional: not in
        # the required list above).
        "eco": {
            "type": "object",
            "required": ["edit", "target", "dirty_rows", "reuse_fraction"],
            "properties": {
                "edit": {"type": "string"},
                "target": {"type": "string"},
                "dirty_rows": {"type": "integer"},
                "reuse_fraction": {"type": "number"},
            },
        },
    },
}


#: Shape of one serialised span event (a TraceEvent with ``cat ==
#: "span"``); the per-kind payload requirements live in
#: :func:`validate_span_event` (the mini-schema has no conditionals).
SPAN_EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["t", "cat", "kind", "cell", "data"],
    "properties": {
        "t": {"type": "number"},
        "cat": {"type": "string"},
        "kind": {"type": "string"},
        "data": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "parent": {"type": ["string", "null"]},
                "name": {"type": "string"},
                "worker": {"type": "string"},
                "wall_t0": {"type": "number"},
                "wall_s": {"type": "number"},
                "status": {"type": "string"},
                "attrs": {"type": "object"},
            },
        },
    },
}

#: Shape of :func:`repro.obs.export.metrics_snapshot` output; the
#: per-series payload requirements live in
#: :func:`validate_metrics_snapshot`.
METRICS_SNAPSHOT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["counters", "gauges", "histograms", "meta"],
    "properties": {
        "counters": {"type": "object"},
        "gauges": {"type": "object"},
        "histograms": {"type": "object"},
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}


#: Shape of ``ViolationSummary.to_dict()`` (repro.sim.faults).
VIOLATION_SUMMARY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "total", "stale", "race", "edges_affected",
        "first_failure_tick", "last_failure_tick",
        "worst_edge", "worst_edge_count", "per_cell",
    ],
    "properties": {
        "total": {"type": "integer"},
        "stale": {"type": "integer"},
        "race": {"type": "integer"},
        "edges_affected": {"type": "integer"},
        "first_failure_tick": {"type": "integer"},
        "last_failure_tick": {"type": "integer"},
        "worst_edge": {"type": "array"},
        "worst_edge_count": {"type": "integer"},
        "per_cell": {"type": "object"},
    },
}


def validate_trace_event(obj: Any) -> List[str]:
    return validate(obj, TRACE_EVENT_SCHEMA)


def validate_span_event(obj: Any) -> List[str]:
    """Schema check for one span start/end event, including the per-kind
    payload the mini-schema cannot express: starts need ``parent``,
    ``name``, ``worker``, ``wall_t0``, and ``attrs``; ends need
    ``wall_s``, a known ``status``, and ``attrs``."""
    errors = validate(obj, SPAN_EVENT_SCHEMA)
    if errors:
        return errors
    if obj["cat"] != "span":
        errors.append(f"$.cat: expected 'span', got {obj['cat']!r}")
    kind = obj["kind"]
    data = obj["data"]
    if kind == "start":
        for key, types in (
            ("parent", (str, type(None))),
            ("name", (str,)),
            ("worker", (str,)),
            ("wall_t0", (int, float)),
            ("attrs", (dict,)),
        ):
            if key not in data:
                errors.append(f"$.data: missing required key {key!r}")
            elif not isinstance(data[key], types) or isinstance(data[key], bool):
                errors.append(
                    f"$.data.{key}: wrong type {type(data[key]).__name__}"
                )
    elif kind == "end":
        for key, types in (
            ("wall_s", (int, float)),
            ("status", (str,)),
            ("attrs", (dict,)),
        ):
            if key not in data:
                errors.append(f"$.data: missing required key {key!r}")
            elif not isinstance(data[key], types) or isinstance(data[key], bool):
                errors.append(
                    f"$.data.{key}: wrong type {type(data[key]).__name__}"
                )
        if isinstance(data.get("status"), str) and data["status"] not in (
            "ok",
            "error",
        ):
            errors.append(f"$.data.status: unknown status {data['status']!r}")
    else:
        errors.append(f"$.kind: expected 'start' or 'end', got {kind!r}")
    return errors


def validate_metrics_snapshot(obj: Any) -> List[str]:
    """Schema check for a metrics snapshot, including the per-series
    invariants: counters are non-bool integers, gauges carry their
    value/min/max/samples envelope, and each histogram has exactly one
    more count than it has edges."""
    errors = validate(obj, METRICS_SNAPSHOT_SCHEMA)
    if errors:
        return errors
    for name, value in obj["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"$.counters.{name}: expected integer")
    for name, g in obj["gauges"].items():
        if not isinstance(g, dict):
            errors.append(f"$.gauges.{name}: expected object")
            continue
        missing = [k for k in ("value", "min", "max", "samples") if k not in g]
        if missing:
            errors.append(f"$.gauges.{name}: missing {missing}")
    for name, h in obj["histograms"].items():
        if not isinstance(h, dict):
            errors.append(f"$.histograms.{name}: expected object")
            continue
        missing = [k for k in ("edges", "counts", "total", "mean") if k not in h]
        if missing:
            errors.append(f"$.histograms.{name}: missing {missing}")
            continue
        if not isinstance(h["edges"], list) or not isinstance(h["counts"], list):
            errors.append(f"$.histograms.{name}: edges/counts must be arrays")
        elif len(h["counts"]) != len(h["edges"]) + 1:
            errors.append(
                f"$.histograms.{name}: {len(h['counts'])} counts for "
                f"{len(h['edges'])} edges (expected edges + 1)"
            )
    return errors


def validate_check_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field consistency the mini-schema can't
    express: the counts must agree with the per-check rows, and the overall
    verdict must agree with the failure count."""
    errors = validate(obj, CHECK_REPORT_SCHEMA)
    if not errors:
        failed = sum(1 for c in obj["checks"] if not c["passed"])
        counts = obj["counts"]
        if counts["total"] != len(obj["checks"]):
            errors.append(
                f"$.counts.total: {counts['total']} != "
                f"{len(obj['checks'])} check rows"
            )
        if counts["failed"] != failed:
            errors.append(
                f"$.counts.failed: {counts['failed']} != {failed} failing rows"
            )
        if counts["passed"] != counts["total"] - failed:
            errors.append(
                f"$.counts.passed: {counts['passed']} != "
                f"{counts['total'] - failed}"
            )
        if obj["passed"] != (failed == 0):
            errors.append(
                f"$.passed: {obj['passed']} disagrees with {failed} failures"
            )
    return errors


#: ``counts`` key -> flag name, in bit order.
_STA_COUNT_FLAGS = tuple((f.replace("-", "_"), f) for f in STA_FLAG_BITS)


def _sta_flag_bits(cols: Dict[str, Any]) -> np.ndarray:
    """The flag bitmask per edge of slack columns (field name -> values):
    the latch classification, restated here so the validator does not
    trust the analyzer's own."""
    tol = STA_SLACK_TOL
    lag, sigma_lb, setup, hold, setup_b, hold_b = (
        np.asarray(cols[name], dtype=np.float64)
        for name in ("lag", "sigma_lb", "setup_slack", "hold_slack",
                     "setup_slack_bound", "hold_slack_bound")
    )
    stale = setup < -tol
    race = hold <= tol
    masks = (
        stale,
        (setup_b < -tol) & ~stale,
        race,
        (hold_b <= tol) & ~race,
        sigma_lb >= lag - tol,
    )
    bits = np.zeros(len(lag), dtype=np.int64)
    for i, mask in enumerate(masks):
        bits[mask] |= 1 << i
    return bits


def _decode_sta_flags(bits: int) -> List[str]:
    return [flag for i, flag in enumerate(STA_FLAG_BITS) if bits >> i & 1]


def _column_types(col: Sequence[Any], allowed: Sequence[type]) -> bool:
    """Every element's exact type is in ``allowed`` (``bool`` is not an
    ``int`` here), checked in one C-level pass."""
    return set(map(type, col)) <= set(allowed)


def _validate_sta_worst(obj: Dict[str, Any]) -> List[str]:
    """``worst``: as long as the contract says, ascending by
    ``min(setup, hold)``, headed by the summary's worst slack, and every
    row's flags consistent with its own values."""
    errors: List[str] = []
    counts = obj["counts"]
    worst = obj["worst"]
    expected = min(STA_WORST_EDGES, counts["edges"])
    if len(worst) != expected:
        errors.append(f"$.worst: {len(worst)} rows, expected {expected}")
    keys = [min(r["setup_slack"], r["hold_slack"]) for r in worst]
    if any(b < a for a, b in zip(keys, keys[1:])):
        errors.append("$.worst: rows not ascending by min(setup, hold) slack")
    summary = obj["slack"]
    if keys and keys[0] != min(
        summary["worst_setup_slack"], summary["worst_hold_slack"]
    ):
        errors.append(
            f"$.worst[0]: min slack {keys[0]} is not the summary's worst"
        )
    try:
        bits = _sta_flag_bits(
            {name: [r[name] for r in worst] for name in STA_FLOAT_COLUMNS}
        )
    except OverflowError as exc:
        return errors + [f"$.worst: {exc}"]
    for i, r in enumerate(worst):
        if len(r["edge"]) != 2:
            errors.append(f"$.worst[{i}].edge: expected [src, dst]")
        flags = _decode_sta_flags(int(bits[i]))
        if r["flags"] != flags:
            errors.append(
                f"$.worst[{i}].flags: {r['flags']} disagrees with its slack "
                f"values ({flags})"
            )
    for key, flag in _STA_COUNT_FLAGS:
        listed = sum(1 for r in worst if flag in r["flags"])
        if listed > counts[key]:
            errors.append(
                f"$.counts.{key}: {counts[key]} < {listed} flagged worst rows"
            )
    return errors


def _validate_sta_edges(obj: Dict[str, Any]) -> List[str]:
    """The per-edge columns, in bulk: lengths, element types, finiteness,
    then the flags, counts, worst slacks and ``worst`` recomputed from the
    columns."""
    cols = obj["edges"]
    n = obj["counts"]["edges"]
    errors: List[str] = []
    if cols["flag_bits"] != list(STA_FLAG_BITS):
        errors.append(
            f"$.edges.flag_bits: {cols['flag_bits']} != {list(STA_FLAG_BITS)}"
        )
    kinds = {"src": (str,), "dst": (str,), "flags": (int,)}
    for name in ("src", "dst", *STA_FLOAT_COLUMNS, "flags"):
        col = cols[name]
        if len(col) != n:
            errors.append(f"$.edges.{name}: {len(col)} values, expected {n}")
        elif not _column_types(col, kinds.get(name, (float, int))):
            errors.append(f"$.edges.{name}: element of the wrong type")
    if not errors and n and not (
        0 <= min(cols["flags"]) and max(cols["flags"]) < 1 << len(STA_FLAG_BITS)
    ):
        errors.append("$.edges.flags: bitmask outside the flag bits")
    if errors:
        return errors
    try:
        arr = {
            name: np.asarray(cols[name], dtype=np.float64)
            for name in STA_FLOAT_COLUMNS
        }
    except OverflowError as exc:
        return [f"$.edges: {exc}"]
    for name, a in arr.items():
        bad = np.flatnonzero(~np.isfinite(a))
        if len(bad):
            errors.append(
                f"$.edges.{name}[{int(bad[0])}]: non-finite {a[bad[0]]} "
                f"({len(bad)} such values)"
            )
    if errors:
        return errors
    flags = np.asarray(cols["flags"], dtype=np.int64)
    bits = _sta_flag_bits(arr)
    bad = np.flatnonzero(flags != bits)
    if len(bad):
        i = int(bad[0])
        errors.append(
            f"$.edges.flags[{i}]: {int(flags[i])} disagrees with the slack "
            f"columns ({int(bits[i])}; {len(bad)} such edges)"
        )
    counts = obj["counts"]
    for bit, (key, _) in enumerate(_STA_COUNT_FLAGS):
        seen = int(np.count_nonzero(bits & 1 << bit))
        if counts[key] != seen:
            errors.append(
                f"$.counts.{key}: {counts[key]} != {seen} flagged edges"
            )
    if n:
        summary = obj["slack"]
        for key, name in (
            ("worst_setup_slack", "setup_slack"),
            ("worst_hold_slack", "hold_slack"),
        ):
            if summary[key] != float(arr[name].min()):
                errors.append(
                    f"$.slack.{key}: {summary[key]} != column minimum "
                    f"{float(arr[name].min())}"
                )
    robust = (
        obj["verdict"] == "clean"
        and counts["drc_warn"] == 0
        and bool((arr["setup_slack_bound"] >= -STA_SLACK_TOL).all())
        and bool((arr["hold_slack_bound"] > STA_SLACK_TOL).all())
    )
    if obj["robust"] != robust:
        errors.append(f"$.robust: {obj['robust']} disagrees with the columns")
    key = np.minimum(arr["setup_slack"], arr["hold_slack"])
    order = np.argsort(key, kind="stable")[:STA_WORST_EDGES]
    expected = [
        {
            "edge": [cols["src"][i], cols["dst"][i]],
            **{name: float(arr[name][i]) for name in STA_FLOAT_COLUMNS},
            "flags": _decode_sta_flags(int(bits[i])),
        }
        for i in order.tolist()
    ]
    if obj["worst"] != expected:
        errors.append("$.worst: differs from the worst edges of the columns")
    return errors


def validate_sta_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariants of an STA report.

    The fixed part is schema-walked: every number in it must be finite,
    the verdict must agree with the violation counts, ``robust`` implies
    ``clean``, DRC statuses come from the fixed set, and ``worst`` must be
    the right length, ordered, and flagged consistently with its values.
    When the per-edge ``edges`` columns are present they are checked in
    bulk, and the flags, counts, worst slacks and ``worst`` are recomputed
    from them and must match.
    """
    errors = validate(obj, STA_REPORT_SCHEMA)
    if errors:
        return errors
    errors.extend(_non_finite(obj["period"], "$.period"))
    for block in ("slack", "worst", "empirical", "eco"):
        errors.extend(_non_finite(obj.get(block), f"$.{block}"))
    if errors:
        return errors
    counts = obj["counts"]
    for key, _ in _STA_COUNT_FLAGS:
        if not 0 <= counts[key] <= counts["edges"]:
            errors.append(
                f"$.counts.{key}: {counts[key]} outside [0, {counts['edges']}]"
            )
    drc_fail = sum(1 for r in obj["drc"] if r["status"] == "fail")
    if counts["drc_fail"] != drc_fail:
        errors.append(
            f"$.counts.drc_fail: {counts['drc_fail']} != {drc_fail} fail rows"
        )
    for i, r in enumerate(obj["drc"]):
        if r["status"] not in ("pass", "fail", "warn", "skip"):
            errors.append(f"$.drc[{i}].status: unknown status {r['status']!r}")
    dirty = counts["stale"] + counts["race"] + counts["drc_fail"] > 0
    if obj["verdict"] not in ("clean", "violations"):
        errors.append(f"$.verdict: unknown verdict {obj['verdict']!r}")
    elif (obj["verdict"] == "violations") != dirty:
        errors.append(
            f"$.verdict: {obj['verdict']!r} disagrees with counts "
            f"(stale {counts['stale']}, race {counts['race']}, "
            f"drc_fail {counts['drc_fail']})"
        )
    if obj["robust"] and obj["verdict"] != "clean":
        errors.append("$.robust: true on a non-clean report")
    eco = obj.get("eco")
    if eco is not None:
        if not 0.0 <= eco["reuse_fraction"] <= 1.0:
            errors.append(
                f"$.eco.reuse_fraction: {eco['reuse_fraction']} outside [0, 1]"
            )
        if eco["dirty_rows"] > counts["edges"]:
            errors.append(
                f"$.eco.dirty_rows: {eco['dirty_rows']} exceeds "
                f"{counts['edges']} edges"
            )
    errors.extend(_validate_sta_worst(obj))
    if "edges" in obj:
        errors.extend(_validate_sta_edges(obj))
    return errors


def validate_violation_summary(obj: Any) -> List[str]:
    """Schema check plus the arithmetic invariants of a violation summary:
    stale + race = total, and the per-cell counts sum to the total."""
    errors = validate(obj, VIOLATION_SUMMARY_SCHEMA)
    if not errors:
        if obj["stale"] + obj["race"] != obj["total"]:
            errors.append(
                f"$.total: stale ({obj['stale']}) + race ({obj['race']}) "
                f"!= total ({obj['total']})"
            )
        per_cell_sum = sum(obj["per_cell"].values())
        if per_cell_sum != obj["total"]:
            errors.append(
                f"$.per_cell: counts sum to {per_cell_sum}, "
                f"expected total {obj['total']}"
            )
        if obj["total"] > 0 and obj["first_failure_tick"] > obj["last_failure_tick"]:
            errors.append(
                "$.first_failure_tick: exceeds last_failure_tick"
            )
    return errors


#: Shape of the report ``python -m repro flow --json FILE`` (and
#: ``python -m repro sta --flow FILE``) writes: the static max-plus
#: analysis of a self-timed array — deadlock verdict, maximum cycle
#: mean with its critical-cycle blame rows, the agreement block against
#: the scalar oracle and the simulator, transient bounds, and (when a
#: target was given) the minimal buffer sizing.
FLOW_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "design", "cells", "comm_edges", "wire_delay", "capacity",
        "deadlock", "mcm", "agreement", "transient", "sizing", "meta",
    ],
    "properties": {
        "design": {"type": "string"},
        "cells": {"type": "integer"},
        "comm_edges": {"type": "integer"},
        "wire_delay": {"type": "number"},
        "capacity": {"type": "string"},
        "deadlock": {
            "type": "object",
            "required": ["dead", "cycle"],
            "properties": {
                "dead": {"type": "boolean"},
                "cycle": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "mcm": {
            "type": ["object", "null"],
            "required": [
                "cycle_time", "throughput", "weight", "tokens",
                "iterations", "critical_cycle",
            ],
            "properties": {
                "cycle_time": {"type": "number"},
                "throughput": {"type": ["number", "null"]},
                "weight": {"type": "number"},
                "tokens": {"type": "integer"},
                "iterations": {"type": "integer"},
                "critical_cycle": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["label", "kind", "seconds", "share"],
                        "properties": {
                            "label": {"type": "string"},
                            "kind": {"type": "string"},
                            "seconds": {"type": "number"},
                            "share": {"type": "number"},
                        },
                    },
                },
            },
        },
        "agreement": {
            "type": ["object", "null"],
            "required": [
                "verify", "karp_cycle_time", "simulated_cycle_time",
                "max_abs_diff", "exact",
            ],
            "properties": {
                "verify": {"type": "string"},
                "karp_cycle_time": {"type": ["number", "null"]},
                "simulated_cycle_time": {"type": ["number", "null"]},
                "max_abs_diff": {"type": "number"},
                "exact": {"type": "boolean"},
            },
        },
        "transient": {
            "type": ["object", "null"],
            "required": [
                "period", "waves_run", "c_lo", "c_hi",
                "makespan_checks", "makespan_max_err",
            ],
            "properties": {
                "period": {"type": "integer"},
                "waves_run": {"type": "integer"},
                "c_lo": {"type": "number"},
                "c_hi": {"type": "number"},
                "makespan_checks": {"type": "integer"},
                "makespan_max_err": {"type": "number"},
            },
        },
        "sizing": {
            "type": ["object", "null"],
            "required": [
                "target", "cycle_time", "total_capacity", "mcm_calls",
                "capacities",
            ],
            "properties": {
                "target": {"type": "number"},
                "cycle_time": {"type": "number"},
                "total_capacity": {"type": "integer"},
                "mcm_calls": {"type": "integer"},
                "capacities": {
                    "type": "array",
                    "items": {"type": "array", "items": _SCALAR},
                },
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}


def _non_finite(obj: Any, path: str) -> List[str]:
    """Paths of the NaN/inf numbers inside ``obj`` (dicts and lists)."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{path}: non-finite {obj}"]
    if isinstance(obj, dict):
        items = [(f"{path}.{k}", v) for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return []
    return [e for sub, v in items for e in _non_finite(v, sub)]


def validate_flow_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariants of a flow report:
    a deadlocked design has no MCM/agreement/transient blocks (and vice
    versa), the deadlock cycle is non-empty exactly when dead, blame
    shares lie in [0, 1], the mcm/agreement/transient numbers are finite,
    the verify tier is ``cert`` (no Karp value) or ``karp`` (with one),
    agreement ``exact`` means a zero diff, and a sizing block (when
    present) meets its own target."""
    errors = validate(obj, FLOW_REPORT_SCHEMA)
    if errors:
        return errors
    for block in ("mcm", "agreement", "transient"):
        errors.extend(_non_finite(obj[block], f"$.{block}"))
    if errors:
        return errors
    dead = obj["deadlock"]["dead"]
    if dead != bool(obj["deadlock"]["cycle"]):
        errors.append(
            f"$.deadlock.cycle: {'empty' if dead else 'non-empty'} "
            f"disagrees with dead={dead}"
        )
    if dead and obj["mcm"] is not None:
        errors.append("$.mcm: present on a deadlocked design")
    if not dead and obj["mcm"] is None:
        errors.append("$.mcm: missing on a live design")
    mcm = obj["mcm"]
    if mcm is not None:
        for i, step in enumerate(mcm["critical_cycle"]):
            if not 0.0 <= step["share"] <= 1.0:
                errors.append(
                    f"$.mcm.critical_cycle[{i}].share: "
                    f"{step['share']} outside [0, 1]"
                )
        if mcm["cycle_time"] > 0 and mcm["tokens"] <= 0:
            errors.append("$.mcm.tokens: must be positive on a finite MCM")
    agreement = obj["agreement"]
    if agreement is not None:
        if dead:
            errors.append("$.agreement: present on a deadlocked design")
        elif agreement["exact"] and agreement["max_abs_diff"] != 0.0:
            errors.append(
                f"$.agreement.exact: true with max_abs_diff "
                f"{agreement['max_abs_diff']}"
            )
        verify = agreement["verify"]
        karp = agreement["karp_cycle_time"]
        if verify not in ("cert", "karp"):
            errors.append(
                f"$.agreement.verify: {verify!r} is not 'cert' or 'karp'"
            )
        elif (verify == "cert") != (karp is None):
            errors.append(
                f"$.agreement.karp_cycle_time: {karp!r} under "
                f"verify={verify!r}"
            )
    sizing = obj["sizing"]
    if sizing is not None and sizing["cycle_time"] > sizing["target"]:
        errors.append(
            f"$.sizing.cycle_time: {sizing['cycle_time']} exceeds "
            f"target {sizing['target']}"
        )
    return errors


def validate_benchmark_result(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariant a mini-schema can't
    express: every row is as wide as the header."""
    errors = validate(obj, BENCHMARK_RESULT_SCHEMA)
    if not errors:
        width = len(obj["headers"])
        for i, row in enumerate(obj["rows"]):
            if len(row) != width:
                errors.append(
                    f"$.rows[{i}]: has {len(row)} cells, expected {width}"
                )
    return errors
