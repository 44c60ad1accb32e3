"""Span recorder and layer wrappers for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
each layer's public entry points (module functions or class methods) in
place, and every wrapped call made inside a *unit* (one op, or one ECO
session open/close) records a span with its name, start, end, parent and
unit id.  Spans stay in memory; :meth:`Recorder.dump` writes them out when
the run ends, and :func:`unit_breakdown` derives self times from them.

A wrap target that no longer exists (a later change renames or deletes
it) is reported as an absent target, never a crash; a layer whose every
target is absent is an absent layer and reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Counter = Callable[[Any], Sequence[Tuple[str, float]]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans; -1 for a unit root
    unit: int


class Recorder:
    """In-memory span store.  Wrapped calls outside a unit pass through."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = {}
        self._stack: List[int] = []
        self._unit: Optional[int] = None

    @property
    def active(self) -> bool:
        return self._unit is not None

    @contextmanager
    def unit(self, unit_id: int, kind: str) -> Iterator[None]:
        """One timed unit of work; its root span is named ``kind``."""
        self._unit = unit_id
        root = self.open(kind)
        try:
            yield
        finally:
            self.close(root)
            self._unit = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._unit))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        key = (self._unit, name)
        self.counts[key] = self.counts.get(key, 0.0) + float(value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "unit"],
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.unit]
                        for s in self.spans
                    ],
                },
                fh,
            )


def wrap(recorder: Recorder, name: str, fn: Callable, counter: Optional[Counter] = None):
    """``fn`` recording a span ``name`` (plus ``counter`` counts of its
    result) whenever it is called inside one of ``recorder``'s units."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if counter is not None:
            for key, value in counter(result):
                recorder.add(key, value)
        return result

    return traced


@dataclass(frozen=True)
class Layer:
    """One layer: a metric name and the ``module:attr`` or
    ``module:Class.attr`` entry points whose calls it times."""

    name: str
    targets: Tuple[str, ...]
    counter: Optional[Counter] = None


def _resolve(target: str) -> Optional[Tuple[Any, str]]:
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Installation:
    """The wrappers :func:`install` put in place, and what was missing."""

    def __init__(self) -> None:
        # (owner, attr, original, whether owner itself defined attr)
        self.patched: List[Tuple[Any, str, Any, bool]] = []
        self.absent_targets: List[str] = []
        self.absent_layers: List[str] = []

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self.patched):
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the shadowing wrapper
                delattr(owner, attr)
        self.patched.clear()


def install(recorder: Recorder, layers: Sequence[Layer]) -> Installation:
    """Wrap every resolvable target of ``layers`` in place."""
    done = Installation()
    for layer in layers:
        found = 0
        for target in layer.targets:
            resolved = _resolve(target)
            if resolved is None:
                done.absent_targets.append(target)
                continue
            owner, attr = resolved
            # Read statically, so a class yields its plain function (not a
            # bound view) and a restore puts back exactly what was there.
            original = inspect.getattr_static(owner, attr)
            done.patched.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrap(recorder, layer.name, original, layer.counter))
            found += 1
        if not found:
            done.absent_layers.append(layer.name)
    return done


@dataclass
class UnitBreakdown:
    """Self time per layer of one unit, and the unit's glue."""

    unit: int
    kind: str
    wall: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    top_level_s: float

    @property
    def glue_s(self) -> float:
        return self.wall - self.top_level_s


def unit_breakdown(spans: Sequence[Span]) -> List[UnitBreakdown]:
    """Per unit: each layer's self time (its spans' durations minus the
    part their child spans cover), call counts, and the sum of the
    top-level layer spans.  The self times of a unit sum to its top-level
    span time, so self times plus glue equal the unit's wall time."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    out: Dict[int, UnitBreakdown] = {}
    for s in spans:
        if s.parent < 0:
            out[s.unit] = UnitBreakdown(s.unit, s.name, s.end - s.start, {}, {}, 0.0)
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        b = out[s.unit]
        b.self_s[s.name] = b.self_s.get(s.name, 0.0) + (s.end - s.start) - child_s[i]
        b.calls[s.name] = b.calls.get(s.name, 0) + 1
        if spans[s.parent].parent < 0:
            b.top_level_s += s.end - s.start
    return [out[k] for k in sorted(out)]
