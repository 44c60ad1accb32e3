"""The analyzer facade: slack + DRC + report with caching and observability.

:class:`STAAnalyzer` holds no slack state of its own: it reads a
zero-edit :class:`~repro.sta.eco.ECOSession`, opened (one cold gather)
per design version — :attr:`~repro.sta.design.Design.freshness_key` —
and re-opened when that key moves.  Every write that can change a slack
row bumps the key, so hits are safe.  The memos (slack, DRC, empirical,
flow) are keyed on that key *and* the buffered realization's
``version``: ``resample()`` redraws the physical delays, which the DRC
rules and the empirical block read but the slack vectors do not, so it
drops the memos and keeps the session.

Instrumentation follows the repo convention — opt-in ``tracer=`` /
``metrics=`` kwargs, zero overhead when absent:

* trace events, category ``sta``: one ``analyze`` event per fresh
  computation with the verdict and flag counts;
* metrics: ``sta.runs`` / ``sta.cache_hits`` counters and an
  ``sta.duration_s`` histogram.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.dataflow import CapacitySpec, _capacity_items
from repro.sta.design import Design
from repro.sta.drc import RuleResult, run_drc
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    FlowAnalysis,
    ServiceSpec,
    _service_vector,
    analyze_flow,
)
from repro.sta.report import STAReport, build_report
from repro.sta.slack import SlackAnalysis


class STAAnalyzer:
    """Static timing analysis of one design, cached against its version."""

    def __init__(
        self,
        design: Design,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.design = design
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        #: ``(design.freshness_key, buffered version or -1)``.
        self._key: Optional[Tuple[Tuple[int, int, int], int]] = None
        self._session: Optional[ECOSession] = None
        #: Per-key memos: "slack", "drc", "empirical", flow keys.
        self._memo: Dict[Any, Any] = {}

    def _fresh(self) -> bool:
        """Drop every memo if the design or its buffered realization
        moved (and the session too if the design moved); report whether
        the memos hold."""
        buffered = self.design.buffered
        key = (self.design.freshness_key, -1 if buffered is None else buffered.version)
        if key == self._key:
            return True
        if self._key is None or key[0] != self._key[0]:
            self._session = None
        self._key, self._memo = key, {}
        return False

    def _open(self) -> ECOSession:
        """The session of the current design version (opened lazily: the
        one cold gather per version)."""
        self._fresh()
        if self._session is None:
            self._session = ECOSession(self.design)
        return self._session

    def slack(self) -> SlackAnalysis:
        if self._fresh() and "slack" in self._memo:
            if self._metrics is not None:
                self._metrics.counter("sta.cache_hits").inc()
            if self._tracer.enabled:
                self._tracer.event(
                    0.0, "sta", "cache_hit", design=self.design.name
                )
            return self._memo["slack"]
        t0 = time.perf_counter()
        if self._tracer.enabled:
            from repro.obs.spans import SpanTracer

            spans = SpanTracer(self._tracer)
            with spans.span("sta.slack", design=self.design.name) as h:
                analysis = self._open().analysis()
                h.annotate(edges=len(analysis.edges))
        else:
            analysis = self._open().analysis()
        self._memo["slack"] = analysis
        duration = time.perf_counter() - t0
        if self._metrics is not None:
            self._metrics.counter("sta.runs").inc()
            self._metrics.histogram("sta.duration_s").observe(duration)
        if self._tracer.enabled:
            self._tracer.event(
                0.0,
                "sta",
                "analyze",
                design=self.design.name,
                edges=len(analysis.edges),
                stale=int(analysis.stale_mask.sum()),
                race=int(analysis.race_mask.sum()),
                timing_clean=analysis.timing_clean,
                duration_s=duration,
            )
        return analysis

    def drc(self) -> List[RuleResult]:
        self._fresh()
        if "drc" not in self._memo:
            self._memo["drc"] = run_drc(self.design, self.slack())
        return self._memo["drc"]

    def minimum_feasible_period(self, mode: str = "exact") -> float:
        """O(log) bisection from the session's tracked ``max(needs)``."""
        return self._open().minimum_feasible_period(mode)

    def empirical(self) -> Optional[Dict[str, Any]]:
        """The session's buffered-vs-model cross-check
        (:meth:`~repro.sta.eco.ECOSession.empirical`), memoized."""
        self._fresh()
        if "empirical" not in self._memo:
            self._memo["empirical"] = self._open().empirical()
        return self._memo["empirical"]

    def flow(
        self,
        service: ServiceSpec = 1.0,
        wire_delay: float = 0.0,
        capacity: CapacitySpec = None,
    ) -> FlowAnalysis:
        """Self-timed flow analysis of this design's COMM graph, memoized.

        The cache key is the resolved per-cell service vector (by value
        — two specs resolving to the same vector share an entry), the
        wire delay, and the normalized capacity items, all under the
        analyzer's key: a COMM mutation drops every entry, and so do
        clock-side edits and resamples (over-invalidation, never
        staleness).
        """
        self._fresh()
        comm = self.design.array.comm
        cells = comm.nodes()
        services = _service_vector(cells, service)
        key: Tuple[Any, ...] = (
            services.tobytes(),
            float(wire_delay),
            tuple(_capacity_items(comm.edges(), capacity)),
        )
        if key not in self._memo:
            t0 = time.perf_counter()
            analysis = analyze_flow(comm, service, wire_delay, capacity)
            self._memo[key] = analysis
            duration = time.perf_counter() - t0
            if self._metrics is not None:
                self._metrics.counter("sta.flow_runs").inc()
                self._metrics.histogram("sta.flow_duration_s").observe(
                    duration
                )
            if self._tracer.enabled:
                self._tracer.event(
                    0.0,
                    "sta",
                    "flow",
                    design=self.design.name,
                    cells=len(cells),
                    dead=analysis.dead,
                    cycle_time=analysis.cycle_time,
                    duration_s=duration,
                )
        else:
            if self._metrics is not None:
                self._metrics.counter("sta.flow_cache_hits").inc()
            if self._tracer.enabled:
                self._tracer.event(
                    0.0, "sta", "flow_cache_hit", design=self.design.name
                )
        return self._memo[key]

    def report(self) -> STAReport:
        """The full report (slack + DRC + feasibility + empirical)."""
        return build_report(
            self.design,
            self.slack(),
            self.drc(),
            self.minimum_feasible_period("exact"),
            self.minimum_feasible_period("bound"),
            self.empirical(),
        )
