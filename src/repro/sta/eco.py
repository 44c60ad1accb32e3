"""Incremental engineering-change-order (ECO) re-analysis.

:class:`ECOSession` wraps a :class:`~repro.sta.design.Design` and accepts
typed edits — :meth:`repad_edge`, :meth:`retarget_wire`,
:meth:`resize_buffer`, :meth:`graft_subtree`, :meth:`set_period` —
recomputing only the slack rows and skew bounds each edit actually
dirties instead of re-running the full O(edges) pass:

=================  ====================================================
edit               dirty set
=================  ====================================================
``repad_edge``     one slack row (padding enters only that edge's lag)
``retarget_wire``  one slack row (wire length enters only that edge's lag)
``resize_buffer``  the COMM pairs with an endpoint inside the resized
                   edge's subtree (from the live LCA index; see below)
``graft_subtree``  no existing rows (new nodes carry no COMM edges);
                   the LCA index extends itself incrementally
``set_period``     no rows at all (the period is outside the stored
                   ``need`` vectors; verdict masks are re-derived lazily)
=================  ====================================================

:meth:`~ECOSession.set_channel_capacity` extends the same discipline to
the self-timed side: FIFO depths never enter a clocked lag, so no slack
row moves, and the session's flow memos (:meth:`~ECOSession.flow`) are
updated in place — a widened channel off the cached critical cycle keeps
the cached MCM solve outright (widening only lowers the means of cycles
*through* the edited edge), anything else re-solves warm-started from
the cached Howard policy.  Either way the answer is bit-identical to a
cold :func:`~repro.sta.flow.analyze_flow`.

The session maintains the per-edge *need* vectors (``need_exact =
lead + lag``, the exact-mode hold slack and period requirement;
``need_bound = sigma_ub + lag``; ``hold_bound = lag - sigma_ub``) plus
running argmax/argmin trackers over them, so ``worst_setup_slack`` /
``worst_hold_slack`` are O(1) per query (a lazy O(edges) rescan happens
only when an edit dirties the current champion row) and
``minimum_feasible_period`` is O(log) — the bisection core
(:func:`repro.sta.slack._bisect_period`) depends only on the scalar
``max(needs)``, which the tracker supplies.

**Bit-exactness contract.**  Every quantity the session exposes is
bit-identical to a fresh :func:`~repro.sta.slack.analyze_slack` /
:func:`~repro.sta.slack.minimum_feasible_period` over the mutated
design — not within-epsilon, identical floats.  The ingredients:

* refreshed rows recompute with the same elementwise arithmetic the full
  vector pass uses (all skew models are elementwise in the pair metrics,
  and IEEE-754 scalar and vectorized float64 ops round identically);
* ``fl(period - x)`` is monotone in ``x``, so ``min(period - need) ==
  period - max(need)`` exactly, which is what lets a running extremum
  answer ``worst_setup_slack``;
* after ``resize_buffer`` the session refreshes every pair with an
  endpoint inside the subtree (the OR set), not just the pairs whose
  paths cross the edge (the XOR set that
  :meth:`~repro.clocktree.lca.LiftingLCAIndex.pairs_through_node`
  reports): the subtree's root distances shift by a *rounded* constant,
  so an inside-inside pair's ``d``/``s`` can move by an ulp even though
  its exact-arithmetic value is unchanged.

The ``differential-eco`` check (and the hypothesis property suite)
replays randomized edit scripts asserting incremental == full after
every step; the full pass stays in the tree as the oracle.

The session is the one production holder of the slack state:
:class:`~repro.sta.analyzer.STAAnalyzer` reads a zero-edit session and
shares its empirical block; both reports are assembled by
:func:`~repro.sta.report.build_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.dataflow import _channel_depth
from repro.sta.design import Design, EdgeKey
from repro.sta.drc import run_drc
from repro.sta.flow import (
    FlowAnalysis,
    ServiceSpec,
    _service_vector,
    analyze_flow,
    detect_deadlock,
    flow_graph,
    mcm_howard,
)
from repro.sta.report import STAReport, build_report
from repro.sta.slack import (
    EdgeFlags,
    SlackAnalysis,
    _bisect_period,
    _edge_vectors,
    _frozen_analysis,
    classify_edges,
    race_floor_mask,
)

NodeId = Hashable

#: One grafted node: (parent, node, position, edge length).  The parent
#: may itself be a node grafted earlier in the same batch.
GraftNode = Tuple[NodeId, NodeId, Point, float]


@dataclass(frozen=True)
class EcoEdit:
    """The audit record of one applied edit."""

    op: str
    target: str
    dirty_rows: int
    semantic_dirty_rows: int
    edges: int

    @property
    def reuse_fraction(self) -> float:
        """Fraction of slack rows served from state instead of recomputed."""
        if self.edges == 0:
            return 1.0
        return 1.0 - self.dirty_rows / self.edges

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edit": self.op,
            "target": self.target,
            "dirty_rows": self.dirty_rows,
            "reuse_fraction": self.reuse_fraction,
        }


class _Extremum:
    """Running argmax/argmin over a mutable float64 vector.

    ``note_dirty(rows)`` is called *after* the rows' values change: if the
    champion itself was dirtied the tracker goes lazy (``-1``) and the
    next ``value()`` rescans in O(n); otherwise a dirtied row can only
    replace the champion by beating it, an O(|rows|) comparison.  The
    champion's value always equals the true extremum (any row attaining
    it gives the same float), which is all the callers consume.
    """

    __slots__ = ("_values", "_maximum", "_arg")

    def __init__(self, values: np.ndarray, maximum: bool) -> None:
        self._values = values
        self._maximum = maximum
        self._arg = -1

    def note_dirty(self, rows: np.ndarray) -> None:
        if self._arg < 0 or len(rows) == 0:
            return
        if bool(np.any(rows == self._arg)):
            self._arg = -1
            return
        sub = self._values[rows]
        if self._maximum:
            challenger = int(rows[int(np.argmax(sub))])
            if self._values[challenger] > self._values[self._arg]:
                self._arg = challenger
        else:
            challenger = int(rows[int(np.argmin(sub))])
            if self._values[challenger] < self._values[self._arg]:
                self._arg = challenger

    def value(self, default: float = 0.0) -> float:
        if len(self._values) == 0:
            return default
        if self._arg < 0:
            if self._maximum:
                self._arg = int(np.argmax(self._values))
            else:
                self._arg = int(np.argmin(self._values))
        return float(self._values[self._arg])


class ECOSession:
    """Sublinear what-if re-analysis over one mutable design.

    All edits must flow through the session: the design's
    :attr:`~repro.sta.design.Design.freshness_key` is snapshotted (and
    re-snapshotted after the session's own edits), so any out-of-band
    write — a design field, a padding or wire-override entry, the COMM
    graph, the clock tree — raises ``RuntimeError`` at the next edit or
    query (open a fresh session instead).  The wrapped design object *is*
    mutated (padding, wire overrides, tree) — that is the point: after a
    session the design and a fresh full analysis agree with everything
    the session reported.

    Instrumentation follows the repo convention — opt-in ``tracer=`` /
    ``metrics=`` kwargs, zero overhead when absent: one ``eco`` trace
    event per edit, plus ``eco.edits`` / ``eco.dirty_rows`` metrics.
    """

    def __init__(
        self,
        design: Design,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        self._design = design
        edges, lag, lead, sigma_ub, sigma_lb = _edge_vectors(design)
        self._edges: List[EdgeKey] = edges
        self._row: Dict[EdgeKey, int] = design.array.comm.edge_index()
        # Owned writable copies of the slack ingredients.
        self._lag = np.array(lag, dtype=np.float64)
        self._lead = np.array(lead, dtype=np.float64)
        self._sigma_ub = np.array(sigma_ub, dtype=np.float64)
        self._sigma_lb = np.array(sigma_lb, dtype=np.float64)
        self._need_exact = self._lead + self._lag
        self._need_bound = self._sigma_ub + self._lag
        self._hold_bound = self._lag - self._sigma_ub
        self._max_need_exact = _Extremum(self._need_exact, maximum=True)
        self._min_need_exact = _Extremum(self._need_exact, maximum=False)
        self._max_need_bound = _Extremum(self._need_bound, maximum=True)
        # Dense tree ids of each edge's endpoints, for subtree dirty sets.
        self._a_ids, self._b_ids = design.tree.pair_ids(self._edges)
        self._key = design.freshness_key
        self._edits: List[EcoEdit] = []
        self._flags_cache: Optional[EdgeFlags] = None
        # Self-timed channel capacities (session state, not on the
        # design: the clocked discipline has no FIFOs).  Missing edge =
        # unbounded.  The flow memos are keyed by (service vector bytes,
        # wire delay); capacity lives here and edits update the entries
        # in place — reusing the cached critical cycle when the edit
        # provably cannot move it.
        self._capacity: Dict[EdgeKey, int] = {}
        self._flow_cache: Dict[
            Tuple[bytes, float], Tuple[Dict[Any, float], FlowAnalysis]
        ] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def design(self) -> Design:
        """The design in its current (edited) state.  ``set_period``
        replaces the bundle, so re-read this property after edits."""
        return self._design

    @property
    def edits(self) -> List[EcoEdit]:
        return list(self._edits)

    def _check_external(self) -> None:
        if self._design.freshness_key != self._key:
            raise RuntimeError(
                "design, COMM graph or clock tree mutated outside the ECO "
                "session; its slack state is stale — route edits through the "
                "session or open a new one"
            )

    def _refresh_lag_row(self, i: int, edge: EdgeKey) -> None:
        """Recompute one row's lag and the vectors derived from it, with
        the exact scalar arithmetic of the full pass."""
        self._lag[i] = self._design.edge_lag(edge)
        self._need_exact[i] = self._lead[i] + self._lag[i]
        self._need_bound[i] = self._sigma_ub[i] + self._lag[i]
        self._hold_bound[i] = self._lag[i] - self._sigma_ub[i]

    def _record(
        self, op: str, target: str, rows: np.ndarray, semantic_rows: int
    ) -> EcoEdit:
        self._max_need_exact.note_dirty(rows)
        self._min_need_exact.note_dirty(rows)
        self._max_need_bound.note_dirty(rows)
        self._flags_cache = None
        self._key = self._design.freshness_key
        edit = EcoEdit(
            op=op,
            target=target,
            dirty_rows=int(len(rows)),
            semantic_dirty_rows=semantic_rows,
            edges=len(self._edges),
        )
        self._edits.append(edit)
        if self._metrics is not None:
            self._metrics.counter("eco.edits").inc()
            self._metrics.histogram("eco.dirty_rows").observe(float(len(rows)))
        if self._tracer.enabled:
            self._tracer.event(
                float(len(self._edits)),
                "eco",
                "edit",
                op=op,
                target=target,
                dirty_rows=int(len(rows)),
                reuse_fraction=edit.reuse_fraction,
            )
        return edit

    # ------------------------------------------------------------------
    # typed edits
    # ------------------------------------------------------------------
    def repad_edge(self, edge: EdgeKey, pad: float) -> EcoEdit:
        """Set the hold-fix padding of one directed COMM edge (zero
        removes the entry)."""
        return self._set_edge_length("repad_edge", "edge_padding", edge, pad)

    def retarget_wire(self, edge: EdgeKey, length: float) -> EcoEdit:
        """Reroute one directed COMM edge's data wire to a new length
        (its endpoints stay put; the layout distance is overridden)."""
        return self._set_edge_length(
            "retarget_wire", "wire_overrides", edge, length
        )

    def _set_edge_length(
        self, op: str, field_name: str, edge: EdgeKey, value: float
    ) -> EcoEdit:
        """Write one edge's entry of a design length map (which rejects a
        non-finite or negative value) and refresh that edge's one row."""
        self._check_external()
        i = self._row.get(edge)
        if i is None:
            raise KeyError(f"edge {edge!r} is not a COMM edge")
        lengths = getattr(self._design, field_name)
        if op == "repad_edge" and value == 0.0:
            lengths.pop(edge, None)
        else:
            lengths[edge] = float(value)
        self._refresh_lag_row(i, edge)
        rows = np.array([i], dtype=np.int64)
        return self._record(op, _edge_str(edge), rows, 1)

    def resize_buffer(self, node: NodeId, length: float) -> EcoEdit:
        """Retune the clock-tree edge above ``node`` (a resized buffer
        string changes the edge's electrical length).

        Dirties the COMM pairs with an endpoint inside ``node``'s subtree.
        The *semantically* dirty pairs are only those whose tree path
        crosses the resized edge (exactly one endpoint inside —
        ``pairs_through_node``), but the subtree shift is applied in
        floating point, so inside-inside pairs are conservatively
        refreshed too to keep the bit-exactness contract.
        """
        self._check_external()
        design = self._design
        tree = design.tree
        tree.set_edge_length(node, length)  # validates node and length
        index = tree.lca_index()
        nid = index.node_id(node)
        in_a = index.in_subtree_ids(nid, self._a_ids)
        in_b = index.in_subtree_ids(nid, self._b_ids)
        rows = np.flatnonzero(in_a | in_b)
        semantic = int(np.count_nonzero(in_a ^ in_b))
        if len(rows):
            sub_edges = [self._edges[int(i)] for i in rows]
            self._sigma_ub[rows] = design.model.skew_bound_batch(tree, sub_edges)
            self._sigma_lb[rows] = design.model.skew_lower_bound_batch(
                tree, sub_edges
            )
            self._need_bound[rows] = self._sigma_ub[rows] + self._lag[rows]
            self._hold_bound[rows] = self._lag[rows] - self._sigma_ub[rows]
        return self._record("resize_buffer", str(node), rows, semantic)

    def graft_subtree(self, additions: Sequence[GraftNode]) -> EcoEdit:
        """Grow the clock tree by a batch of new nodes.

        New nodes carry no COMM edges yet, so no existing slack row moves;
        the live LCA index extends itself incrementally on its next query
        (no rebuild).  Later edits (a resize above the graft point) see
        the new topology automatically.
        """
        self._check_external()
        tree = self._design.tree
        for parent, node, position, length in additions:
            tree.add_child(parent, node, position, length)
        rows = np.empty(0, dtype=np.int64)
        return self._record(
            "graft_subtree", f"{len(additions)} nodes", rows, 0
        )

    def set_period(self, period: float) -> EcoEdit:
        """Re-clock the design at a new period (offsets kept).

        O(1): the stored vectors are period-free ``need`` forms; only the
        verdict masks depend on the period and they are re-derived lazily.
        """
        self._check_external()
        if not math.isfinite(period) or period <= 0:
            raise ValueError(f"period must be positive and finite, got {period}")
        self._design = self._design.with_period(float(period))
        rows = np.empty(0, dtype=np.int64)
        return self._record("set_period", f"{float(period):g}", rows, 0)

    def set_channel_capacity(self, edge: EdgeKey, depth: int) -> EcoEdit:
        """Set the finite FIFO depth of one directed COMM channel.

        Clocked slack rows are untouched (capacity is a self-timed
        quantity that never enters a lag), so the edit dirties zero
        rows; the incrementality lives in the flow memos.  A *widening*
        (finite depth raised) of a channel off a cached critical cycle
        keeps that cached solve: extra slots only add tokens to — i.e.
        lower the means of — cycles through the edited edge, so the
        argmax cycle and its ratio are unchanged, exactly, and deadlock
        cannot appear.  Any other edit (first finite depth, a narrowing,
        a touched critical cycle, or a previously dead graph) re-solves
        the entry, warm-starting Howard from the cached policy.
        """
        self._check_external()
        depth = _channel_depth(depth, edge)
        if edge not in self._row:
            raise KeyError(f"edge {edge!r} is not a COMM edge")
        old = self._capacity.get(edge)
        self._capacity[edge] = depth
        widening = old is not None and depth >= old
        comm = self._design.array.comm
        cap = dict(self._capacity)
        reused = 0
        recomputed = 0
        for key, (svc_map, analysis) in list(self._flow_cache.items()):
            wire = key[1]
            fg = flow_graph(comm, svc_map, wire, cap)
            keep = (
                widening
                and analysis.cycle is not None
                and edge not in analysis.critical_comm_edges()
            )
            if keep:
                fresh = FlowAnalysis(
                    graph=fg, deadlock=None, cycle=analysis.cycle
                )
                reused += 1
            else:
                dead = detect_deadlock(comm, cap)
                warm = (
                    analysis.cycle.policy
                    if analysis.cycle is not None
                    else None
                )
                cycle = (
                    mcm_howard(fg, warm_start=warm) if dead is None else None
                )
                fresh = FlowAnalysis(graph=fg, deadlock=dead, cycle=cycle)
                recomputed += 1
            self._flow_cache[key] = (svc_map, fresh)
        if self._metrics is not None:
            if reused:
                self._metrics.counter("eco.flow_reuse").inc(reused)
            if recomputed:
                self._metrics.counter("eco.flow_recompute").inc(recomputed)
        rows = np.empty(0, dtype=np.int64)
        return self._record(
            "set_channel_capacity",
            f"{_edge_str(edge)} depth={depth}",
            rows,
            recomputed,
        )

    def apply(self, op: str, **params: Any) -> EcoEdit:
        """Dispatch one edit by name — the edit-script entry point."""
        if op == "repad_edge":
            return self.repad_edge(params["edge"], params["pad"])
        if op == "retarget_wire":
            return self.retarget_wire(params["edge"], params["length"])
        if op == "resize_buffer":
            return self.resize_buffer(params["node"], params["length"])
        if op == "graft_subtree":
            return self.graft_subtree(params["additions"])
        if op == "set_period":
            return self.set_period(params["period"])
        if op == "set_channel_capacity":
            return self.set_channel_capacity(params["edge"], params["depth"])
        raise ValueError(f"unknown ECO op {op!r}")

    # ------------------------------------------------------------------
    # queries (all bit-identical to the full recompute)
    # ------------------------------------------------------------------
    def worst_setup_slack(self) -> float:
        self._check_external()
        if not self._edges:
            return 0.0
        return float(self._design.period - self._max_need_exact.value())

    def worst_hold_slack(self) -> float:
        self._check_external()
        if not self._edges:
            return 0.0
        return self._min_need_exact.value()

    def minimum_feasible_period(
        self,
        mode: str = "exact",
        tol: float = 1e-9,
        max_iterations: int = 200,
    ) -> float:
        """Warm minimum-feasible-period: O(log) bisection from the tracked
        ``max(needs)`` — identical decisions, identical float, to the full
        O(edges) :func:`~repro.sta.slack.minimum_feasible_period`."""
        self._check_external()
        if not self._edges:
            return 0.0
        if mode == "exact":
            needs_max = self._max_need_exact.value()
        elif mode == "bound":
            needs_max = self._max_need_bound.value()
        else:
            raise ValueError(f"unknown slack mode {mode!r} (exact|bound)")
        return _bisect_period(needs_max, tol=tol, max_iterations=max_iterations)

    def _flags(self) -> EdgeFlags:
        """The shared classification of the current state, re-derived
        lazily after edits."""
        self._check_external()
        if self._flags_cache is None:
            period = self._design.period
            self._flags_cache = classify_edges(
                period - self._need_exact,
                self._need_exact,
                period - self._need_bound,
                self._hold_bound,
                race_floor_mask(self._lag, self._sigma_lb),
            )
        return self._flags_cache

    def counts(self) -> Dict[str, int]:
        """Flag counts in the shape :func:`~repro.sta.report.build_report`
        computes (sans DRC)."""
        out: Dict[str, int] = {"edges": len(self._edges)}
        out.update(self._flags().counts())
        return out

    def timing_clean(self) -> bool:
        counts = self.counts()
        return counts["stale"] == 0 and counts["race"] == 0

    def robust_clean(self) -> bool:
        return self._flags().robust

    @property
    def channel_capacities(self) -> Dict[EdgeKey, int]:
        """The session's current per-edge FIFO depths (missing =
        unbounded)."""
        return dict(self._capacity)

    def flow(
        self, service: ServiceSpec = 1.0, wire_delay: float = 0.0
    ) -> FlowAnalysis:
        """Static flow analysis under the session's channel capacities.

        Memoized per (service vector, wire delay); capacity edits keep
        the memo live — see :meth:`set_channel_capacity`.  Every answer
        is bit-identical to a cold :func:`~repro.sta.flow.analyze_flow`
        over the current capacity map (the ``differential-eco`` suite
        replays edit scripts asserting exactly that).
        """
        self._check_external()
        comm = self._design.array.comm
        cells = comm.nodes()
        services = _service_vector(cells, service)
        key = (services.tobytes(), float(wire_delay))
        entry = self._flow_cache.get(key)
        if entry is None:
            svc_map = {
                c: float(s) for c, s in zip(cells, services.tolist())
            }
            cap = dict(self._capacity) if self._capacity else None
            entry = (svc_map, analyze_flow(comm, svc_map, wire_delay, cap))
            self._flow_cache[key] = entry
        return entry[1]

    def analysis(self) -> SlackAnalysis:
        """Materialize the current state as a frozen
        :class:`~repro.sta.slack.SlackAnalysis` — bit-identical to
        ``analyze_slack(session.design)``."""
        self._check_external()
        return _frozen_analysis(
            self._design.period,
            self._edges,
            self._lag.copy(),
            self._lead.copy(),
            self._sigma_ub.copy(),
            self._sigma_lb.copy(),
        )

    def summary(self) -> Dict[str, Any]:
        """The cheap always-incremental digest of the current state."""
        out: Dict[str, Any] = dict(self.counts())
        out["worst_setup_slack"] = self.worst_setup_slack()
        out["worst_hold_slack"] = self.worst_hold_slack()
        out["min_feasible_period_exact"] = self.minimum_feasible_period("exact")
        out["min_feasible_period_bound"] = self.minimum_feasible_period("bound")
        out["timing_clean"] = self.timing_clean()
        out["robust_clean"] = self.robust_clean()
        out["edits_applied"] = len(self._edits)
        return out

    def empirical(self) -> Optional[Dict[str, Any]]:
        """Cross-check of the buffered realization against the abstract
        model: the largest *measured* arrival-time skew over COMM edges vs
        the model's largest upper bound.  ``within_model`` false means the
        concrete tree drifted outside the model the rest of the analysis
        assumed (bound-mode conclusions don't transfer to it).  ``None``
        for a design without a buffered realization."""
        self._check_external()
        buffered = self._design.buffered
        if buffered is None:
            return None
        max_skew = buffered.max_skew(self._edges)
        sigma_ub_max = float(self._sigma_ub.max()) if self._edges else 0.0
        return {
            "max_skew": max_skew,
            "model_sigma_ub_max": sigma_ub_max,
            "within_model": bool(max_skew <= sigma_ub_max + 1e-12),
            "tree_version": buffered.version,
        }

    def report(self) -> STAReport:
        """A full schema-valid report of the current state (the CLI emits
        one per edit-script step).  DRC re-runs fresh; the slack pieces
        come from the incremental state.  The last edit's audit record is
        attached as the report's ``eco`` block.
        """
        analysis = self.analysis()
        report = build_report(
            self._design,
            analysis,
            run_drc(self._design, analysis),
            self.minimum_feasible_period("exact"),
            self.minimum_feasible_period("bound"),
            self.empirical(),
        )
        if self._edits:
            report.eco = self._edits[-1].to_dict()
        return report


def _edge_str(edge: EdgeKey) -> str:
    return f"{edge[0]!r}->{edge[1]!r}"
