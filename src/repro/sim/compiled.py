"""Array-compiled simulation kernels.

The scalar simulators (:mod:`repro.sim.clocked`, the tandem recurrence of
:mod:`repro.sim.dataflow`, the hybrid max-plus loops) interpret the object
graph one (cell, tick) at a time — O(cells x ticks) Python dispatch.  The
analyses that matter at paper scale (A5 violation sets on 4096-cell
meshes, Monte-Carlo sweeps, the scaling benches) repeat those runs over a
*fixed structure*, so this module splits them into

* a one-time **compile** step that lowers a program + schedule + wire
  model into dense numpy index arrays (sender/receiver ids per directed
  edge, per-edge data-path lag, per-cell clock offsets, captured
  predecessor orders), and
* **vectorized execute** steps that evaluate all latch generations, the
  full :class:`~repro.sim.clocked.TimingViolation` set, the self-timed
  wavefront recurrence, or the hybrid neighbor barrier in O(edges x
  ticks) array operations.

Every kernel is an *exact* replacement, not an approximation: the same
float64 operations in the same order as the scalar reference, so payloads,
makespans, and violation lists are byte-identical.  The scalar paths stay
in the tree as the oracle (``run_scalar``, ``timing_scalar``,
``recurrence_makespan_scalar``) and the differential/property suites
assert the agreement.

Clocked timing has one implementation, :class:`CompiledTimingKernel`
(one latch scan, one violation order, monolithic or streamed per edge
block).  :class:`CompiledClockedKernel` runs on one and adds only the
functional half: a clean run executes on arrays through
:func:`repro.sim.batch.execute_lockstep`; dirty runs and programs outside
the batch evaluators replay events in exact scalar order from the scan's
latch generations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.arrays.systolic import SystolicProgram
from repro.graphs.comm import CommGraph
from repro.graphs.csr import CSRAdjacency
from repro.obs.spans import SpanTracer
from repro.sim import batch
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import (
    ClockedRunResult,
    TimingViolation,
    _ExecutorFacade,
)
from repro.sim.dataflow import _capacity_items, _credit_order

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]

#: Matches the scalar latch scan's guard band (``clocked.py``).
_LATCH_TOL = 1e-12


@dataclass(frozen=True)
class TimingResult:
    """Timing-only outcome of a clocked evaluation: the A5 violation set
    (in exact scalar event order) plus the makespan — what the scaling
    benches and the static analyses need when no payload execution is
    wanted (or possible, at 10^6 cells)."""

    violations: List[TimingViolation]
    makespan: float
    ticks: int

    @property
    def clean(self) -> bool:
        return not self.violations


def _order_violation_entries(
    slot: np.ndarray,
    dst: np.ndarray,
    e_idx: np.ndarray,
    k_idx: np.ndarray,
    t_vals: np.ndarray,
) -> np.ndarray:
    """Permutation putting violating (edge, tick) entries into exact
    scalar order.

    The scalar event loop visits events sorted by (time, tick, cell
    insertion index) and, within an event, predecessors in captured slot
    order.  Since (time, tick, cell) uniquely identifies an event, a
    direct lexsort on (t, k, dst, slot) reproduces that order without
    materializing a global event rank — which is what lets violation
    extraction stream per edge block."""
    return np.lexsort((slot[e_idx], dst[e_idx], k_idx, t_vals))


def _violation_entries(
    lo: int, t_latch: np.ndarray, g: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Violating entries of a latch block whose first edge is ``lo``:
    (edge, tick, latch time, latched generation) arrays."""
    expected = np.arange(g.shape[1], dtype=np.int64) - 1
    mask = g != expected[None, :]
    # Tick 0 expects -1; a latch of -1 (or below) is not a violation
    # there (both sides pre-first-tick), matching the scalar guard.
    mask[:, 0] &= g[:, 0] >= 0
    e_off, k_idx = np.nonzero(mask)
    return e_off + lo, k_idx, t_latch[e_off, k_idx], g[e_off, k_idx]


class CompiledClockedKernel:
    """A :class:`~repro.sim.clocked.ClockedArraySimulator` lowered to
    arrays: compile once, run many times.

    The timing half is :attr:`timing_kernel`, a
    :class:`CompiledTimingKernel` over the receiver-grouped edges
    (predecessors in captured slot order, cell labels attached), so the
    clocked simulator and the large-N timing analysis share one latch
    scan and one violation order.  ``edge_delay`` is the simulator's
    per-directed-edge data propagation delay (wire model plus hold
    padding), so the kernel and the scalar path consume the *same*
    precomputed lags.
    """

    def __init__(
        self,
        program: SystolicProgram,
        schedule: ClockSchedule,
        delta: float,
        edge_delay: Mapping[EdgeKey, float],
    ) -> None:
        comm: CommGraph = program.array.comm
        self._program = program
        self.comm_version = comm.version
        cells = comm.nodes()
        self._cells: List[CellId] = cells
        index = {c: i for i, c in enumerate(cells)}
        # Captured once: the scalar path iterates a fresh set copy per
        # event, which is order-stable within a process, so one snapshot
        # reproduces the scalar input-dict and violation order exactly.
        self._preds: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(comm.predecessors(c)) for c in cells
        }
        self._succs: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(comm.successors(c)) for c in cells
        }
        indptr: List[int] = [0]
        src_ids: List[int] = []
        lags: List[float] = []
        edge_id: Dict[EdgeKey, int] = {}
        for c in cells:
            for u in self._preds[c]:
                edge_id[(u, c)] = len(src_ids)
                src_ids.append(index[u])
                lags.append(delta + edge_delay[(u, c)])
            indptr.append(len(src_ids))
        self._edge_id = edge_id
        # Rows keep the captured predecessor order (the violation
        # tie-break).  A plain ClockSchedule is affine; subclasses such as
        # JitteredSchedule override tick_time and are tabulated.
        self.timing_kernel = CompiledTimingKernel(
            CSRAdjacency(
                indptr=np.asarray(indptr, dtype=np.int64),
                indices=np.asarray(src_ids, dtype=np.int64),
                nodes=cells,
            ),
            [schedule.offset(c) for c in cells],
            schedule.period,
            lag=np.asarray(lags, dtype=np.float64),
            tick_time=(
                None if type(schedule) is ClockSchedule else schedule.tick_time
            ),
        )

    def run(
        self, ticks: Optional[int] = None, tracer: Optional[Any] = None
    ) -> ClockedRunResult:
        """Byte-identical to the scalar ``ClockedArraySimulator.run``:
        same result payload, same violation list (contents *and* order),
        same makespan.

        One latch scan per run: its generations yield the violation list
        and, for a dirty run, drive the event replay.  An enabled
        ``tracer`` adds per-phase spans (tick-matrix, latch scan,
        violation extraction, execute) around the same arithmetic; a
        disabled one makes every span a no-op.
        """
        n_ticks = ticks if ticks is not None else self._program.cycles
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        spans = tracer if isinstance(tracer, SpanTracer) else SpanTracer(tracer)
        kernel = self.timing_kernel
        with spans.span("compiled.run", ticks=n_ticks, cells=len(self._cells)):
            with spans.span("compiled.tick_matrix"):
                T = kernel.tick_matrix(n_ticks)
            with spans.span("compiled.latch_scan"):
                t_latch, g = kernel.latch_scan(T)
            with spans.span("compiled.violations") as h:
                violations = kernel.violations(t_latch, g)
                h.annotate(count=len(violations))
            with spans.span("compiled.execute"):
                result = self._execute(T, g, n_ticks, not violations)
        return ClockedRunResult(
            result=result,
            violations=violations,
            ticks=n_ticks,
            makespan=kernel.makespan(n_ticks, T),
        )

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------
    def _execute(
        self, T: np.ndarray, g: np.ndarray, n_ticks: int, clean: bool
    ) -> Any:
        """The functional half of :meth:`run`.  A clean run is lockstep
        equivalent, so :func:`repro.sim.batch.execute_lockstep` computes
        it on arrays; a dirty run, or a program outside the batch
        evaluators, replays with the scan's latch generations ``g``."""
        if clean:
            try:
                return batch.execute_lockstep(self._program, n_ticks)
            except batch.BatchUnsupported:
                pass
        return self._replay(T, g, n_ticks)

    def _replay(self, T: np.ndarray, g: np.ndarray, n_ticks: int) -> Any:
        """Event-order functional replay using the latch generations —
        exact scalar semantics for dirty runs and programs the batch
        evaluators cannot express.  Events go in scalar order: by time,
        then tick, then cell position."""
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()
        cells = self._cells
        n_cells = len(cells)
        k_flat = np.tile(np.arange(n_ticks, dtype=np.int64), n_cells)
        i_flat = np.repeat(np.arange(n_cells, dtype=np.int64), n_ticks)
        order = np.lexsort((i_flat, k_flat, T.ravel()))
        cell_seq = (order // n_ticks).tolist()
        tick_seq = (order % n_ticks).tolist()
        g_rows = g.tolist()
        history: List[List[Any]] = [[None] * n_ticks for _ in range(len(g_rows))]
        edge_id = self._edge_id
        pred_info = [
            [(u, edge_id[(u, c)]) for u in self._preds[c]] for c in cells
        ]
        succ_info = [
            [(v, edge_id[(c, v)]) for v in self._succs[c]] for c in cells
        ]
        fires = [pes[c].fire for c in cells]
        for ci, k in zip(cell_seq, tick_seq):
            inputs: Dict[CellId, Any] = {}
            for u, e in pred_info[ci]:
                gen = g_rows[e][k]
                inputs[u] = history[e][gen] if 0 <= gen < n_ticks else None
            outputs = fires[ci](inputs)
            for v, e in succ_info[ci]:
                history[e][k] = outputs.get(v) if outputs else None
        return self._program.read_result(_ExecutorFacade(pes))


def compile_clocked(simulator: Any) -> CompiledClockedKernel:
    """Lower a :class:`~repro.sim.clocked.ClockedArraySimulator` into its
    array kernel (also available as ``simulator.compiled()``)."""
    return simulator.compiled()


# ----------------------------------------------------------------------
# clocked timing kernel: the one latch scan
# ----------------------------------------------------------------------
class CompiledTimingKernel:
    """Clocked timing analysis straight from arrays.

    Built from a :class:`~repro.graphs.csr.CSRAdjacency` (row order is
    the predecessor order the violation list follows), per-cell clock
    offsets, a period and a per-edge data-path lag — no object graph, so
    it runs at 10^6 cells.  Tick ``k`` at cell ``c`` is ``offset + k *
    period`` unless ``tick_time(cell, k)`` is given for a tabulated
    schedule (e.g. :class:`~repro.sim.faults.JitteredSchedule`).
    Violation edges are ``(src, dst)`` pairs of ``adjacency.nodes``
    labels, or of dense ints ``0..n-1`` when it has none.

    The latch arithmetic is exactly the scalar simulator's
    (``_latched_sender_tick``: floor estimate, +3 guard, downward scan
    with the 1e-12 tolerance), evaluated monolithically or streamed per
    edge block (:meth:`timing`); :meth:`timing_scalar` is the per-event
    Python oracle for affine kernels at co-runnable sizes.
    :meth:`arrays` / :meth:`from_arrays` round-trip an affine,
    unlabelled kernel through raw numpy buffers so
    :class:`~repro.analysis.shared.SharedArena` can ship it to worker
    processes without pickling.
    """

    def __init__(
        self,
        adjacency: CSRAdjacency,
        offsets: Any,
        period: float,
        lag: Any = 0.0,
        tick_time: Optional[Callable[[CellId, int], float]] = None,
    ) -> None:
        offsets_arr = np.ascontiguousarray(np.asarray(offsets, dtype=np.float64))
        n = adjacency.n_cells
        if offsets_arr.shape != (n,):
            raise ValueError(
                f"offsets shape {offsets_arr.shape} != ({n},) cells"
            )
        if not period > 0:
            raise ValueError("period must be positive")
        indptr = np.ascontiguousarray(adjacency.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(adjacency.indices, dtype=np.int64)
        counts = np.diff(indptr)
        self._indptr = indptr
        self._src = indices
        self._dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Slot = position within the receiver's predecessor list (CSR
        # row order): the within-event tie-break of the violation order.
        self._slot = np.arange(len(indices), dtype=np.int64) - np.repeat(
            indptr[:-1], counts
        )
        lag_arr = np.asarray(lag, dtype=np.float64)
        if lag_arr.ndim == 0:
            lag_arr = np.broadcast_to(lag_arr, indices.shape)
        elif lag_arr.shape != indices.shape:
            raise ValueError(
                f"lag shape {lag_arr.shape} != ({len(indices)},) edges"
            )
        self._lag = np.ascontiguousarray(lag_arr)
        self._offsets = offsets_arr
        self._period = float(period)
        self._cells: Sequence[Any] = (
            adjacency.nodes if adjacency.nodes is not None else range(n)
        )
        self._tick_time = tick_time

    @property
    def n_cells(self) -> int:
        return len(self._offsets)

    @property
    def n_edges(self) -> int:
        return len(self._src)

    def tick_matrix(self, n_ticks: int) -> np.ndarray:
        """``T[c, k]`` = absolute time of tick ``k`` at cell ``c``, with
        exactly the scalar arithmetic (``offset + k * period`` per
        element when affine; ``tick_time`` calls otherwise)."""
        if self._tick_time is None:
            ks = np.arange(n_ticks, dtype=np.float64) * self._period
            return self._offsets[:, None] + ks[None, :]
        tick_time = self._tick_time
        T = np.empty((len(self._cells), n_ticks), dtype=np.float64)
        for row, c in zip(T, self._cells):
            for k in range(n_ticks):
                row[k] = tick_time(c, k)
        return T

    def makespan(self, n_ticks: int, T: Optional[np.ndarray] = None) -> float:
        """The latest tick time, from ``T`` when given.  Affine kernels
        need no matrix: the max over ``{offsets[c] + ks[k]}`` is attained
        at the argmax of each term and computed by the same float64 add,
        so the closed form equals ``float(T.max())`` bit for bit."""
        if T is None and self._tick_time is not None:
            T = self.tick_matrix(n_ticks)
        if T is not None:
            return max(0.0, float(T.max())) if T.size else 0.0
        if not len(self._offsets):
            return 0.0
        last = np.float64(n_ticks - 1) * self._period
        return max(0.0, float(self._offsets.max() + last))

    def _sender_times(self, T: np.ndarray) -> Optional[np.ndarray]:
        """Tabulated schedules only: tick times of every sender
        generation the scan can reach.  Floor, division and subtraction
        are monotone in the latch time, so each edge's largest starting
        generation comes from its receiver's latest tick — one exact
        bound for every block.  Entries at equal (cell, k) are identical
        whatever the table size."""
        if self._tick_time is None or not len(self._src):
            return None
        latest = T.max(axis=1)[self._dst]
        start = np.floor(
            (latest - self._offsets[self._src] - self._lag) / self._period
        )
        bound = int(start.max()) + 3
        return self.tick_matrix(max(bound, T.shape[1] - 1) + 1)

    def _latched_sender_tick(
        self,
        lo: int,
        hi: int,
        n_ticks: int,
        T: Optional[np.ndarray],
        Tall: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_latch, g)`` for directed edges ``[lo, hi)``: per (edge,
        receiver tick), the latch time and the latched sender
        generation — the vectorized scalar ``_latched_sender_tick``.
        Affine kernels evaluate latch and send times in closed form
        (``T`` may be omitted); tabulated ones read the receiver's row of
        ``T`` and the sender's row of ``Tall``."""
        dst = self._dst[lo:hi]
        src = self._src[lo:hi]
        lag = self._lag[lo:hi][:, None]
        off_u = self._offsets[src][:, None]
        if T is None:
            ks_time = np.arange(n_ticks, dtype=np.float64) * self._period
            t_latch = self._offsets[dst][:, None] + ks_time[None, :]
        else:
            t_latch = T[dst]
        # The scalar arithmetic, operation for operation, in preallocated
        # (edges x ticks) buffers: no fresh temporary per operation.
        estimate = t_latch - off_u
        estimate -= lag
        estimate /= self._period
        g = np.floor(estimate, out=estimate).astype(np.int64)
        g += 3                                      # covers ~1.5 periods of jitter
        thresh = t_latch + _LATCH_TOL
        sent = estimate  # reused: off_u + g * period, then + lag
        late = np.empty(g.shape, dtype=bool)
        live = np.empty(g.shape, dtype=bool)
        src_col = src[:, None]
        while True:
            if Tall is None:
                np.multiply(g, self._period, out=sent)
                sent += off_u
            else:
                sent = Tall[src_col, np.maximum(g, 0)]
            sent += lag
            np.greater(sent, thresh, out=late)
            late &= np.greater_equal(g, 0, out=live)
            if not late.any():
                break
            g -= late
        return t_latch, g

    def latch_scan(self, T: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Monolithic ``(t_latch, g)`` over every edge, against the full
        tick matrix ``T`` from :meth:`tick_matrix`."""
        n_ticks = T.shape[1]
        return self._latched_sender_tick(
            0, len(self._src), n_ticks, T, self._sender_times(T)
        )

    def violations(
        self, t_latch: np.ndarray, g: np.ndarray
    ) -> List[TimingViolation]:
        """The violation list of a monolithic :meth:`latch_scan`, in
        exact scalar order."""
        return self._materialize([_violation_entries(0, t_latch, g)])

    def _materialize(
        self, entries: Sequence[Tuple[np.ndarray, ...]]
    ) -> List[TimingViolation]:
        """Order per-block violating entries (:func:`_violation_entries`)
        and build the :class:`TimingViolation` list."""
        e_idx, k_idx, t_vals, g_vals = (np.concatenate(col) for col in zip(*entries))
        if not len(e_idx):
            return []
        perm = _order_violation_entries(self._slot, self._dst, e_idx, k_idx, t_vals)
        e_idx = e_idx[perm]
        cells = self._cells
        return [
            TimingViolation(
                edge=(cells[u], cells[v]),
                receiver_tick=k,
                expected_sender_tick=k - 1,
                actual_sender_tick=actual,
            )
            for u, v, k, actual in zip(
                self._src[e_idx].tolist(),
                self._dst[e_idx].tolist(),
                k_idx[perm].tolist(),
                g_vals[perm].tolist(),
            )
        ]

    def timing(
        self, n_ticks: int, edge_block: Optional[int] = None
    ) -> TimingResult:
        """The full violation set (exact scalar order) and makespan.

        ``edge_block`` bounds peak memory at O(block x ticks) for affine
        kernels; any block size — including the default single
        monolithic block — yields a bit-identical result."""
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        if edge_block is not None and edge_block < 1:
            raise ValueError("edge_block must be positive")
        n_edges = len(self._src)
        block = edge_block if edge_block is not None else max(n_edges, 1)
        T = Tall = None
        if self._tick_time is not None:
            T = self.tick_matrix(n_ticks)
            Tall = self._sender_times(T)
        entries = []
        for lo in range(0, max(n_edges, 1), block):
            hi = min(lo + block, n_edges)
            t_latch, g = self._latched_sender_tick(lo, hi, n_ticks, T, Tall)
            entries.append(_violation_entries(lo, t_latch, g))
        return TimingResult(
            violations=self._materialize(entries),
            makespan=self.makespan(n_ticks, T),
            ticks=n_ticks,
        )

    def timing_scalar(self, n_ticks: int) -> TimingResult:
        """Per-event Python reference: the scalar simulator's event loop
        (events sorted by time, tick, cell; predecessors in CSR row
        order) with the same latch scan — the oracle :meth:`timing` is
        differentially tested against."""
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        offsets = self._offsets
        period = self._period
        indptr = self._indptr
        indices = self._src
        lag = self._lag
        n = len(offsets)
        events = sorted(
            (offsets[i] + k * period, k, i)
            for i in range(n)
            for k in range(n_ticks)
        )
        violations: List[TimingViolation] = []
        makespan = 0.0
        for t_latch, k, v in events:
            makespan = max(makespan, t_latch)
            expected = k - 1
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                path_lag = lag[e]
                estimate = int(
                    math.floor((t_latch - offsets[u] - path_lag) / period)
                )
                kk = estimate + 3  # covers jitter up to ~1.5 periods
                while kk >= 0 and offsets[u] + kk * period + path_lag > t_latch + _LATCH_TOL:
                    kk -= 1
                if kk != expected and (kk >= 0 or expected >= 0):
                    violations.append(
                        TimingViolation(
                            edge=(int(u), int(v)),
                            receiver_tick=k,
                            expected_sender_tick=expected,
                            actual_sender_tick=kk,
                        )
                    )
        return TimingResult(
            violations=violations, makespan=float(makespan), ticks=n_ticks
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        """The kernel's defining arrays, keyed for
        :class:`~repro.analysis.shared.SharedArena` shipping.  Scalars
        travel in ``params`` so the manifest stays arrays-only."""
        return {
            "indptr": self._indptr,
            "indices": self._src,
            "offsets": self._offsets,
            "lag": self._lag,
            "params": np.array([self._period], dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledTimingKernel":
        """Rebuild from :meth:`arrays` output (possibly views into a
        shared-memory segment — the big buffers are used zero-copy; only
        the derived ``dst``/``slot`` index arrays are recomputed)."""
        adjacency = CSRAdjacency(
            indptr=np.asarray(arrays["indptr"]),
            indices=np.asarray(arrays["indices"]),
        )
        return cls(
            adjacency,
            arrays["offsets"],
            float(np.asarray(arrays["params"])[0]),
            lag=np.asarray(arrays["lag"]),
        )


# ----------------------------------------------------------------------
# self-timed tandem recurrence
# ----------------------------------------------------------------------
class CompiledRecurrence:
    """The COMM graph of the tandem recurrence, compiled once into index
    arrays: edges grouped by receiver for the forward maxima
    (``np.maximum.reduceat``), and each COMM edge's sender/consumer
    indices in COMM edge order for the capacity back-edges.

    :meth:`stepper` evaluates it wave by wave; :meth:`makespan` is the
    fixed-horizon form of the same stepper.  Both equal
    :meth:`~repro.sim.dataflow.SelfTimedProgramSimulator.
    recurrence_makespan_scalar` exactly in every capacity regime.
    """

    def __init__(self, comm: CommGraph) -> None:
        self.comm_version = comm.version
        self._cells = comm.nodes()
        self._edges = comm.edges()
        self._edge_index = comm.edge_index()
        index = {c: i for i, c in enumerate(self._cells)}
        src: List[int] = []
        group_starts: List[int] = []
        group_cells: List[int] = []
        for c in self._cells:
            preds = comm.predecessors(c)
            if preds:
                group_starts.append(len(src))
                group_cells.append(index[c])
                src.extend(index[p] for p in preds)
        self._src = np.asarray(src, dtype=np.int64)
        self._group_starts = np.asarray(group_starts, dtype=np.int64)
        self._group_cells = np.asarray(group_cells, dtype=np.int64)
        # COMM edges come grouped by sender, so any subset keeps that
        # grouping for the back-edge ``reduceat``.
        self._sender = np.asarray(
            [index[u] for u, _ in self._edges], dtype=np.int64
        )
        self._consumer = np.asarray(
            [index[v] for _, v in self._edges], dtype=np.int64
        )

    def _service_column(self, service: Any) -> Optional[np.ndarray]:
        """Wave-invariant per-cell service column, or ``None`` when the
        callable varies by wave (``constant_duration`` /
        ``cell_durations`` attributes — see :func:`repro.sim.dataflow.
        constant_service` and :func:`~repro.sim.dataflow.per_cell_service`)."""
        constant = getattr(service, "constant_duration", None)
        if constant is not None:
            return np.full(len(self._cells), float(constant))
        durations = getattr(service, "cell_durations", None)
        if durations is not None:
            return np.asarray(
                [float(durations[c]) for c in self._cells], dtype=np.float64
            )
        return None

    def stepper(
        self,
        service: Any,
        wire_delay: float,
        capacity: Any = None,
    ) -> "RecurrenceStepper":
        """A wave-at-a-time evaluator over this compiled structure,
        exposing the full finish vector after each wave.  ``capacity`` is
        any :data:`~repro.sim.dataflow.CapacitySpec`."""
        return RecurrenceStepper(self, service, wire_delay, capacity=capacity)

    def makespan(
        self,
        service: Any,
        wire_delay: float,
        n_waves: int,
        capacity: Any = None,
    ) -> float:
        """Makespan after ``n_waves`` waves (``>= 1``)."""
        return self.stepper(service, wire_delay, capacity=capacity).run(n_waves)


class RecurrenceStepper:
    """Wave-at-a-time evaluation of the compiled tandem recurrence.

    Each bounded channel ``c -> s`` of depth ``d`` adds the marked-graph
    credit term ``start[c][w] >= start[s][w-d+1]`` once ``w >= d``.
    Channels are grouped by depth: a depth ``d >= 2`` group reads the
    start row of wave ``w - d + 1`` from a sliding window; the depth-1
    group couples starts *within* a wave and is relaxed to its fixpoint
    last (exact: each pass only takes maxima of floats already in the
    vector, so it reaches the closure the scalar consumers-first sweep
    computes).  ``max`` is order-free and the single add per cell is the
    scalar loop's, so every finish vector equals the scalar oracle's bit
    for bit.

    The returned finish vectors are freshly allocated per wave and never
    mutated afterwards; callers may keep references.
    """

    def __init__(
        self,
        compiled: CompiledRecurrence,
        service: Any,
        wire_delay: float,
        capacity: Any = None,
    ) -> None:
        if wire_delay < 0:
            raise ValueError("wire delay must be non-negative")
        self._c = compiled
        self._service = service
        self._wire_delay = wire_delay
        items = _capacity_items(compiled._edges, capacity)
        _credit_order(compiled._cells, items)  # eager deadlock check
        depth = np.zeros(len(compiled._edges), dtype=np.int64)  # 0: unbounded
        depth[[compiled._edge_index[e] for e, _ in items]] = [
            d for _, d in items
        ]
        # Per-depth sender-grouped back-edge arrays, deepest first so the
        # same-wave depth-1 relaxation sees every other term.
        self._channels: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for d in sorted(set(depth[depth > 0].tolist()), reverse=True):
            on = depth == d
            sender = compiled._sender[on]
            first = np.flatnonzero(np.r_[True, sender[1:] != sender[:-1]])
            self._channels.append(
                (d, compiled._consumer[on], first, sender[first])
            )
        self._window: deque = deque(
            maxlen=max((d for d, *_ in self._channels), default=1) - 1
        )
        self._col = compiled._service_column(service)
        self._finish = np.zeros(len(compiled._cells), dtype=np.float64)
        self._k = 0

    @property
    def wave(self) -> int:
        """Number of completed waves."""
        return self._k

    @property
    def finish(self) -> np.ndarray:
        """Finish vector after the last completed wave (zeros before the
        first :meth:`step`), indexed like ``CompiledRecurrence._cells``."""
        return self._finish

    def step(self) -> np.ndarray:
        """Advance one wave; returns the new finish vector."""
        c = self._c
        k = self._k
        finish = self._finish
        start = finish.copy()
        if k > 0 and len(c._src):
            arrivals = finish[c._src] + self._wire_delay
            grouped = np.maximum.reduceat(arrivals, c._group_starts)
            start[c._group_cells] = np.maximum(
                start[c._group_cells], grouped
            )
        for d, succ, starts, targets in self._channels:
            if k < d:
                continue
            if d > 1:
                row = self._window[-(d - 1)]  # start row of wave k - d + 1
                grouped = np.maximum.reduceat(row[succ], starts)
                start[targets] = np.maximum(start[targets], grouped)
                continue
            while True:
                grouped = np.maximum.reduceat(start[succ], starts)
                updated = np.maximum(start[targets], grouped)
                if np.array_equal(updated, start[targets]):
                    break
                start[targets] = updated
        self._window.append(start)
        if self._col is not None:
            col = self._col
        else:
            col = np.asarray(
                [self._service(cell, k) for cell in c._cells],
                dtype=np.float64,
            )
        self._finish = start + col
        self._k = k + 1
        return self._finish

    def run(self, n_waves: int) -> float:
        """Makespan after ``n_waves`` further waves (``>= 1``)."""
        if n_waves < 1:
            raise ValueError("need at least one wave")
        for _ in range(n_waves):
            self.step()
        return float(self._finish.max()) if len(self._finish) else 0.0


# ----------------------------------------------------------------------
# hybrid neighbor-barrier (max-plus) step
# ----------------------------------------------------------------------
class CompiledMaxPlus:
    """One compiled step of the hybrid handshake recurrence
    ``start[e] = max(finish[e], max_nbr finish[nbr] + hs(e, nbr))``.

    Used by :func:`repro.sim.hybrid_sim.simulate_hybrid` and
    :func:`repro.sim.hybrid_exec.execute_program_hybrid`; ``max`` over
    neighbors is order-free, so the vector step equals the scalar dict
    loop exactly.
    """

    def __init__(
        self,
        eids: Sequence[Hashable],
        neighbors_of: Mapping[Hashable, Any],
        handshake: Mapping[Tuple[Hashable, Hashable], float],
    ) -> None:
        index = {e: i for i, e in enumerate(eids)}
        nbr: List[int] = []
        cost: List[float] = []
        group_starts: List[int] = []
        group_cells: List[int] = []
        for e in eids:
            partners = neighbors_of[e]
            if partners:
                group_starts.append(len(nbr))
                group_cells.append(index[e])
                for p in partners:
                    nbr.append(index[p])
                    cost.append(handshake[(e, p)])
        self._nbr = np.asarray(nbr, dtype=np.int64)
        self._cost = np.asarray(cost, dtype=np.float64)
        self._group_starts = np.asarray(group_starts, dtype=np.int64)
        self._group_cells = np.asarray(group_cells, dtype=np.int64)

    def starts(self, finish: np.ndarray) -> np.ndarray:
        start = finish.copy()
        if len(self._nbr):
            ready = finish[self._nbr] + self._cost
            grouped = np.maximum.reduceat(ready, self._group_starts)
            tgt = self._group_cells
            start[tgt] = np.maximum(start[tgt], grouped)
        return start
