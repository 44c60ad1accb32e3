"""Self-timed *functional* execution of systolic programs.

:mod:`repro.sim.selftimed` and :mod:`repro.sim.handshake` model the paper's
Section I timing arguments (tandem recurrences, request/acknowledge
protocols) but never execute a real workload.  This module closes that gap:
a :class:`SelfTimedProgramSimulator` runs any :class:`~repro.arrays.
systolic.SystolicProgram` data-driven on the discrete-event engine — each
cell fires its wave ``k`` as soon as it has finished wave ``k-1`` and every
predecessor's wave ``k-1`` token has arrived, with a per-(cell, wave)
service time.

The functional claim this realizes is the self-timed half of the paper's
equivalence: because every cell consumes exactly the generation ``k-1``
value on each input edge, the computation is the ideal lockstep semantics
(assumption A1) regardless of service-time variation — self-timing changes
*when* things happen, never *what* is computed.  The differential checker
(:mod:`repro.check.differential`) asserts exactly that, against the ideal
executor, the clocked simulator, and the hybrid executor.

Timing-wise the run obeys the tandem recurrence

``start[c][k] = max(finish[c][k-1], max_pred finish[pred][k-1] + wire)``

generalized from a line to any COMM graph, in one of two flow-control
regimes selected by ``channel_capacity``:

* ``channel_capacity=None`` (default) — unbounded FIFOs, the pure dataflow
  idealization (the ``blocking=False`` case of :func:`repro.sim.selftimed.
  simulate_selftimed_line`): a sender never waits for its consumers.
* ``channel_capacity=k`` — every COMM edge is a depth-``k`` FIFO (the wire
  counts as part of the channel's storage).  A cell may start wave ``w``
  only once each successor has *consumed* its generation ``w-k`` token,
  which in marked-graph/max-plus terms adds a capacity back-edge to the
  forward recurrence:

  ``start[c][w] >= start[succ][w-k+1]``  for every successor, ``w >= k``.

  This is backpressure: a slow consumer stalls its producers once the
  channel fills, and the stall propagates upstream — the finite-local-
  buffer contract real self-timed arrays run (and the reason the paper's
  Section I cites FIFO queueing between cells as the cost of self-timed
  layouts).  ``k=1`` on a *cyclic* COMM graph is a zero-token marked-graph
  cycle and deadlocks; the simulator rejects it with
  :class:`ChannelDeadlockError` instead of hanging.

The checker verifies the engine-driven makespan against the recurrence
computed directly (compiled and scalar) in both regimes.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arrays.cells import PE
from repro.arrays.systolic import SystolicProgram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]

#: Service-time callback: ``(cell, wave) -> duration``.  Deterministic
#: callables keep runs reproducible; see :func:`constant_service` and
#: :func:`hashed_service`.
ServiceTime = Callable[[CellId, int], float]

#: Flow-control spec: ``None`` (unbounded), a uniform int depth, or a
#: per-edge ``{(src, dst): depth}`` map (absent edges are unbounded).
#: Only :func:`_capacity_items` reads it; everything else works on the
#: normalized ``(edge, depth)`` list.
CapacitySpec = Optional[Union[int, Mapping[EdgeKey, int]]]


class ChannelDeadlockError(RuntimeError):
    """Capacity-1 channels on a cyclic COMM graph can never make progress.

    Marked-graph liveness requires every directed cycle to carry at least
    one token of slack; with ``channel_capacity=1`` the credit back-edge
    ``start[c][w] >= start[succ][w]`` has dependency distance zero, so a
    COMM cycle becomes a zero-token cycle: each cell on it waits for the
    next to fire the *same* wave first.  Raised eagerly (at construction /
    kernel entry) instead of letting the event engine stall mid-run.
    """


def constant_service(duration: float) -> ServiceTime:
    """Every (cell, wave) takes exactly ``duration``.

    The returned callable carries a ``constant_duration`` attribute so the
    compiled recurrence kernel (:mod:`repro.sim.compiled`) can skip
    tabulating a full (cell, wave) service matrix.
    """
    if duration < 0:
        raise ValueError("service time must be non-negative")

    def service(cell: CellId, wave: int) -> float:
        return duration

    service.constant_duration = float(duration)  # type: ignore[attr-defined]
    return service


def per_cell_service(durations: Mapping[CellId, float]) -> ServiceTime:
    """Each cell takes its own wave-invariant duration.

    This is the heterogeneous-cell model the static flow analyzer
    (:mod:`repro.sta.flow`) works over: cycle-time bounds only exist when
    service times are wave-invariant, and per-cell constants are exactly
    that regime.  The returned callable carries a ``cell_durations``
    attribute so the compiled recurrence kernel can build its per-cell
    service column without tabulating a full (cell, wave) matrix.
    """
    table = {cell: float(d) for cell, d in durations.items()}
    for cell, duration in table.items():
        if duration < 0:
            raise ValueError(f"negative service time for {cell!r}")

    def service(cell: CellId, wave: int) -> float:
        return table[cell]

    service.cell_durations = table  # type: ignore[attr-defined]
    return service


def hashed_service(
    normal: float, worst: float, worst_probability: float, seed: int = 0
) -> ServiceTime:
    """The two-speed cell model of Section I, keyed deterministically on
    ``(seed, cell, wave)`` — stable across processes and iteration orders,
    like :func:`repro.sim.faults._stable_unit_noise`."""
    if normal <= 0 or worst < normal:
        raise ValueError("need 0 < normal <= worst")
    if not 0.0 <= worst_probability <= 1.0:
        raise ValueError("worst_probability must be a probability")
    from repro.sim.faults import _stable_unit_noise

    def sample(cell: CellId, wave: int) -> float:
        u = (_stable_unit_noise(seed, cell, wave) + 1.0) / 2.0  # [0, 1)
        return worst if u < worst_probability else normal

    return sample


def _channel_depth(depth: Any, edge: Optional[EdgeKey] = None) -> int:
    """One validated channel depth: an integer ``>= 1`` (numpy ints
    pass; ``bool``, floats and non-finite values are rejected rather
    than truncated)."""
    where = f" for edge {edge!r}" if edge is not None else ""
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral):
        raise ValueError(
            f"channel capacity must be an integer, got {depth!r}{where}"
        )
    if depth < 1:
        raise ValueError(f"channel capacity must be >= 1, got {depth}{where}")
    return int(depth)


def _capacity_items(
    edges: Sequence[EdgeKey], capacity: CapacitySpec
) -> List[Tuple[EdgeKey, int]]:
    """The bounded channels of a :data:`CapacitySpec` as validated
    ``(edge, depth)`` pairs in ``edges`` (COMM) order — the one reader of
    the spec union, shared by the event engine, the compiled stepper,
    the scalar recurrence and the static flow analyzer.  Edges absent
    from a map are unbounded; a map key that is not in ``edges`` raises
    ``ValueError``."""
    if capacity is None:
        return []
    if isinstance(capacity, Mapping):
        items = [
            (edge, _channel_depth(capacity[edge], edge))
            for edge in edges
            if edge in capacity
        ]
        if len(items) != len(capacity):
            known = set(edges)
            unknown = next(e for e in capacity if e not in known)
            raise ValueError(f"capacity for unknown COMM edge {unknown!r}")
        return items
    depth = _channel_depth(capacity)
    return [(edge, depth) for edge in edges]


def _reverse_topological(
    cells: Sequence[CellId], edges: Sequence[EdgeKey]
) -> List[CellId]:
    """``cells`` ordered consumers before producers along ``edges`` (Kahn,
    reversed).  Raises :class:`ChannelDeadlockError` when ``edges`` hold
    a directed cycle: over capacity-1 channels (or any zero-token
    dependences) that is a zero-token marked-graph cycle."""
    indegree: Dict[CellId, int] = {c: 0 for c in cells}
    succs: Dict[CellId, List[CellId]] = {c: [] for c in cells}
    for u, v in edges:
        indegree[v] += 1
        succs[u].append(v)
    order: List[CellId] = [c for c in cells if indegree[c] == 0]
    i = 0
    while i < len(order):
        for s in succs[order[i]]:
            indegree[s] -= 1
            if indegree[s] == 0:
                order.append(s)
        i += 1
    if len(order) != len(cells):
        raise ChannelDeadlockError(
            "capacity-1 channels form a directed COMM cycle: a zero-token "
            "marked-graph cycle (deadlock); raise some capacity on the "
            "cycle to >= 2"
        )
    order.reverse()
    return order


def _credit_order(
    cells: Sequence[CellId], items: Sequence[Tuple[EdgeKey, int]]
) -> List[CellId]:
    """Consumers before producers along the depth-1 channels of
    ``items`` — the order the same-wave credit term is evaluated in, and
    the eager liveness check every evaluator runs before its first
    wave."""
    cap1 = [e for e, d in items if d == 1]
    return _reverse_topological(cells, cap1) if cap1 else list(cells)


def _scalar_waves(
    comm: Any, service: ServiceTime, wire_delay: float, capacity: CapacitySpec
) -> Iterator[Dict[CellId, float]]:
    """The tandem recurrence by per-cell Python loop, one wave at a time:
    yields every wave's finish times, forever.

    ``start[c][k] = max(finish[c][k-1], max_pred finish[p][k-1] + wire,
    start[s][k-d+1] for each channel c -> s of depth d <= k)`` and
    ``finish[c][k] = start[c][k] + service(c, k)``.  Depth-1 channels
    couple starts within a wave, so cells run consumers first; deeper
    channels read lagged start rows from a window of the last ``d - 1``
    waves.  Unbounded channels contribute no credit term at all.  This
    is the scalar oracle of the compiled stepper and shares no wave logic
    with it or with the event engine.
    """
    cells = comm.nodes()
    items = _capacity_items(comm.edges(), capacity)
    credits: Dict[CellId, List[Tuple[CellId, int]]] = {c: [] for c in cells}
    for (c, s), d in items:
        credits[c].append((s, d))
    plan = [
        (c, tuple(comm.predecessors(c)), tuple(credits[c]))
        for c in _credit_order(cells, items)
    ]
    window: deque = deque(maxlen=max((d for _, d in items), default=1) - 1)
    finish: Dict[CellId, float] = {c: 0.0 for c in cells}
    k = 0
    while True:
        starts: Dict[CellId, float] = {}
        for c, preds, out in plan:
            start = finish[c]
            if k > 0:
                for p in preds:
                    arrival = finish[p] + wire_delay
                    if arrival > start:
                        start = arrival
            for s, d in out:
                if k >= d:
                    # window[-1] is wave k-1, so wave k-d+1 sits at -(d-1).
                    bound = starts[s] if d == 1 else window[-(d - 1)][s]
                    if bound > start:
                        start = bound
            starts[c] = start
        window.append(starts)
        finish = {c: starts[c] + service(c, k) for c in cells}
        yield finish
        k += 1


@dataclass
class DataflowRunResult:
    """Outcome of a self-timed program run: payload plus timing.

    ``channel_capacity``/``stall_time``/``max_occupancy`` describe the
    backpressure regime: under finite capacities, ``stall_time`` maps each
    cell to the total time it sat data-ready but credit-blocked (waiting
    for a consumer to drain a full channel) and ``max_occupancy`` is the
    deepest any channel got (always ``<= channel_capacity`` — the engine
    asserts it).  Both stay ``None`` for unbounded runs, whose behaviour
    is byte-identical to the pre-backpressure simulator.
    """

    result: Any
    waves: int
    makespan: float
    events_processed: int
    finish_times: Dict[CellId, float]  # completion of each cell's last wave
    channel_capacity: CapacitySpec = None
    stall_time: Optional[Dict[CellId, float]] = None
    max_occupancy: Optional[int] = None

    @property
    def mean_cycle_time(self) -> float:
        """Makespan per wave — the crude throughput figure."""
        return self.makespan / self.waves if self.waves else 0.0

    @property
    def throughput(self) -> float:
        """Waves completed per unit time (the reciprocal figure sweeps
        plot against channel capacity)."""
        return self.waves / self.makespan if self.makespan > 0 else 0.0

    @property
    def total_stall_time(self) -> float:
        """Summed credit-blocked time across cells (0.0 when unbounded)."""
        return sum(self.stall_time.values()) if self.stall_time else 0.0


class _ResultFacade:
    """Quacks like a LockstepExecutor for ``SystolicProgram.read_result``
    (which only ever calls ``pe``)."""

    def __init__(self, pes: Mapping[CellId, PE]) -> None:
        self._pes = pes

    def pe(self, cell: CellId) -> PE:
        return self._pes[cell]


class SelfTimedProgramSimulator:
    """Run a systolic program data-driven on the event engine.

    ``service`` supplies the per-(cell, wave) compute time; ``wire_delay``
    is the token propagation time per COMM edge (uniform — the regular-array
    case).  ``channel_capacity`` selects the flow-control regime: ``None``
    keeps every channel an unbounded FIFO (the pure dataflow idealization,
    byte-identical to the historical behaviour), while an integer ``k``
    bounds each COMM edge to ``k`` in-flight generations and stalls
    producers when a channel fills (see the module docstring for the
    marked-graph recurrence this realizes).  Functional behaviour is
    exactly lockstep either way — capacity changes *when* cells fire,
    never *what* they compute.
    """

    def __init__(
        self,
        program: SystolicProgram,
        service: Optional[ServiceTime] = None,
        wire_delay: float = 0.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        channel_capacity: CapacitySpec = None,
    ) -> None:
        if wire_delay < 0:
            raise ValueError("wire delay must be non-negative")
        self._program = program
        self._comm = program.array.comm
        self._service = service if service is not None else constant_service(1.0)
        self._wire_delay = wire_delay
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        items = _capacity_items(self._comm.edges(), channel_capacity)
        _credit_order(self._comm.nodes(), items)  # eager deadlock check
        self._channel_capacity = channel_capacity
        self._capacity_map: Dict[EdgeKey, int] = dict(items)
        self._compiled: Any = None  # lazy CompiledRecurrence

    @property
    def channel_capacity(self) -> CapacitySpec:
        return self._channel_capacity

    def run(self, waves: Optional[int] = None) -> DataflowRunResult:
        n_waves = waves if waves is not None else self._program.cycles
        if n_waves < 1:
            raise ValueError("need at least one wave")
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()

        sim = Simulator(tracer=self._tracer, metrics=self._metrics)
        cells = self._comm.nodes()
        preds: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(self._comm.predecessors(c)) for c in cells
        }
        # Per-cell progress: next wave to fire, busy-until flag, and the
        # arrived-but-unconsumed tokens per generation.
        next_wave: Dict[CellId, int] = {c: 0 for c in cells}
        busy: Dict[CellId, bool] = {c: False for c in cells}
        inbox: Dict[CellId, Dict[int, Dict[CellId, Any]]] = {c: {} for c in cells}
        finish_times: Dict[CellId, float] = {c: 0.0 for c in cells}
        tracer = self._tracer
        service_hist = (
            self._metrics.histogram("dataflow.service_time")
            if self._metrics is not None
            else None
        )

        # Backpressure state — only materialized for finite capacities so
        # the unbounded path stays byte-identical (same events, same order,
        # same floats) to the historical simulator.
        cap_map = self._capacity_map
        bounded = self._channel_capacity is not None
        succs: Dict[CellId, Tuple[CellId, ...]] = {}
        outstanding: Dict[Tuple[CellId, CellId], int] = {}
        stall_time: Optional[Dict[CellId, float]] = None
        blocked_since: Dict[CellId, float] = {}
        max_occupancy = 0
        stall_hist = occupancy_hist = None
        if bounded:
            succs = {c: tuple(self._comm.successors(c)) for c in cells}
            outstanding = {(u, v): 0 for u, v in self._comm.edges()}
            stall_time = {c: 0.0 for c in cells}
            if self._metrics is not None:
                stall_hist = self._metrics.histogram("dataflow.stall_time")
                occupancy_hist = self._metrics.histogram(
                    "dataflow.channel_occupancy"
                )

        def ready(cell: CellId) -> bool:
            k = next_wave[cell]
            if k >= n_waves or busy[cell]:
                return False
            if k == 0:
                return True  # wave 0 consumes the initial (empty) registers
            pending = inbox[cell].get(k - 1, {})
            return all(src in pending for src in preds[cell])

        def credit_ready(cell: CellId) -> bool:
            # Capacity k: wave w needs each successor to have consumed
            # generation w-k, i.e. to have *fired* wave w-k+1 already
            # (``next_wave`` counts fires, so the threshold is w-k+2).
            # Each outgoing edge applies its own depth; edges absent from
            # the map are unbounded.
            k = next_wave[cell]
            for s in succs[cell]:
                cap_e = cap_map.get((cell, s))
                if (
                    cap_e is not None
                    and k >= cap_e
                    and next_wave[s] < k - cap_e + 2
                ):
                    return False
            return True

        def try_fire(
            cell: CellId,
            cause: str = "init",
            src: Optional[CellId] = None,
            src_wave: Optional[int] = None,
        ) -> None:
            # ``cause``/``src`` name the state change that made this call:
            # the *last* enabling event is the binding constraint, so a
            # successful fire's cause is its critical dependency — exactly
            # what trace-driven critical-path extraction walks back over.
            # ``src_wave`` disambiguates credit causes, whose enabling
            # fire is ``src``'s wave ``w - capacity + 1``, not ``w - 1``.
            if not ready(cell):
                return
            k = next_wave[cell]
            if bounded and not credit_ready(cell):
                # Data-ready but the channel to some consumer is full:
                # the stall clock starts at the first blocked attempt.
                blocked_since.setdefault(cell, sim.now)
                return
            if bounded:
                t_blocked = blocked_since.pop(cell, None)
                if t_blocked is not None:
                    stalled = sim.now - t_blocked
                    stall_time[cell] += stalled
                    if stall_hist is not None:
                        stall_hist.observe(stalled)
            inputs: Dict[CellId, Any] = (
                inbox[cell].pop(k - 1, {}) if k > 0 else {}
            )
            if bounded and k > 0:
                # Consuming generation k-1 drains one slot per input edge.
                for p in preds[cell]:
                    outstanding[(p, cell)] -= 1
            # Lockstep semantics: an input edge with no token yet written
            # reads as None (the empty register before the first latch).
            fire_inputs = {src_c: inputs.get(src_c) for src_c in preds[cell]}
            outputs = pes[cell].fire(fire_inputs)
            duration = self._service(cell, k)
            if duration < 0:
                raise ValueError(f"negative service time for {cell!r} wave {k}")
            if service_hist is not None:
                service_hist.observe(duration)
            if tracer.enabled:
                # ``finish`` is the same float expression the engine uses
                # to schedule ``done`` (now + delay), so the recorded
                # chain telescopes to the reported makespan bit for bit.
                tracer.event(
                    sim.now, "dataflow", "fire", cell=cell, wave=k,
                    start=sim.now, service=duration,
                    finish=sim.now + duration, cause=cause, src=src,
                    src_wave=src_wave,
                )
            next_wave[cell] = k + 1
            busy[cell] = True
            if bounded:
                # This fire consumed a generation (and advanced the wave
                # front), which may return credits to the producers.
                # Trampoline through zero-delay events rather than direct
                # recursion so deep pipelines can't blow the stack; the
                # engine's FIFO tie-break keeps same-timestamp order
                # deterministic.
                for p in preds[cell]:
                    sim.schedule(
                        0.0,
                        (lambda pp=p, w=k: try_fire(pp, "credit", cell, w)),
                    )

            def deliver(dst: CellId, value: Any, gen: int = k) -> None:
                inbox[dst].setdefault(gen, {})[cell] = value
                try_fire(dst, "token", cell)

            def done() -> None:
                nonlocal max_occupancy
                busy[cell] = False
                finish_times[cell] = sim.now
                for dst in self._comm.successors(cell):
                    value = outputs.get(dst) if outputs else None
                    if bounded:
                        count = outstanding[(cell, dst)] + 1
                        outstanding[(cell, dst)] = count
                        limit = cap_map.get((cell, dst))
                        if limit is not None and count > limit:
                            raise AssertionError(
                                f"channel ({cell!r} -> {dst!r}) exceeded "
                                f"capacity {limit}: {count} in flight"
                            )
                        if count > max_occupancy:
                            max_occupancy = count
                        if occupancy_hist is not None:
                            occupancy_hist.observe(float(count))
                    sim.schedule(
                        self._wire_delay,
                        (lambda d=dst, v=value: deliver(d, v)),
                    )
                try_fire(cell, "self")

            sim.schedule(duration, done)

        for cell in cells:
            try_fire(cell)
        processed = sim.run(max_events=None)

        fired = [c for c in cells if next_wave[c] != n_waves]
        if fired:
            raise AssertionError(
                f"dataflow run stalled: {len(fired)} cells short of "
                f"{n_waves} waves (first: {fired[:3]!r})"
            )
        makespan = max(finish_times.values(), default=0.0)
        result = self._program.read_result(_ResultFacade(pes))
        if tracer.enabled:
            tracer.event(
                makespan, "dataflow", "run",
                waves=n_waves, cells=len(cells), makespan=makespan,
                channel_capacity=self.channel_capacity,
            )
        if self._metrics is not None:
            self._metrics.gauge("dataflow.makespan").set(makespan)
            if makespan > 0:
                self._metrics.gauge("dataflow.throughput").set(
                    n_waves / makespan
                )
        return DataflowRunResult(
            result=result,
            waves=n_waves,
            makespan=makespan,
            events_processed=processed,
            finish_times=finish_times,
            channel_capacity=self.channel_capacity,
            stall_time=stall_time,
            max_occupancy=(max_occupancy if bounded else None),
        )

    def compiled_recurrence(self):
        """The array-compiled tandem recurrence for this program's COMM
        graph (built once, cached; see
        :class:`repro.sim.compiled.CompiledRecurrence`)."""
        from repro.sim.compiled import CompiledRecurrence

        kernel = self._compiled
        if kernel is None or kernel.comm_version != self._comm.version:
            kernel = CompiledRecurrence(self._comm)
            self._compiled = kernel
        return kernel

    def recurrence_makespan(self, waves: Optional[int] = None) -> float:
        """The tandem-recurrence makespan computed directly (no engine):

        ``finish[c][k] = max(finish[c][k-1], max_pred finish[pred][k-1] +
        wire) + service(c, k)`` — plus, under a finite
        ``channel_capacity=k``, the capacity back-edge
        ``start[c][w] >= start[succ][w-k+1]`` (the marked-graph credit
        constraint; see the module docstring).  The differential checker
        asserts the engine-driven run lands on exactly this value in both
        regimes.

        Evaluated wavefront-at-a-time by the compiled array kernel, which
        performs the identical float operations (``max`` is order-free, the
        single add is unreassociated) — :meth:`recurrence_makespan_scalar`
        is the reference it must equal exactly.
        """
        n_waves = waves if waves is not None else self._program.cycles
        return self.compiled_recurrence().makespan(
            self._service,
            self._wire_delay,
            n_waves,
            capacity=self._channel_capacity,
        )

    def critical_path(self, waves: Optional[int] = None):
        """The dependency chain behind this program's self-timed makespan
        (see :func:`repro.obs.critpath.selftimed_critical_path`): the same
        tandem recurrence, replayed with argmax bookkeeping, so the
        chain's endpoint equals :meth:`recurrence_makespan` — and the
        engine-driven :meth:`run` makespan — bit for bit.

        The replay models the unbounded recurrence; for bounded runs use
        trace-driven extraction (:func:`repro.obs.critpath.
        critical_path_from_trace`), whose ``credit`` cause annotations
        carry the capacity back-edges.
        """
        if self._channel_capacity is not None:
            raise ValueError(
                "critical_path() replays the unbounded recurrence; for a "
                "bounded run record a trace and use "
                "repro.obs.critpath.critical_path_from_trace"
            )
        from repro.obs.critpath import selftimed_critical_path

        n_waves = waves if waves is not None else self._program.cycles
        return selftimed_critical_path(
            self._comm,
            self._service,
            self._wire_delay,
            n_waves,
            reported=self.recurrence_makespan(n_waves),
        )

    def recurrence_makespan_scalar(self, waves: Optional[int] = None) -> float:
        """Reference (per-cell Python loop) evaluation of the tandem
        recurrence — the oracle for :meth:`recurrence_makespan` — honouring
        ``channel_capacity`` exactly like the event engine."""
        n_waves = waves if waves is not None else self._program.cycles
        if n_waves < 1:
            raise ValueError("need at least one wave")
        finish: Dict[CellId, float] = {}
        for finish in islice(
            _scalar_waves(
                self._comm,
                self._service,
                self._wire_delay,
                self._channel_capacity,
            ),
            n_waves,
        ):
            pass
        return max(finish.values(), default=0.0)
