"""Clock tick schedules: when does tick ``k`` reach each cell?

Under pipelined clocking the root launches an event every period ``T`` and
each event takes a fixed path delay to any node (assumption A8), so tick
``k`` arrives at cell ``c`` at ``arrival(c) + k * T``.  Equipotential
clocking has the same form with a much larger ``T`` (the tree must settle
between events, A6); the difference shows up in the *period*, not the
schedule's shape — which is exactly the paper's point that skew (arrival
spread) and distribution time (period floor) are the two separate issues.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Tuple

from repro.clocktree.buffered import BufferedClockTree

CellId = Hashable


class ClockSchedule:
    """Absolute arrival time of every clock tick at every clocked cell."""

    def __init__(self, arrivals: Mapping[CellId, float], period: float) -> None:
        if period <= 0:
            raise ValueError("clock period must be positive")
        if any(t < 0 for t in arrivals.values()):
            raise ValueError("arrival offsets must be non-negative")
        self._arrivals: Dict[CellId, float] = dict(arrivals)
        self._period = period

    @property
    def period(self) -> float:
        """The tick period (read-only: a schedule is immutable, so
        anything keyed on a design's version sees every period change)."""
        return self._period

    @classmethod
    def from_buffered_tree(
        cls,
        buffered: BufferedClockTree,
        period: float,
        cells: Iterable[CellId],
    ) -> "ClockSchedule":
        """Pipelined clocking: offsets are the tree's concrete arrival times
        for the given cells."""
        return cls({c: buffered.arrival(c) for c in cells}, period)

    @classmethod
    def ideal(cls, cells: Iterable[CellId], period: float) -> "ClockSchedule":
        """Zero-skew reference schedule (every cell ticks simultaneously)."""
        return cls({c: 0.0 for c in cells}, period)

    def cells(self) -> Iterable[CellId]:
        return self._arrivals.keys()

    def offset(self, cell: CellId) -> float:
        return self._arrivals[cell]

    def tick_time(self, cell: CellId, k: int) -> float:
        """Absolute time of tick ``k`` (k >= 0) at ``cell``."""
        if k < 0:
            raise ValueError("tick index must be non-negative")
        return self._arrivals[cell] + k * self.period

    def skew(self, a: CellId, b: CellId) -> float:
        """Arrival offset difference — the concrete skew between two cells."""
        return abs(self._arrivals[a] - self._arrivals[b])

    def max_skew(self, pairs: Iterable[Tuple[CellId, CellId]]) -> float:
        return max((self.skew(a, b) for a, b in pairs), default=0.0)
