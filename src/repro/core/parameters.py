"""Clock period accounting (assumptions A5-A7).

A clocked system runs with period ``sigma + delta + tau`` (A5):

* ``sigma`` — maximum skew between communicating cells (from a skew model
  or measured on a buffered tree);
* ``delta`` — maximum compute-plus-propagate time of a cell;
* ``tau`` — time to distribute one clocking event:
  - *equipotential* (A6): at least ``alpha * P`` with ``P`` the longest
    root-to-leaf path — grows with the layout diameter.  With an Elmore RC
    wire model it grows quadratically, which is the practical motivation
    for buffering.
  - *pipelined* (A7): the worst single buffer-plus-segment delay — a
    constant for fixed buffer spacing.

The paper notes an exact formula would look like ``max(tau, 2*sigma+delta)``
but has the same growth behaviour; we implement the simple sum (and provide
the alternative for sensitivity checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Tuple

from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.tree import ClockTree
from repro.core.models import SkewModel, max_skew_bound
from repro.delay.wire import LinearWireModel, WireDelayModel

NodeId = Hashable


@dataclass(frozen=True)
class ClockParameters:
    """The (sigma, delta, tau) triple and the period they imply."""

    sigma: float
    delta: float
    tau: float

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(x) and x >= 0 for x in (self.sigma, self.delta, self.tau)
        ):
            raise ValueError("clock parameters must be finite and non-negative")

    @property
    def period(self) -> float:
        """A5's clock period ``sigma + delta + tau``."""
        return self.sigma + self.delta + self.tau

    @property
    def period_exact_form(self) -> float:
        """The paper's example alternative ``max(tau, 2*sigma + delta)`` —
        same asymptotics, used for sensitivity tests."""
        return max(self.tau, 2.0 * self.sigma + self.delta)

    @property
    def frequency(self) -> float:
        if self.period <= 0:
            raise ValueError("zero period has no frequency")
        return 1.0 / self.period


def clock_period(sigma: float, delta: float, tau: float) -> float:
    """Convenience wrapper for A5."""
    return ClockParameters(sigma, delta, tau).period


def equipotential_tau(
    tree: ClockTree,
    wire_model: Optional[WireDelayModel] = None,
    alpha: float = 1.0,
) -> float:
    """A6: distribution time of an equipotential tree.

    With the default linear wire model this is ``alpha * P``; pass an
    :class:`~repro.delay.wire.ElmoreWireModel` to capture the realistic
    quadratic growth of an unbuffered RC line.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    model = wire_model or LinearWireModel(m=alpha)
    return model.delay(tree.longest_root_to_leaf())


def pipelined_tau(buffered: BufferedClockTree) -> float:
    """A7: distribution time across one unbuffered segment — constant."""
    return buffered.tau()


def scheme_parameters(
    tree: ClockTree,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    model: SkewModel,
    delta: float,
    tau: float,
) -> ClockParameters:
    """Assemble A5 parameters for a scheme: sigma from the skew model over
    the communicating pairs, delta and tau supplied by the caller."""
    sigma = max_skew_bound(tree, pairs, model)
    return ClockParameters(sigma=sigma, delta=delta, tau=tau)
