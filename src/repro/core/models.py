"""The paper's clock skew models (Section III).

Given a clock tree ``CLK`` and two of its nodes, let

* ``d`` = positive difference of the nodes' path lengths from the root, and
* ``s`` = length of the tree path connecting the nodes
  (``s = h1 + h2``, ``d = h1 - h2`` for distances ``h1 >= h2`` to the LCA).

Then the models are:

* **Difference model** (A9): skew ``<= f(d)`` for monotone increasing ``f``.
  Matches discrete-component systems with delay-tuned clock trees.
* **Summation model** (A10/A11): ``beta * s <= skew <= g(s)`` for monotone
  increasing ``g`` and constant ``beta > 0``.  Matches on-chip reality where
  variation accumulates along the whole connecting path.
* **Physical model** (the Section III derivation): with per-unit delay in
  ``[m - eps, m + eps]``, worst-case skew is exactly
  ``sigma = m*d + eps*s``, bracketed by ``eps*s <= sigma <= (m+eps)*s``;
  the difference model is the ``eps -> 0`` limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.tree import ClockTree

NodeId = Hashable


def _as_pair_list(
    pairs: Iterable[Tuple[NodeId, NodeId]]
) -> Sequence[Tuple[NodeId, NodeId]]:
    return pairs if isinstance(pairs, (list, tuple)) else list(pairs)


class SkewModel:
    """Upper (and optionally lower) bounds on clock skew between tree nodes."""

    def skew_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        """Upper bound on the skew between ``a`` and ``b`` on ``tree``."""
        raise NotImplementedError

    def skew_lower_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        """Lower bound on the *worst-case achievable* skew (0 if the model
        asserts none)."""
        return 0.0

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------
    # Subclasses with closed-form bounds override these with pure array
    # arithmetic on the tree's batched (d, s) metrics; the generic
    # fallback loops over the scalar methods so any custom model gets
    # the batch API (and the O(1)-LCA pair metrics) for free.

    def skew_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        """``skew_bound`` for every pair at once, as a float64 array."""
        pairs = _as_pair_list(pairs)
        return np.fromiter(
            (self.skew_bound(tree, a, b) for a, b in pairs),
            dtype=np.float64,
            count=len(pairs),
        )

    def skew_lower_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        """``skew_lower_bound`` for every pair at once, as a float64 array."""
        pairs = _as_pair_list(pairs)
        return np.fromiter(
            (self.skew_lower_bound(tree, a, b) for a, b in pairs),
            dtype=np.float64,
            count=len(pairs),
        )


def _apply_elementwise(
    func: Callable[[float], float], values: np.ndarray
) -> np.ndarray:
    """Map a user-supplied scalar ``f``/``g`` over an array.

    The callables are opaque (monotonicity is all we require), so they
    are applied per element with plain floats — custom-function models
    keep exact scalar semantics at scalar speed, while the default
    linear forms take the vectorized paths above.
    """
    return np.fromiter(
        (func(float(v)) for v in values), dtype=np.float64, count=len(values)
    )


@dataclass(frozen=True)
class DifferenceModel(SkewModel):
    """A9: skew bounded by ``f(d)``.

    ``f`` must be monotone increasing; the default is linear, ``f(d) = m*d``,
    the Section III physical model with ``eps = 0``.
    """

    f: Optional[Callable[[float], float]] = None
    m: float = 1.0

    def _f(self, d: float) -> float:
        return self.f(d) if self.f is not None else self.m * d

    def skew_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        return self._f(tree.path_difference(a, b))

    def skew_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        d, _ = tree.path_metrics_batch(pairs)
        if self.f is not None:
            return _apply_elementwise(self.f, d)
        return self.m * d


@dataclass(frozen=True)
class SummationModel(SkewModel):
    """A10/A11: ``beta * s <= skew <= g(s)``.

    Defaults model the Section III bracket: ``g(s) = (m + eps) * s`` and
    ``beta = eps``.
    """

    g: Optional[Callable[[float], float]] = None
    m: float = 1.0
    eps: float = 0.1
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")

    def _g(self, s: float) -> float:
        return self.g(s) if self.g is not None else (self.m + self.eps) * s

    @property
    def beta_value(self) -> float:
        return self.beta if self.beta is not None else self.eps

    def skew_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        return self._g(tree.path_length(a, b))

    def skew_lower_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        return self.beta_value * tree.path_length(a, b)

    def skew_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        _, s = tree.path_metrics_batch(pairs)
        if self.g is not None:
            return _apply_elementwise(self.g, s)
        return (self.m + self.eps) * s

    def skew_lower_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        _, s = tree.path_metrics_batch(pairs)
        return self.beta_value * s


@dataclass(frozen=True)
class PhysicalModel(SkewModel):
    """The exact Section III worst case: ``sigma = m*d + eps*s``.

    Derivation: with the two cells at distances ``h1 >= h2`` from their LCA
    and per-unit delay in ``[m - eps, m + eps]``, the extreme skew is
    ``h1*(m+eps) - h2*(m-eps) = (h1-h2)*m + (h1+h2)*eps = m*d + eps*s``.
    """

    m: float = 1.0
    eps: float = 0.1

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("m must be positive")
        if not 0 <= self.eps <= self.m:
            raise ValueError("eps must satisfy 0 <= eps <= m")

    def skew_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        d = tree.path_difference(a, b)
        s = tree.path_length(a, b)
        return self.m * d + self.eps * s

    def skew_lower_bound(self, tree: ClockTree, a: NodeId, b: NodeId) -> float:
        """The ``eps * s`` lower bracket — exactly A11 with beta = eps."""
        return self.eps * tree.path_length(a, b)

    def skew_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        d, s = tree.path_metrics_batch(pairs)
        return self.m * d + self.eps * s

    def skew_lower_bound_batch(
        self, tree: ClockTree, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> np.ndarray:
        _, s = tree.path_metrics_batch(pairs)
        return self.eps * s

    def as_difference(self) -> DifferenceModel:
        """The difference-model reading (valid when eps-terms are ignored)."""
        return DifferenceModel(m=self.m)

    def as_summation(self) -> SummationModel:
        """The summation-model bracket ``eps*s <= sigma <= (m+eps)*s``."""
        return SummationModel(m=self.m, eps=self.eps, beta=self.eps)


def max_skew_bound(
    tree: ClockTree,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    model: SkewModel,
) -> float:
    """``sigma``: the worst-case skew over communicating pairs (A5's sigma).

    Evaluates through the model's batched kernel (binary-lifting LCA pair
    metrics plus array arithmetic); results match the scalar per-pair
    path exactly, as the property tests and the perf gate enforce.
    """
    pairs = _as_pair_list(pairs)
    if not pairs:
        return 0.0
    return float(model.skew_bound_batch(tree, pairs).max())


def max_skew_lower_bound(
    tree: ClockTree,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    model: SkewModel,
) -> float:
    """The model's guaranteed worst-case skew over communicating pairs —
    under A11 no tuning can bring max skew below this."""
    pairs = _as_pair_list(pairs)
    if not pairs:
        return 0.0
    return float(model.skew_lower_bound_batch(tree, pairs).max())


def max_skew_bound_scalar(
    tree: ClockTree,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    model: SkewModel,
) -> float:
    """Reference implementation of :func:`max_skew_bound` via per-pair
    scalar calls — kept as the equivalence oracle and the baseline the
    perf-regression suite measures the batch kernels against."""
    return max((model.skew_bound(tree, a, b) for a, b in pairs), default=0.0)


def max_skew_lower_bound_scalar(
    tree: ClockTree,
    pairs: Iterable[Tuple[NodeId, NodeId]],
    model: SkewModel,
) -> float:
    """Scalar reference for :func:`max_skew_lower_bound` (see above)."""
    return max((model.skew_lower_bound(tree, a, b) for a, b in pairs), default=0.0)
