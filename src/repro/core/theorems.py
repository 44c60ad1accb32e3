"""Executable forms of the paper's theorems.

Each sweep builds concrete arrays and clock trees over a range of sizes and
returns :class:`SweepRecord` rows; the tests assert the theorem's growth
claim on the rows (constant vs. linear), and the benchmarks print them as
the regenerated figure series.

* :func:`theorem2_sweep` — H-tree under the difference model: constant
  ``sigma`` and period for linear/square/hex arrays (Theorem 2, Fig. 3).
* :func:`theorem3_sweep` — spine clock on linear arrays under the summation
  model: constant ``sigma`` and period (Theorem 3, Fig. 4).
* :func:`fig3a_counterexample_sweep` — the Fig. 3(a) dissection tree on
  linear arrays under the summation model: ``sigma`` grows linearly.
* :func:`theorem6_sweep` — measured best-scheme ``sigma`` against bisection
  width across graph families (Theorem 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arrays.model import ProcessorArray
from repro.arrays.topologies import complete_binary_tree, hex_array, linear_array, mesh
from repro.clocktree.builders import comm_tree_clock, kdtree_clock, serpentine_clock
from repro.clocktree.htree import dissection_tree_for_linear, htree_for_array
from repro.clocktree.spine import spine_clock
from repro.clocktree.tree import ClockTree
from repro.core.models import (
    DifferenceModel,
    SummationModel,
    max_skew_bound,
    max_skew_lower_bound,
)
from repro.core.parameters import ClockParameters
from repro.graphs.bisection import bisection_width_upper_bound


@dataclass(frozen=True)
class SweepRecord:
    """One point of a theorem sweep: an array size and its clock metrics."""

    label: str
    size: int
    n_cells: int
    sigma: float
    delta: float
    tau: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def period(self) -> float:
        return ClockParameters(self.sigma, self.delta, self.tau).period


def theorem2_sweep(
    sizes: Sequence[int],
    topology: str = "mesh",
    m: float = 1.0,
    delta: float = 1.0,
    tau: float = 1.0,
) -> List[SweepRecord]:
    """Theorem 2: H-tree clocking under the difference model.

    ``topology`` is one of ``linear``, ``mesh``, ``hex``.  With equidistant
    leaves, every communicating pair has ``d = 0``, so ``sigma = f(0) = 0``
    and the period is ``delta + tau`` — independent of size.
    """
    model = DifferenceModel(m=m)
    records = []
    for n in sizes:
        array = _build_topology(topology, n)
        tree = htree_for_array(array)
        sigma = max_skew_bound(tree, array.communicating_pairs(), model)
        records.append(
            SweepRecord(
                label=f"htree-{topology}",
                size=n,
                n_cells=array.size,
                sigma=sigma,
                delta=delta,
                tau=tau,
                extra={"P": tree.longest_root_to_leaf()},
            )
        )
    return records


def theorem3_sweep(
    sizes: Sequence[int],
    m: float = 1.0,
    eps: float = 0.1,
    delta: float = 1.0,
    tau: float = 1.0,
    spacing: float = 1.0,
) -> List[SweepRecord]:
    """Theorem 3: spine clocking of linear arrays under the summation model.

    Neighbors tap the clock wire ``spacing`` apart, so ``s = spacing`` for
    every communicating pair: ``sigma = g(spacing)``, constant in size.
    """
    model = SummationModel(m=m, eps=eps)
    records = []
    for n in sizes:
        array = linear_array(n, spacing=spacing)
        tree = spine_clock(array)
        sigma = max_skew_bound(tree, array.communicating_pairs(), model)
        records.append(
            SweepRecord(
                label="spine-linear",
                size=n,
                n_cells=array.size,
                sigma=sigma,
                delta=delta,
                tau=tau,
                extra={"max_s": _max_s(tree, array)},
            )
        )
    return records


def fig3a_counterexample_sweep(
    sizes: Sequence[int],
    m: float = 1.0,
    eps: float = 0.1,
    delta: float = 1.0,
    tau: float = 1.0,
) -> List[SweepRecord]:
    """The Section V opening remark: the Fig. 3(a) dissection tree fails
    under the summation model — the two middle neighbors are connected by a
    tree path spanning the whole array, so ``sigma`` grows linearly."""
    model = SummationModel(m=m, eps=eps)
    records = []
    for n in sizes:
        array = linear_array(n)
        tree = dissection_tree_for_linear(array)
        sigma = max_skew_bound(tree, array.communicating_pairs(), model)
        records.append(
            SweepRecord(
                label="dissection-linear",
                size=n,
                n_cells=array.size,
                sigma=sigma,
                delta=delta,
                tau=tau,
                extra={"max_s": _max_s(tree, array)},
            )
        )
    return records


def theorem6_bound(bisection_width: float, beta: float, capacity_per_radius: float = 8.0) -> float:
    """Theorem 6: ``sigma = Omega(W(N))`` — the concrete constant from the
    bisection branch of the proof: ``beta * W / capacity``."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive")
    if bisection_width < 0:
        raise ValueError("bisection width must be non-negative")
    return beta * bisection_width / capacity_per_radius


def theorem6_sweep(
    sizes: Sequence[int],
    families: Optional[Sequence[str]] = None,
    beta: float = 0.1,
) -> List[SweepRecord]:
    """Measured best-scheme ``sigma`` (under A11: ``beta * max s``) against
    estimated bisection width, across graph families.

    Families: ``linear`` (W = 1), ``tree`` (W = 1), ``mesh`` (W = Theta(n)).
    For each size the best of the applicable schemes is taken — the point of
    Theorem 6 being that for high-W graphs *no* scheme escapes the bound.
    """
    families = list(families) if families is not None else ["linear", "mesh", "tree"]
    records = []
    for family in families:
        for n in sizes:
            array, schemes = _family_instance(family, n)
            best_sigma = math.inf
            best_scheme = "?"
            for name, builder in schemes:
                tree = builder(array)
                sigma = max_skew_lower_bound(
                    tree, array.communicating_pairs(), SummationModel(beta=beta, eps=beta)
                )
                if sigma < best_sigma:
                    best_sigma, best_scheme = sigma, name
            width = bisection_width_upper_bound(array.comm).cut_size
            records.append(
                SweepRecord(
                    label=f"t6-{family}",
                    size=n,
                    n_cells=array.size,
                    sigma=best_sigma,
                    delta=0.0,
                    tau=0.0,
                    extra={
                        "bisection_width": float(width),
                        "theorem6_floor": theorem6_bound(width, beta),
                        "best_scheme": best_scheme,
                    },
                )
            )
    return records


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _build_topology(topology: str, n: int) -> ProcessorArray:
    if topology == "linear":
        return linear_array(n)
    if topology == "mesh":
        return mesh(n, n)
    if topology == "hex":
        return hex_array(n, n)
    raise ValueError(f"unknown topology {topology!r}")


def _max_s(tree: ClockTree, array: ProcessorArray) -> float:
    return max(tree.path_length(a, b) for a, b in array.communicating_pairs())


def _family_instance(family: str, n: int):
    if family == "linear":
        array = linear_array(n)
        return array, [("spine", spine_clock), ("kdtree", kdtree_clock)]
    if family == "mesh":
        array = mesh(n, n)
        return array, [
            ("htree", htree_for_array),
            ("serpentine", serpentine_clock),
            ("kdtree", kdtree_clock),
        ]
    if family == "tree":
        depth = max(1, int(math.log2(max(2, n))))
        array = complete_binary_tree(depth)
        return array, [("comm-tree", comm_tree_clock), ("kdtree", kdtree_clock)]
    raise ValueError(f"unknown family {family!r}")
