"""The Section V-B lower bound, executed as a checkable certificate.

The paper proves: for any clock tree ``CLK`` over an ``n x n`` mesh, the
maximum clock skew ``sigma`` between communicating cells is ``Omega(n)``
under the summation model's lower bound A11 (skew >= beta * s).  The proof
is constructive, and :func:`prove_skew_lower_bound` *runs* it on a concrete
``(tree, array)`` instance:

1. **Separator** (Lemma 5): split CLK by one edge into subtrees holding cell
   sets ``A`` and ``B``, neither side above ~2/3 of the cells.  Let ``u`` be
   the root of the ``A``-side subtree.
2. **Circle**: take the circle of radius ``sigma / beta`` around ``u``
   (``sigma`` = the instance's minimum possible max skew under A11, i.e.
   ``beta * max s`` over communicating pairs).  Any A-cell outside the
   circle is farther than ``sigma/beta`` from ``u`` along CLK (edge lengths
   dominate Euclidean displacement), so by A11 it cannot communicate with
   any B-cell — its skew to any B-cell would exceed ``sigma``.
3. **Case (a)** — many cells inside the circle: unit-area cells (A2) can
   pack at most ``pi * (r + 1)^2`` centers into radius ``r``, so
   ``sigma >= beta * (sqrt(count / pi) - 1)``; with ``count >= n^2 / 10``
   this is ``Omega(n)``.
4. **Case (b)** — few cells inside: move the circle cells from ``B`` to
   ``A``; the new partition is still balanced (each side at most the
   separator fraction plus 1/10), and every edge between the parts must
   straddle the circle boundary.  Unit-width wires (A3) cap the crossings
   linearly in the radius; Lemma 4 forces ``Omega(n)`` crossings — so
   ``sigma = Omega(n)``.

Where the paper invokes the geometric packing facts (A2 area, A3 boundary
capacity) with the Euclidean constants ``pi r^2`` and ``2 pi r``, the
certificate *verifies* the corresponding inequality on the concrete
instance, using a rectilinear-layout capacity model (a circle of radius
``r`` on a unit grid is straddled by at most ``capacity_per_radius * r +
capacity_slack`` unit-length edges; 8 per unit radius for 4-neighbor
meshes — slightly looser than the paper's ``2 pi``, same ``Omega(n)``).
Every claim checkable in the abstract model is checked and recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Set

from repro.arrays.model import ProcessorArray
from repro.clocktree.tree import ClockTree
from repro.graphs.separators import tree_edge_separator

NodeId = Hashable

#: Max straddling edges per unit radius for a unit-spaced 4-neighbor mesh:
#: each of the ~2r columns contributes at most 2 straddling vertical edges
#: (top and bottom of the circle) and likewise for rows — about ``8r``.
MESH_CAPACITY_PER_RADIUS = 8.0
#: Additive slack absorbing boundary effects at small radii.
MESH_CAPACITY_SLACK = 12.0


@dataclass(frozen=True)
class LowerBoundCertificate:
    """The record of one executed lower-bound proof.

    ``sigma`` is the instance's minimum possible max skew under A11
    (``beta * max s``); ``bound`` is the value the executed proof branch
    yields, so ``sigma >= bound`` must hold (asserted in :meth:`check`,
    along with the branch's verified packing inequality).
    """

    n_cells: int
    beta: float
    sigma: float
    branch: str  # "circle" or "bisection"
    separator_fraction: float
    radius: float
    cells_in_circle: int
    crossing_edges: int
    straddle_verified: bool
    packing_verified: bool
    balance_fraction: float
    bound: float

    def check(self) -> None:
        """Assert the certificate's conclusion against the instance."""
        if not self.packing_verified:
            raise AssertionError(
                "packing inequality failed on the instance (capacity model too tight)"
            )
        if self.branch == "bisection" and not self.straddle_verified:
            raise AssertionError("a crossing edge failed to straddle the circle")
        if self.sigma + 1e-9 < self.bound:
            raise AssertionError(
                f"lower-bound violation: sigma={self.sigma} < bound={self.bound}"
            )


def lower_bound_value(
    n: int,
    beta: float,
    separator_fraction: float = 2.0 / 3.0,
    circle_fraction: float = 0.1,
    capacity_per_radius: float = MESH_CAPACITY_PER_RADIUS,
) -> float:
    """The tree-independent Omega(n) floor for an ``n x n`` mesh.

    ``min`` of the two proof branches: the circle branch gives
    ``beta * (sqrt(circle_fraction / pi) * n - 1)``; the bisection branch
    gives ``beta * (1 - separator_fraction - circle_fraction) * n /
    capacity_per_radius`` (Lemma 4 at balance ``separator_fraction +
    circle_fraction``, divided by the boundary capacity).
    """
    if n < 2:
        raise ValueError("mesh lower bound needs n >= 2")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive (A11)")
    circle = beta * max(0.0, math.sqrt(circle_fraction / math.pi) * n - 1.0)
    slack = 1.0 - separator_fraction - circle_fraction
    if slack <= 0:
        raise ValueError("separator_fraction + circle_fraction must stay below 1")
    bisect = beta * slack * n / capacity_per_radius
    return min(circle, bisect)


def prove_skew_lower_bound(
    tree: ClockTree,
    array: ProcessorArray,
    beta: float,
    circle_fraction: float = 0.1,
    capacity_per_radius: float = MESH_CAPACITY_PER_RADIUS,
    capacity_slack: float = MESH_CAPACITY_SLACK,
) -> LowerBoundCertificate:
    """Execute the Section V-B proof on a concrete clock tree over an array.

    The array need not be a mesh — the proof steps run on any instance;
    for non-4-neighbor graphs (hex, torus) pass a larger
    ``capacity_per_radius`` reflecting their edge density.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive (A11)")
    cells: Set[NodeId] = set(array.comm.nodes())
    for cell in cells:
        if cell not in tree:
            raise ValueError(f"cell {cell!r} is not a node of CLK (A4)")
    pairs = array.communicating_pairs()
    if not pairs:
        raise ValueError("array has no communicating pairs")

    # sigma: the smallest max skew this tree can exhibit under A11.
    sigma = max(beta * tree.path_length(a, b) for a, b in pairs)

    # Step 1: Lemma 5 separator on CLK with the cells marked.
    sep = tree_edge_separator(tree.children_map(), tree.root, cells)
    part_a: Set[NodeId] = set(sep.below)   # cells in the detached subtree
    part_b: Set[NodeId] = set(sep.above)
    u = sep.edge[1]  # root of the subtree containing A
    center = tree.position(u)

    # Step 2: the circle of radius sigma / beta around u.
    radius = sigma / beta
    in_circle = {
        cell for cell in cells
        if array.layout[cell].euclidean(center) <= radius + 1e-9
    }

    n_cells = len(cells)
    threshold = circle_fraction * n_cells

    if len(in_circle) >= threshold:
        # Case (a): verify the area packing (A2) on the instance, then
        # conclude sigma >= beta * (sqrt(count/pi) - 1).
        packing_ok = math.pi * (radius + 1.0) ** 2 + 1e-9 >= len(in_circle)
        bound = beta * max(0.0, math.sqrt(len(in_circle) / math.pi) - 1.0)
        cert = LowerBoundCertificate(
            n_cells=n_cells,
            beta=beta,
            sigma=sigma,
            branch="circle",
            separator_fraction=sep.worst_fraction,
            radius=radius,
            cells_in_circle=len(in_circle),
            crossing_edges=0,
            straddle_verified=True,
            packing_verified=packing_ok,
            balance_fraction=sep.worst_fraction,
            bound=bound,
        )
        cert.check()
        return cert

    # Case (b): move circle cells from B to A.
    bar_a = part_a | in_circle
    bar_b = part_b - in_circle
    if not bar_b:
        raise AssertionError("degenerate partition: B-bar is empty")
    balance = max(len(bar_a), len(bar_b)) / n_cells

    # Claim check: every bar-A/bar-B edge straddles the circle.  (An A-cell
    # outside the circle is farther than sigma/beta from u along CLK, and
    # every path to a B-cell passes u, so its skew to any B-cell would
    # exceed sigma — such edges cannot exist.)
    crossing = array.comm.crossing_edges(bar_a, bar_b)
    straddle_ok = True
    for a_cell, b_cell in crossing:
        inner, outer = (a_cell, b_cell) if a_cell in bar_a else (b_cell, a_cell)
        inner_in = array.layout[inner].euclidean(center) <= radius + 1e-9
        outer_out = array.layout[outer].euclidean(center) > radius - 1e-9
        if not (inner_in and outer_out):
            straddle_ok = False

    # Boundary capacity (A3 analogue), verified on the instance:
    # crossings <= capacity_per_radius * r + capacity_slack, hence
    # sigma >= beta * (crossings - slack) / capacity.
    capacity = capacity_per_radius * radius + capacity_slack
    packing_ok = len(crossing) <= capacity + 1e-9
    bound = beta * max(0.0, len(crossing) - capacity_slack) / capacity_per_radius
    cert = LowerBoundCertificate(
        n_cells=n_cells,
        beta=beta,
        sigma=sigma,
        branch="bisection",
        separator_fraction=sep.worst_fraction,
        radius=radius,
        cells_in_circle=len(in_circle),
        crossing_edges=len(crossing),
        straddle_verified=straddle_ok,
        packing_verified=packing_ok,
        balance_fraction=balance,
        bound=bound,
    )
    cert.check()
    return cert
