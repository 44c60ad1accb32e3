"""Tile composition by abutment: pre-characterized STA of R x C arrays.

The synchoros-VLSI idea: build a large array by *abutting* identical
tiles, characterize the tile once, and derive the composed array's
analysis from cached tile summaries plus the tile-boundary edges —
instead of re-running the O(edges) flat pass over the whole array.

The composition is engineered so the reuse is *exact*, not approximate:

* the composed clock tree is an H-style trunk over a power-of-two grid
  of tiles, splitting the wider dimension in half at each level.  All
  tile taps sit at the same depth and accumulate the *identical float
  sum* for their root distance (per-level segment lengths are equal
  across branches by symmetry, and all coordinates are small dyadic
  rationals, exact in float64);
* within each tile, a boustrophedon (serpentine) chain runs from the
  tap through the tile's cells with translation-congruent Manhattan
  lengths, so corresponding cells in different tiles have bit-identical
  root distances;
* schedule offsets are ``m * root_distance``, hence also congruent.

Consequently every tile-internal slack row replicates the prototype
tile's rows bit-for-bit, and the flat aggregates (worst slacks, flag
counts, minimum feasible period) decompose into *prototype x multiplicity
+ boundary rows*.  :func:`stitched_analysis` exploits exactly that; the
``differential-tiles`` check holds it equal — same floats, same counts —
to :func:`flat_summary` over the very same composed design.

The per-tile characterization (and the boundary-row vectors, which are
also period-independent) is cached per tile fingerprint, so re-analyzing
a composition at a new period touches no model kernels at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.arrays.systolic import SystolicProgram
from repro.arrays.topologies import mesh
from repro.clocktree.tree import ClockTree
from repro.core.models import PhysicalModel
from repro.geometry.point import Point
from repro.sim.clock_distribution import ClockSchedule
from repro.sta.design import Design, EdgeKey
from repro.sta.slack import (
    analyze_slack,
    classify_edges,
    minimum_feasible_period,
    race_floor_mask,
    _bisect_period,
    _edge_vectors,
)

NodeId = Hashable


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TileSpec:
    """One abutted tile: an ``rows x cols`` mesh patch plus the model
    parameters shared by the whole composition."""

    rows: int
    cols: int
    m: float = 1.0
    eps: float = 0.1
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("tile dimensions must be positive")

    def fingerprint(self) -> Tuple[int, int, float, float, float]:
        return (self.rows, self.cols, self.m, self.eps, self.delta)


@dataclass(frozen=True)
class TileCharacterization:
    """Period-independent slack ingredients of one composition.

    ``internal_*`` arrays cover the *prototype* tile's internal edges
    (every other tile replicates them bit-for-bit, ``tiles`` times in
    total); ``boundary_*`` arrays cover the tile-to-tile stitching edges.
    All arrays are ``need``-form (period-free), so any period can be
    analyzed from the cache alone.
    """

    tiles: int
    internal_need_exact: np.ndarray
    internal_need_bound: np.ndarray
    internal_hold_bound: np.ndarray
    internal_race_floor: np.ndarray
    boundary_need_exact: np.ndarray
    boundary_need_bound: np.ndarray
    boundary_hold_bound: np.ndarray
    boundary_race_floor: np.ndarray

    @property
    def internal_rows(self) -> int:
        return len(self.internal_need_exact)

    @property
    def boundary_rows(self) -> int:
        return len(self.boundary_need_exact)

    @property
    def total_rows(self) -> int:
        return self.tiles * self.internal_rows + self.boundary_rows


@dataclass(frozen=True)
class ArraySummary:
    """The aggregate verdict both analysis paths produce; equality between
    the stitched and the flat path is exact (floats included)."""

    period: float
    edges: int
    worst_setup_slack: float
    worst_hold_slack: float
    min_feasible_period_exact: float
    min_feasible_period_bound: float
    timing_clean: bool
    robust_clean: bool
    counts: Dict[str, int] = field(default_factory=dict)


#: Characterization cache, keyed by (tile fingerprint, grid rows, grid
#: cols) — the trunk depth (hence every root distance) depends on the
#: grid shape, so it is part of the key.
_TILE_CACHE: Dict[Tuple[Any, ...], TileCharacterization] = {}
_TILE_CACHE_STATS = {"hits": 0, "misses": 0}


def tile_cache_clear() -> None:
    _TILE_CACHE.clear()
    _TILE_CACHE_STATS["hits"] = 0
    _TILE_CACHE_STATS["misses"] = 0


def tile_cache_info() -> Dict[str, int]:
    return {"entries": len(_TILE_CACHE), **_TILE_CACHE_STATS}


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
def _trunk_name(ti0: int, ti1: int, tj0: int, tj1: int) -> str:
    return f"trunk:{ti0}:{ti1}:{tj0}:{tj1}"


def _region_center(
    spec: TileSpec, ti0: int, ti1: int, tj0: int, tj1: int
) -> Point:
    """Center of a tile-index region in cell coordinates (dyadic, exact)."""
    y = ((ti0 + ti1 - 1) * spec.rows + (spec.rows - 1)) / 2.0
    x = ((tj0 + tj1 - 1) * spec.cols + (spec.cols - 1)) / 2.0
    return Point(x, y)


def _tile_cells(spec: TileSpec, ti: int, tj: int) -> List[Tuple[int, int]]:
    """The tile's cells in boustrophedon chain order, tap-outward."""
    cells: List[Tuple[int, int]] = []
    for lr in range(spec.rows):
        cols = range(spec.cols) if lr % 2 == 0 else range(spec.cols - 1, -1, -1)
        for lc in cols:
            cells.append((ti * spec.rows + lr, tj * spec.cols + lc))
    return cells


def compose_design(
    spec: TileSpec,
    tiles_rows: int,
    tiles_cols: int,
    period: float,
) -> Design:
    """Build the composed ``tiles_rows x tiles_cols`` abutted array design.

    Grid dimensions must be powers of two (the H-trunk halves the wider
    dimension at every level; equal halves are what make all tap root
    distances the identical float).
    """
    if not (_is_pow2(tiles_rows) and _is_pow2(tiles_cols)):
        raise ValueError("tile grid dimensions must be powers of two")
    array = mesh(tiles_rows * spec.rows, tiles_cols * spec.cols)

    root = _trunk_name(0, tiles_rows, 0, tiles_cols)
    tree = ClockTree(root, _region_center(spec, 0, tiles_rows, 0, tiles_cols))
    # H-style trunk: recursively halve the wider dimension.  Iterative
    # worklist; children are placed at the half-regions' centers with the
    # default (Manhattan) edge length — symmetric, hence equal floats.
    work: List[Tuple[int, int, int, int]] = [(0, tiles_rows, 0, tiles_cols)]
    while work:
        ti0, ti1, tj0, tj1 = work.pop()
        parent = _trunk_name(ti0, ti1, tj0, tj1)
        if ti1 - ti0 == 1 and tj1 - tj0 == 1:
            # A tap: chain through the tile's cells boustrophedon.
            prev: NodeId = parent
            for cell in _tile_cells(spec, ti0, tj0):
                r, c = cell
                tree.add_child(prev, cell, Point(float(c), float(r)))
                prev = cell
            continue
        if ti1 - ti0 >= tj1 - tj0:
            mid = (ti0 + ti1) // 2
            halves = [(ti0, mid, tj0, tj1), (mid, ti1, tj0, tj1)]
        else:
            mid = (tj0 + tj1) // 2
            halves = [(ti0, ti1, tj0, mid), (ti0, ti1, mid, tj1)]
        for half in halves:
            tree.add_child(
                parent, _trunk_name(*half), _region_center(spec, *half)
            )
            work.append(half)

    offsets = {
        cell: spec.m * tree.root_distance(cell) for cell in array.comm.nodes()
    }
    schedule = ClockSchedule(offsets, period)
    program = SystolicProgram(
        array=array, pes={}, cycles=1, read_result=lambda executor: None
    )
    return Design(
        program=program,
        tree=tree,
        model=PhysicalModel(m=spec.m, eps=spec.eps),
        schedule=schedule,
        delta=spec.delta,
        name=f"tiles-{tiles_rows}x{tiles_cols}-of-{spec.rows}x{spec.cols}",
    )


# ----------------------------------------------------------------------
# characterization and stitching
# ----------------------------------------------------------------------
def _classify_edges(
    spec: TileSpec, edges: List[EdgeKey]
) -> Tuple[np.ndarray, np.ndarray]:
    """(prototype-internal rows, boundary rows) as index arrays.

    An edge is internal when both endpoints fall in the same tile; the
    prototype is tile (0, 0), whose internal rows stand in for every
    tile's (bit-identical values by congruence).
    """
    proto: List[int] = []
    boundary: List[int] = []
    for i, (u, v) in enumerate(edges):
        tu = (u[0] // spec.rows, u[1] // spec.cols)
        tv = (v[0] // spec.rows, v[1] // spec.cols)
        if tu != tv:
            boundary.append(i)
        elif tu == (0, 0):
            proto.append(i)
    return (
        np.asarray(proto, dtype=np.int64),
        np.asarray(boundary, dtype=np.int64),
    )


def characterize_tile(
    spec: TileSpec,
    tiles_rows: int,
    tiles_cols: int,
    design: Optional[Design] = None,
) -> TileCharacterization:
    """Period-free slack ingredients for one composition, cached per
    (tile fingerprint, grid shape).

    Pass the already-composed ``design`` to skip a rebuild on a cache
    miss; on a hit the design is not touched at all.
    """
    key = (spec.fingerprint(), tiles_rows, tiles_cols)
    hit = _TILE_CACHE.get(key)
    if hit is not None:
        _TILE_CACHE_STATS["hits"] += 1
        return hit
    _TILE_CACHE_STATS["misses"] += 1
    if design is None:
        design = compose_design(spec, tiles_rows, tiles_cols, period=1.0)
    edges, lag, lead, sigma_ub, sigma_lb = _edge_vectors(design)
    proto_rows, boundary_rows = _classify_edges(spec, edges)
    need_exact = lead + lag
    need_bound = sigma_ub + lag
    hold_bound = lag - sigma_ub
    race_floor = race_floor_mask(lag, sigma_lb)
    arrays: Dict[str, np.ndarray] = {}
    for name, vec in (
        ("need_exact", need_exact),
        ("need_bound", need_bound),
        ("hold_bound", hold_bound),
        ("race_floor", race_floor),
    ):
        for prefix, rows in (("internal", proto_rows), ("boundary", boundary_rows)):
            sub = vec[rows]
            sub.flags.writeable = False
            arrays[f"{prefix}_{name}"] = sub
    characterization = TileCharacterization(
        tiles=tiles_rows * tiles_cols, **arrays
    )
    _TILE_CACHE[key] = characterization
    return characterization


def _aggregate(
    tiles: int,
    period: float,
    internal_need_exact: np.ndarray,
    internal_need_bound: np.ndarray,
    internal_hold_bound: np.ndarray,
    internal_race_floor: np.ndarray,
    boundary_need_exact: np.ndarray,
    boundary_need_bound: np.ndarray,
    boundary_hold_bound: np.ndarray,
    boundary_race_floor: np.ndarray,
) -> ArraySummary:
    """Fold prototype rows (x ``tiles``) and boundary rows into the flat
    aggregates, with exactly the flat pass's per-row comparisons."""
    edges = tiles * len(internal_need_exact) + len(boundary_need_exact)

    internal = classify_edges(
        period - internal_need_exact,
        internal_need_exact,
        period - internal_need_bound,
        internal_hold_bound,
        internal_race_floor,
    )
    boundary = classify_edges(
        period - boundary_need_exact,
        boundary_need_exact,
        period - boundary_need_bound,
        boundary_hold_bound,
        boundary_race_floor,
    )
    counts = {"edges": edges}
    boundary_counts = boundary.counts()
    for key, n in internal.counts().items():
        counts[key] = tiles * n + boundary_counts[key]
    need_exact_max = float(
        max(
            internal_need_exact.max(initial=-np.inf),
            boundary_need_exact.max(initial=-np.inf),
        )
    )
    need_exact_min = float(
        min(
            internal_need_exact.min(initial=np.inf),
            boundary_need_exact.min(initial=np.inf),
        )
    )
    need_bound_max = float(
        max(
            internal_need_bound.max(initial=-np.inf),
            boundary_need_bound.max(initial=-np.inf),
        )
    )
    return ArraySummary(
        period=period,
        edges=edges,
        # fl(period - x) is monotone in x, so the row-wise minimum of
        # fl(period - need) is fl(period - max(need)) exactly.
        worst_setup_slack=float(period - need_exact_max) if edges else 0.0,
        worst_hold_slack=need_exact_min if edges else 0.0,
        min_feasible_period_exact=(
            _bisect_period(need_exact_max) if edges else 0.0
        ),
        min_feasible_period_bound=(
            _bisect_period(need_bound_max) if edges else 0.0
        ),
        timing_clean=counts["stale"] == 0 and counts["race"] == 0,
        robust_clean=internal.robust and boundary.robust,
        counts=counts,
    )


def stitched_analysis(
    spec: TileSpec,
    tiles_rows: int,
    tiles_cols: int,
    period: float,
    design: Optional[Design] = None,
) -> ArraySummary:
    """Analyze the composition from cached tile summaries plus boundary
    stitching — no per-edge model kernels on a warm cache, any period."""
    ch = characterize_tile(spec, tiles_rows, tiles_cols, design=design)
    return _aggregate(
        ch.tiles,
        period,
        ch.internal_need_exact,
        ch.internal_need_bound,
        ch.internal_hold_bound,
        ch.internal_race_floor,
        ch.boundary_need_exact,
        ch.boundary_need_bound,
        ch.boundary_hold_bound,
        ch.boundary_race_floor,
    )


def flat_summary(design: Design) -> ArraySummary:
    """The oracle: the same aggregates from a full flat analysis."""
    analysis = analyze_slack(design)
    counts = {"edges": len(analysis.edges)}
    counts.update(analysis.flags.counts())
    return ArraySummary(
        period=design.period,
        edges=len(analysis.edges),
        worst_setup_slack=analysis.worst_setup_slack,
        worst_hold_slack=analysis.worst_hold_slack,
        min_feasible_period_exact=minimum_feasible_period(design, "exact"),
        min_feasible_period_bound=minimum_feasible_period(design, "bound"),
        timing_clean=analysis.timing_clean,
        robust_clean=analysis.robust_clean,
        counts=counts,
    )
