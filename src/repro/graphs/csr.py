"""CSR (compressed sparse row) COMM adjacency for large-N kernels.

:class:`~repro.graphs.comm.CommGraph` stores adjacency as dicts of
Python sets — the right structure for incremental construction and the
graph-theoretic queries (connectivity, bisection, separators), but a
million-cell mesh costs minutes of pure-Python ``add_edge`` calls and
gigabytes of set overhead before a single kernel runs.  The array
kernels only ever need the *predecessor lists in a fixed order*, so
this module provides that view directly:

* :class:`CSRAdjacency` — dense ids ``0..n-1`` with predecessor lists
  packed into the classic ``(indptr, indices)`` pair.  Predecessors are
  sorted by dense id within each row, which makes the representation
  canonical: two builds of the same graph compare equal.
* :func:`grid_csr` — the rectangular-mesh adjacency built with pure
  numpy index arithmetic: O(n) work, no per-cell Python loop, so a
  1024 x 1024 array (1,048,576 cells, ~4.2M directed edges) compiles in
  tens of milliseconds instead of the ~minute a ``CommGraph`` walk
  takes.
* :func:`csr_from_comm` — the general lowering from an existing
  ``CommGraph`` (Python-speed, O(n + e)); the reference the tests
  compare :func:`grid_csr` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.graphs.comm import CommGraph

NodeId = Hashable


@dataclass(frozen=True)
class CSRAdjacency:
    """Predecessor adjacency in CSR form over dense cell ids.

    ``indices[indptr[i]:indptr[i + 1]]`` are the predecessors of cell
    ``i``, sorted ascending by this module's builders (the clocked
    program kernel keeps its captured order instead).  ``nodes``
    optionally carries the original cell ids in dense order (``None``
    when cells *are* ``0..n-1``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    nodes: Optional[List[NodeId]] = None

    @property
    def n_cells(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Number of directed edges (total predecessor-list length)."""
        return int(self.indptr[-1])

    def predecessors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def same_structure(self, other: "CSRAdjacency") -> bool:
        """Structural equality of the packed arrays (ignores ``nodes``)."""
        return bool(
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def grid_csr(rows: int, cols: int) -> CSRAdjacency:
    """Predecessor CSR of a bidirectional ``rows x cols`` mesh.

    Cell ``(r, c)`` gets dense id ``r * cols + c`` (row-major — the
    same insertion order :func:`repro.arrays.topologies.mesh` uses), and
    its predecessors are its up/left/right/down neighbors.  Built
    entirely from numpy index arithmetic: the four neighbor relations
    are each one shifted ``arange``, so the build is O(n) with no
    Python-level per-cell loop.  Equals
    ``csr_from_comm(mesh(rows, cols).comm)`` structurally (tested).
    """
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    n = rows * cols
    ids = np.arange(n, dtype=np.int64)
    r = ids // cols
    c = ids % cols
    # Predecessors of each cell in ascending dense-id order: up
    # (id - cols), left (id - 1), right (id + 1), down (id + cols).
    rel_dst: List[np.ndarray] = []
    rel_src: List[np.ndarray] = []
    for delta, mask in (
        (-cols, r > 0),
        (-1, c > 0),
        (1, c < cols - 1),
        (cols, r < rows - 1),
    ):
        sel = ids[mask]
        rel_dst.append(sel)
        rel_src.append(sel + delta)
    dst = np.concatenate(rel_dst)
    src = np.concatenate(rel_src)
    # Within a destination the four relations above are already in
    # ascending source order, so a stable sort on dst alone yields the
    # canonical (dst, src)-sorted layout.
    order = np.argsort(dst, kind="stable")
    indices = src[order]
    counts = np.bincount(dst, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(indptr=indptr, indices=indices, nodes=None)


def csr_from_comm(
    comm: CommGraph, cells: Optional[Sequence[NodeId]] = None
) -> CSRAdjacency:
    """Lower a :class:`CommGraph` to predecessor CSR.

    ``cells`` fixes the dense numbering (default: ``comm.nodes()``
    insertion order).  Predecessors are sorted by dense id within each
    row — the canonical order :func:`grid_csr` also produces — so the
    result is independent of set-iteration order.
    """
    cell_list = list(cells) if cells is not None else comm.nodes()
    index = {cell: i for i, cell in enumerate(cell_list)}
    n = len(cell_list)
    indptr = np.zeros(n + 1, dtype=np.int64)
    packed: List[int] = []
    for i, cell in enumerate(cell_list):
        preds = sorted(index[p] for p in comm.predecessors(cell))
        packed.extend(preds)
        indptr[i + 1] = len(packed)
    return CSRAdjacency(
        indptr=indptr,
        indices=np.asarray(packed, dtype=np.int64),
        nodes=cell_list,
    )
