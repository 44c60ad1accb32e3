"""Batched LCA indexes for the path-metric kernels.

The scalar :meth:`ClockTree.lca` walks parent pointers and costs
O(depth) dict lookups per query; every skew bound quantifies over all
communicating pairs, so figure benchmarks pay O(pairs x depth) in pure
Python.  :class:`LiftingLCAIndex` trades a one-off build for vectorized
queries over numpy arrays of pairs: binary lifting over the
:class:`DenseTreeStore` that :class:`~repro.clocktree.tree.ClockTree`
maintains incrementally during ``add_child``.  The index *shares* the
store (no O(n) snapshot at build time) and re-synchronizes lazily:
appending nodes extends the lifting table by a few vectorized gathers
over just the new suffix, and in-place root-distance updates
(``ClockTree.set_edge_length``) are visible immediately because the
distances are read straight from the store.  A cold build is
``ceil(log2(max_depth + 1))`` O(n) numpy gathers; queries cost
O(log depth) gathers per pair batch.  The scalar tree walk
(``ClockTree.lca``/``path_length``/``path_difference``) is its oracle:
both evaluate the same float64 expressions, so they agree bit-for-bit,
and the ``max_skew_bound_cold`` perf row prices a fresh build
(index + pair translation) against that walk.

Beyond LCA queries the lifting index answers the subtree-membership
questions the ECO engine needs (:meth:`~LiftingLCAIndex.in_subtree_ids`,
:meth:`~LiftingLCAIndex.subtree_mask`,
:meth:`~LiftingLCAIndex.pairs_through_node`,
:meth:`~LiftingLCAIndex.subtree_interval`): resizing one clock buffer
dirties exactly the communicating pairs whose tree paths cross the
resized edge, and those are the pairs with exactly one endpoint inside
the edge's subtree.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

NodeId = Hashable


def _gather_ids(idx: Dict[NodeId, int], nodes: Sequence[NodeId]) -> np.ndarray:
    """Dense ids for ``nodes`` as int64 — ``operator.itemgetter`` resolves
    the whole batch in one C call, several times faster than a Python
    generator of dict lookups (this gather dominated the *cold*
    build-and-query path at large pair counts)."""
    count = len(nodes)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == 1:
        return np.array([idx[nodes[0]]], dtype=np.int64)
    return np.fromiter(itemgetter(*nodes)(idx), dtype=np.int64, count=count)


class DenseTreeStore:
    """Growable numpy-backed dense arrays for a rooted tree.

    The single source of truth both :class:`~repro.clocktree.tree.ClockTree`
    and :class:`LiftingLCAIndex` read: insertion-ordered node ids (parents
    always precede children; the root's parent is itself, the lifting
    fixed point), parent ids, depths, and root distances.  Appends are
    amortized O(1) (capacity doubling); root distances may be updated in
    place (``rd[ids] += delta`` during an edge-length edit) and every
    reader sees the change immediately because nothing snapshots.
    """

    __slots__ = ("id", "nodes", "n", "max_depth", "_parent", "_depth", "_rd")

    def __init__(self, root: NodeId, capacity: int = 64) -> None:
        self.id: Dict[NodeId, int] = {root: 0}
        self.nodes: List[NodeId] = [root]
        self.n = 1
        self.max_depth = 0
        self._parent = np.zeros(capacity, dtype=np.int64)
        self._depth = np.zeros(capacity, dtype=np.int64)
        self._rd = np.zeros(capacity, dtype=np.float64)

    @property
    def capacity(self) -> int:
        return len(self._parent)

    @property
    def parent(self) -> np.ndarray:
        """Parent ids, length ``n`` (a view into the growable buffer)."""
        return self._parent[: self.n]

    @property
    def depth(self) -> np.ndarray:
        """Depths, length ``n`` (a view into the growable buffer)."""
        return self._depth[: self.n]

    @property
    def rd(self) -> np.ndarray:
        """Root distances, length ``n``.  The view is writable on purpose:
        ``ClockTree.set_edge_length`` shifts whole subtrees in place."""
        return self._rd[: self.n]

    def append(self, node: NodeId, parent_id: int, depth: int, rd: float) -> int:
        """Add one node (its parent must already be present)."""
        i = self.n
        if i == len(self._parent):
            self._grow()
        self.id[node] = i
        self.nodes.append(node)
        self._parent[i] = parent_id
        self._depth[i] = depth
        self._rd[i] = rd
        if depth > self.max_depth:
            self.max_depth = depth
        self.n = i + 1
        return i

    def _grow(self) -> None:
        new_cap = max(64, 2 * len(self._parent))
        for name in ("_parent", "_depth", "_rd"):
            old = getattr(self, name)
            buf = np.zeros(new_cap, dtype=old.dtype)
            buf[: self.n] = old[: self.n]
            setattr(self, name, buf)


class LiftingLCAIndex:
    """Binary-lifting LCA index over a live :class:`DenseTreeStore`.

    Unlike a frozen snapshot, the index keeps a reference to the store
    and lazily re-synchronizes before every query: when the tree grew by
    k nodes since the last query, only k columns of the lifting table
    are (vectorized) filled in — a graft never triggers a full rebuild.
    Root-distance edits need no sync at all (distances are read from the
    store).  The cold build is pure numpy: one O(n) gather per lifting
    level, no per-node Python loop.
    """

    def __init__(self, store: DenseTreeStore) -> None:
        self._store = store
        self._n = 0        # columns of the lifting table that are filled
        self._levels = 0   # rows of the lifting table that are filled
        self._up = np.empty((0, 0), dtype=np.int64)
        # Lazy preorder intervals (tin/tout/subtree size); structure-keyed.
        self._interval_n = -1
        self._tin = np.empty(0, dtype=np.int64)
        self._tout = np.empty(0, dtype=np.int64)
        self._size = np.empty(0, dtype=np.int64)
        self._sync()

    @classmethod
    def from_arrays(
        cls,
        node_id: Dict[NodeId, int],
        nodes: Sequence[NodeId],
        parent_ids: Sequence[int],
        depths: Sequence[int],
        root_distances: Sequence[float],
    ) -> "LiftingLCAIndex":
        """Build a free-standing index from flat arrays (tests, tools)."""
        store = DenseTreeStore(nodes[0], capacity=max(64, len(nodes)))
        for i in range(1, len(nodes)):
            store.append(nodes[i], int(parent_ids[i]), int(depths[i]),
                         float(root_distances[i]))
        store._rd[0] = float(root_distances[0])
        if store.id != dict(node_id):
            raise ValueError("node_id does not match the nodes sequence")
        return cls(store)

    # ------------------------------------------------------------------
    # incremental synchronisation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Extend the lifting table to cover every node in the store.

        New columns (appended nodes) are filled level by level over just
        the new suffix; a new level (the tree got deeper) is one full
        O(n) gather.  Ancestors always carry smaller dense ids than their
        descendants, so level ``k-1`` entries for the new suffix are
        complete before level ``k`` reads them.
        """
        store = self._store
        n1 = store.n
        levels = max(1, store.max_depth.bit_length())
        if n1 == self._n and levels == self._levels:
            return
        if self._up.shape[0] < levels or self._up.shape[1] < n1:
            up = np.empty((levels, store.capacity), dtype=np.int64)
            if self._n:
                up[: self._levels, : self._n] = self._up[: self._levels, : self._n]
            self._up = up
        up = self._up
        parent = store.parent
        if self._levels and n1 > self._n:
            lo = self._n
            up[0, lo:n1] = parent[lo:n1]
            for k in range(1, self._levels):
                prev = up[k - 1, :n1]
                up[k, lo:n1] = prev[up[k - 1, lo:n1]]
        for k in range(self._levels, levels):
            if k == 0:
                up[0, :n1] = parent
            else:
                prev = up[k - 1, :n1]
                up[k, :n1] = prev[prev]
        self._n = n1
        self._levels = levels

    # ------------------------------------------------------------------
    # node numbering
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._store.n

    def node_id(self, node: NodeId) -> int:
        """Dense integer id of ``node`` (tree insertion order)."""
        return self._store.id[node]

    def node_ids(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Vector of dense ids for a sequence of nodes."""
        return _gather_ids(self._store.id, nodes)

    def node(self, nid: int) -> NodeId:
        """The node with dense id ``nid``."""
        return self._store.nodes[nid]

    @property
    def root_distance(self) -> np.ndarray:
        """Root distances indexed by dense id (read-only view).  Live:
        reflects in-place edge-length edits on the owning tree."""
        view = self._store.rd.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lca_ids(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Dense ids of the LCAs of element-wise pairs ``(a_ids, b_ids)``."""
        self._sync()
        depth = self._store.depth
        up = self._up
        swap = depth[b_ids] > depth[a_ids]
        a = np.where(swap, b_ids, a_ids)
        b = np.where(swap, a_ids, b_ids)
        diff = depth[a] - depth[b]
        for k in range(self._levels):
            lift = ((diff >> k) & 1).astype(bool)
            if lift.any():
                a = np.where(lift, up[k][a], a)
        for k in range(self._levels - 1, -1, -1):
            ua, ub = up[k][a], up[k][b]
            split = ua != ub
            if split.any():
                a = np.where(split, ua, a)
                b = np.where(split, ub, b)
        return np.where(a == b, a, self._store.parent[a])

    def path_metrics_ids(
        self, a_ids: np.ndarray, b_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d, s)`` arrays for element-wise pairs given as dense ids.

        ``d`` is the difference-model metric ``|rd(a) - rd(b)|``; ``s`` is
        the summation-model metric ``rd(a) + rd(b) - 2 rd(lca)``, computed
        with exactly the arithmetic of the scalar path so batch and scalar
        results agree bit-for-bit.
        """
        rd = self._store.rd
        ra, rb = rd[a_ids], rd[b_ids]
        d = np.abs(ra - rb)
        s = ra + rb - 2.0 * rd[self.lca_ids(a_ids, b_ids)]
        return d, s

    def path_metrics(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d, s)`` arrays for a sequence of node pairs."""
        if pairs:
            a_nodes, b_nodes = zip(*pairs)
        else:
            a_nodes, b_nodes = (), ()
        a_ids = _gather_ids(self._store.id, a_nodes)
        b_ids = _gather_ids(self._store.id, b_nodes)
        return self.path_metrics_ids(a_ids, b_ids)

    # ------------------------------------------------------------------
    # subtree queries (the ECO dirty-set primitives)
    # ------------------------------------------------------------------
    def in_subtree_ids(self, nid: int, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: is each of ``ids`` inside the subtree rooted at
        ``nid`` (inclusive)?

        Implemented by lifting each candidate up ``depth(id) - depth(nid)``
        levels and comparing with ``nid`` — O(log depth) vectorized gathers,
        valid immediately after any append (no interval rebuild needed).
        """
        self._sync()
        depth = self._store.depth
        ids = np.asarray(ids, dtype=np.int64)
        diff = depth[ids] - depth[nid]
        deep_enough = diff >= 0
        a = np.where(deep_enough, ids, 0)
        climb = np.where(deep_enough, diff, 0)
        for k in range(self._levels):
            lift = ((climb >> k) & 1).astype(bool)
            if lift.any():
                a = np.where(lift, self._up[k][a], a)
        return deep_enough & (a == nid)

    def subtree_mask(self, nid: int) -> np.ndarray:
        """Boolean mask over *all* dense ids: True inside ``nid``'s subtree."""
        self._ensure_intervals()
        lo, hi = self._tin[nid], self._tout[nid]
        tin = self._tin
        return (tin >= lo) & (tin <= hi)

    def subtree_interval(self, nid: int) -> Tuple[int, int]:
        """Preorder interval ``(tin, tout)`` of the subtree rooted at
        ``nid`` (inclusive on both ends): node ``y`` is in the subtree iff
        ``tin(nid) <= tin(y) <= tout(nid)``."""
        self._ensure_intervals()
        return int(self._tin[nid]), int(self._tout[nid])

    def subtree_size(self, nid: int) -> int:
        """Number of nodes in the subtree rooted at ``nid`` (inclusive)."""
        self._ensure_intervals()
        return int(self._size[nid])

    def pairs_through_node(
        self, nid: int, a_ids: np.ndarray, b_ids: np.ndarray
    ) -> np.ndarray:
        """Boolean mask of the pairs whose tree path crosses the edge
        *above* ``nid`` — exactly one endpoint inside the subtree.

        These are the pairs whose ``(d, s)`` metrics change when that
        edge's length changes: both-inside pairs shift together (LCA
        included) and both-outside pairs never see the edge.  (An ECO
        recompute conservatively refreshes both-inside pairs too — see
        :meth:`repro.sta.eco.ECOSession.resize_buffer` — because the
        constant shift is applied in floating point.)
        """
        in_a = self.in_subtree_ids(nid, a_ids)
        in_b = self.in_subtree_ids(nid, b_ids)
        return in_a ^ in_b

    def _ensure_intervals(self) -> None:
        """(Re)build preorder tin/tout/size lazily; keyed on node count
        (appends change intervals, in-place rd edits do not)."""
        self._sync()
        n = self._n
        if self._interval_n == n:
            return
        store = self._store
        parent = store.parent
        size = np.ones(n, dtype=np.int64)
        tin = np.zeros(n, dtype=np.int64)
        if n > 1:
            # Children grouped per parent in insertion order (stable sort),
            # lowered to CSR so the DFS below is array indexing only.
            order = np.argsort(parent[1:], kind="stable").astype(np.int64) + 1
            counts = np.bincount(parent[1:], minlength=n)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            # Iterative preorder DFS; children pushed in reverse so they
            # pop in insertion order.  Sizes accumulate on the way out.
            stack = [(0, False)]
            clock = 0
            while stack:
                nid, done = stack.pop()
                kids = order[ptr[nid]:ptr[nid + 1]]
                if done:
                    total = 1
                    for kid in kids:
                        total += size[kid]
                    size[nid] = total
                    continue
                tin[nid] = clock
                clock += 1
                stack.append((nid, True))
                for kid in kids[::-1]:
                    stack.append((int(kid), False))
        self._tin = tin
        self._size = size
        self._tout = tin + size - 1
        self._interval_n = n

