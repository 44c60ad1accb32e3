"""The clock tree ``CLK`` (assumption A4) and its path metrics.

A :class:`ClockTree` is a rooted tree whose nodes sit at planar positions
and whose edges carry explicit physical lengths (defaulting to the Manhattan
distance between endpoints; explicit lengths let equidistant H-trees and
delay-tuned trees represent "electrical length").  Binary arity is the
paper's assumption and the default, relaxable for deliberately non-binary
comparison schemes (star/equipotential hubs).

The two quantities every skew model consumes are defined here:

* ``path_difference(a, b)`` — the *d* of the difference model (A9): the
  positive difference of the two nodes' root distances, equivalently the
  difference of their distances to their lowest common ancestor (Fig. 1).
* ``path_length(a, b)`` — the *s* of the summation model (A10/A11): the
  length of the tree path between the nodes, i.e. the *sum* of their
  distances to the LCA (Fig. 2).

``s >= d >= 0`` always (tested as a hypothesis property).

Trees are mutable in two ways, both versioned (see :attr:`version`):

* ``add_child`` grows the tree (the ECO ``graft_subtree`` edit rides it);
* ``set_edge_length`` retunes one existing edge in place (the ECO
  ``resize_buffer`` edit), shifting the whole subtree's root distances
  with one vectorized in-place add on the shared dense store — the live
  LCA index never rebuilds.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.lca import DenseTreeStore, LiftingLCAIndex, _gather_ids
from repro.geometry.point import Point

NodeId = Hashable


def _pairs_fingerprint(pairs: Sequence) -> Tuple:
    """Cheap mutation guard for the pair-ids memo: length + endpoints."""
    return (len(pairs), pairs[0], pairs[-1]) if pairs else (0,)


class ClockTree:
    """A rooted clock distribution tree with physical edge lengths."""

    def __init__(
        self, root: NodeId, root_position: Point, max_children: int = 2
    ) -> None:
        if max_children < 1:
            raise ValueError("max_children must be at least 1")
        self._root = root
        self._max_children = max_children
        self._position: Dict[NodeId, Point] = {root: root_position}
        self._parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        self._children: Dict[NodeId, List[NodeId]] = {root: []}
        self._edge_length: Dict[NodeId, float] = {}  # keyed by child
        # The dense insertion-order arrays (ids, parents, depths, root
        # distances) live in a DenseTreeStore shared with the LCA index:
        # parents always precede children, and the root's parent is itself
        # (the lifting fixed point).  Single source of truth for depths
        # and root distances — scalar queries read it too.
        self._store = DenseTreeStore(root)
        # Bumped on every structural or edge-length mutation; consumers
        # (BufferedClockTree, Design.freshness_key and so the ECO session
        # behind STAAnalyzer) use it as a cheap staleness tripwire.
        self._version = 0
        # Lazy caches.  The LCA index re-synchronizes itself against the
        # store, so mutation never drops it; the leaves cache dies on
        # add_child and the path-metric memo dies on set_edge_length.
        self._lca_index: Optional[LiftingLCAIndex] = None
        self._leaves_cache: Optional[List[NodeId]] = None
        self._pair_ids_memo: Dict[int, tuple] = {}
        self._pair_metrics_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------
    def add_child(
        self,
        parent: NodeId,
        node: NodeId,
        position: Point,
        length: Optional[float] = None,
    ) -> None:
        """Attach ``node`` under ``parent``.

        ``length`` defaults to the Manhattan distance between the two nodes'
        positions; pass an explicit value to model routed detours or
        delay-tuned wiring.  Zero lengths are allowed (a cell sitting exactly
        at a tree tap point).

        Appending never invalidates the LCA index (it extends itself
        lazily) nor the pair-metric memos (existing nodes' root distances
        are untouched); only the leaves cache is dropped.
        """
        if node in self._position:
            raise ValueError(f"node {node!r} is already in the tree")
        if parent not in self._position:
            raise KeyError(f"parent {parent!r} is not in the tree")
        if len(self._children[parent]) >= self._max_children:
            raise ValueError(
                f"node {parent!r} already has {self._max_children} children "
                f"(CLK is a binary tree per A4)"
            )
        if length is None:
            length = self._position[parent].manhattan(position)
        if length < 0:
            raise ValueError("edge length must be non-negative")
        self._position[node] = position
        self._parent[node] = parent
        self._children[node] = []
        self._children[parent].append(node)
        self._edge_length[node] = float(length)
        store = self._store
        pid = store.id[parent]
        store.append(
            node,
            pid,
            int(store.depth[pid]) + 1,
            float(store.rd[pid] + float(length)),
        )
        self._leaves_cache = None
        self._version += 1

    def set_edge_length(self, child: NodeId, length: float) -> None:
        """Retune the edge above ``child`` in place (the ECO *resize* edit).

        The whole subtree under ``child`` shifts by the length delta: one
        vectorized in-place add over the shared dense store, visible to
        the live LCA index without any rebuild.  Drops the path-metric
        memo (cached ``(d, s)`` arrays are stale) but keeps the pair-id
        memo (dense ids are stable), and bumps :attr:`version`.

        Note the float caveat: the shift is applied in floating point, so
        a pair with *both* endpoints inside the subtree may still see its
        metrics move by a rounding ulp — consumers that promise bit-exact
        agreement with a fresh recompute must refresh those pairs too.
        """
        if child == self._root:
            raise ValueError("the root has no parent edge")
        if child not in self._position:
            raise KeyError(f"node {child!r} is not in the tree")
        if length < 0:
            raise ValueError("edge length must be non-negative")
        delta = float(length) - self._edge_length[child]
        if delta == 0.0:
            return
        self._edge_length[child] = float(length)
        ids = _gather_ids(self._store.id, self.subtree_nodes(child))
        self._store.rd[ids] += delta
        self._pair_metrics_memo.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> NodeId:
        return self._root

    @property
    def max_children(self) -> int:
        return self._max_children

    @property
    def version(self) -> int:
        """Monotonic mutation counter (``add_child`` / ``set_edge_length``)."""
        return self._version

    @property
    def dense_store(self) -> DenseTreeStore:
        """The shared dense arrays (exposed for index builds and perf
        harnesses; treat as read-only outside this module)."""
        return self._store

    def __contains__(self, node: NodeId) -> bool:
        return node in self._position

    def __len__(self) -> int:
        return len(self._position)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._position)

    def nodes(self) -> List[NodeId]:
        return list(self._position)

    def leaves(self) -> List[NodeId]:
        """Nodes with no children.  Cached until the next ``add_child``
        (the only structural mutation); callers get a fresh copy each call."""
        if self._leaves_cache is None:
            self._leaves_cache = [n for n, ch in self._children.items() if not ch]
        return list(self._leaves_cache)

    def parent(self, node: NodeId) -> Optional[NodeId]:
        return self._parent[node]

    def children(self, node: NodeId) -> List[NodeId]:
        return list(self._children[node])

    def children_map(self) -> Dict[NodeId, List[NodeId]]:
        """The ``children`` mapping in the form the Lemma 5 separator takes."""
        return {n: list(ch) for n, ch in self._children.items()}

    def position(self, node: NodeId) -> Point:
        return self._position[node]

    def edge_length(self, child: NodeId) -> float:
        """Length of the edge from ``child`` to its parent."""
        if child == self._root:
            raise ValueError("the root has no parent edge")
        return self._edge_length[child]

    def depth(self, node: NodeId) -> int:
        """Hop count from the root."""
        return int(self._store.depth[self._store.id[node]])

    def subtree_nodes(self, node: NodeId) -> List[NodeId]:
        out: List[NodeId] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return out

    # ------------------------------------------------------------------
    # path metrics (the d and s of the skew models)
    # ------------------------------------------------------------------
    def root_distance(self, node: NodeId) -> float:
        """Physical length of the path from the root to ``node``."""
        return float(self._store.rd[self._store.id[node]])

    def lca(self, a: NodeId, b: NodeId) -> NodeId:
        """Lowest common ancestor of two nodes."""
        da, db = self.depth(a), self.depth(b)
        while da > db:
            a = self._parent[a]
            da -= 1
        while db > da:
            b = self._parent[b]
            db -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def path_length(self, a: NodeId, b: NodeId) -> float:
        """``s``: physical length of the tree path between ``a`` and ``b``
        (sum of both nodes' distances to their LCA) — summation model."""
        ancestor = self.lca(a, b)
        idx = self._store.id
        rd = self._store.rd
        return float(rd[idx[a]] + rd[idx[b]] - 2.0 * rd[idx[ancestor]])

    def path_difference(self, a: NodeId, b: NodeId) -> float:
        """``d``: positive difference of root distances — difference model."""
        idx = self._store.id
        rd = self._store.rd
        return float(abs(rd[idx[a]] - rd[idx[b]]))

    # ------------------------------------------------------------------
    # batched path metrics (the vectorized kernels the skew bounds ride)
    # ------------------------------------------------------------------
    def lca_index(self) -> LiftingLCAIndex:
        """The lazily built batched LCA index (binary lifting).

        Shares the tree's dense store and re-synchronizes itself before
        every query, so it is built at most once per tree: grafts extend
        its lifting table incrementally and edge retunes flow through the
        shared root-distance buffer with no rebuild at all.  Exposed so
        callers holding many pair sets can translate nodes to dense ids
        once and query with raw arrays.
        """
        if self._lca_index is None:
            self._lca_index = LiftingLCAIndex(self._store)
        return self._lca_index

    def pair_ids(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense-id arrays ``(a_ids, b_ids)`` for a sequence of pairs.

        Translating node ids through the index dict is the one
        Python-speed step left in the batch kernels, so the result is
        memoized per pair-list *object* (callers like
        ``ProcessorArray.communicating_pairs`` hand out a stable cached
        list, which every skew kernel then translates exactly once).
        Dense ids are stable under every tree mutation, so the memo never
        needs invalidation.  The memo holds a strong reference to the
        list — ``id`` reuse is impossible while cached — and a (length,
        endpoints) fingerprint guards against in-place mutation; mutating
        a memoized list in place in a way that preserves both endpoints
        is undefined.
        """
        index = self.lca_index()
        key = id(pairs)
        hit = self._pair_ids_memo.get(key)
        if hit is not None:
            ref, fingerprint, a_ids, b_ids = hit
            if ref is pairs and fingerprint == _pairs_fingerprint(pairs):
                return a_ids, b_ids
        count = len(pairs)
        a_ids = index.node_ids([a for a, _ in pairs])
        b_ids = index.node_ids([b for _, b in pairs])
        a_ids.flags.writeable = False
        b_ids.flags.writeable = False
        if count and len(self._pair_ids_memo) >= 8:
            self._pair_ids_memo.clear()
        if count:
            self._pair_ids_memo[key] = (
                pairs, _pairs_fingerprint(pairs), a_ids, b_ids
            )
        return a_ids, b_ids

    def path_metrics_batch(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d, s)`` for every pair at once, as float64 arrays.

        ``d[i] == path_difference(*pairs[i])`` and
        ``s[i] == path_length(*pairs[i])`` exactly (same arithmetic, so
        the scalar/batch agreement is bit-for-bit, not within-epsilon).
        One index build plus one pair translation are amortized over all
        queries; like :meth:`pair_ids`, the result is memoized per
        pair-list object, so repeated bounds over the same communicating
        pairs (upper + lower, sweeps) reduce to pure model arithmetic.
        The memo is versioned against edge-length edits (the ``(d, s)``
        arrays go stale); dense-id memos survive.  The returned arrays
        are read-only.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        if not pairs:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        key = id(pairs)
        hit = self._pair_metrics_memo.get(key)
        if hit is not None:
            ref, fingerprint, d, s = hit
            if ref is pairs and fingerprint == _pairs_fingerprint(pairs):
                return d, s
        a_ids, b_ids = self.pair_ids(pairs)
        d, s = self.lca_index().path_metrics_ids(a_ids, b_ids)
        d.flags.writeable = False
        s.flags.writeable = False
        if len(self._pair_metrics_memo) >= 8:
            self._pair_metrics_memo.clear()
        self._pair_metrics_memo[key] = (pairs, _pairs_fingerprint(pairs), d, s)
        return d, s

    def lca_batch(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> List[NodeId]:
        """Lowest common ancestor of every pair, via the batched LCA index."""
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        if not pairs:
            return []
        index = self.lca_index()
        a_ids, b_ids = self.pair_ids(pairs)
        return [index.node(i) for i in index.lca_ids(a_ids, b_ids)]

    def longest_root_to_leaf(self) -> float:
        """``P``: the longest root-to-leaf path length, which lower-bounds
        the equipotential distribution time (A6)."""
        leaves = self.leaves()
        if not leaves:
            return 0.0
        ids = _gather_ids(self._store.id, leaves)
        return float(self._store.rd[ids].max())

    def total_wire_length(self) -> float:
        """Sum of all edge lengths; with unit wire width (A3) this is the
        clock tree's area contribution (Lemma 1's accounting)."""
        return sum(self._edge_length.values())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_equidistant(self, nodes: Iterable[NodeId], tolerance: float = 1e-9) -> bool:
        """True when all given nodes have equal root distance — the property
        H-tree clocking establishes so that the difference model sees d = 0."""
        idx = self._store.id
        rd = self._store.rd
        distances = [float(rd[idx[n]]) for n in nodes]
        if not distances:
            return True
        return max(distances) - min(distances) <= tolerance

    def validate(self) -> None:
        """Check structural invariants (parent/child consistency, arity,
        root reachability) in a single O(n) pass.

        One DFS over child edges visits every node reachable from the
        root at most once; a node outside that set either sits on a
        parent cycle or hangs off a broken parent pointer, so the old
        per-node root-walk (O(n * depth)) adds nothing.
        """
        for node, kids in self._children.items():
            if len(kids) > self._max_children:
                raise AssertionError(f"node {node!r} exceeds arity")
            for kid in kids:
                if self._parent[kid] != node:
                    raise AssertionError(f"parent pointer of {kid!r} is wrong")
        reached = {self._root}
        stack = [self._root]
        while stack:
            for kid in self._children[stack.pop()]:
                if kid in reached:
                    raise AssertionError(f"{kid!r} reached twice — cycle or shared child")
                reached.add(kid)
                stack.append(kid)
        if len(reached) != len(self._position):
            stray = next(n for n in self._position if n not in reached)
            raise AssertionError(f"{stray!r} does not reach the root")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockTree(root={self._root!r}, {len(self._position)} nodes, "
            f"P={self.longest_root_to_leaf():.3g})"
        )
