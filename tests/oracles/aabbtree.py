"""Reference oracle: AABB-tree over the faces of a decoded polyhedron.

This is the paper's per-object intra-geometry index (Section 5.1),
which the engine shipped as a second refine evaluator
(``Accel(aabbtree=True)``) until it lost to the fused face-pair waves of
:mod:`repro.core.batch` on every measured query (EXPERIMENTS.md,
"AABB-tree evaluator"). Indexing the primitives of two polyhedra turns
the all-pairs face evaluation (``O(N * N')``) into pruned dual-tree
traversals (``O(N log N')`` in practice): only leaf pairs whose bounding
boxes can still matter reach the triangle kernels. A traversal is a
different algorithm from the waves, so it is kept as an independent
differential oracle for them: ``tests/oracles/per_pair_refine.py`` runs
its pair kernels on these trees under ``installed(tree=True)``. Not used
on any query path.

Both traversals optionally accumulate the number of face pairs actually
evaluated into a stats dict.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch

__all__ = ["TriangleAABBTree"]


class TriangleAABBTree:
    """A static bounding-volume hierarchy over an ``(m, 3, 3)`` triangle array."""

    def __init__(self, triangles: np.ndarray, leaf_size: int = 8):
        triangles = np.asarray(triangles, dtype=np.float64)
        if triangles.ndim != 3 or triangles.shape[1:] != (3, 3):
            raise ValueError("expected an (m, 3, 3) triangle array")
        if len(triangles) == 0:
            raise ValueError("cannot index an empty triangle set")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.triangles = triangles
        self.leaf_size = leaf_size

        tri_low = triangles.min(axis=1)  # (m, 3)
        tri_high = triangles.max(axis=1)
        centers = (tri_low + tri_high) / 2.0

        # Flat node arrays, built iteratively; children of node i are
        # stored explicitly. Leaves own a contiguous range of the
        # permutation array `order`.
        self._node_low: list[np.ndarray] = []
        self._node_high: list[np.ndarray] = []
        self._node_left: list[int] = []
        self._node_right: list[int] = []
        self._node_start: list[int] = []
        self._node_end: list[int] = []
        self.order = np.arange(len(triangles))

        # Iterative median-split build over (start, end) ranges.
        stack = [(0, len(triangles), self._new_node())]
        while stack:
            start, end, node_id = stack.pop()
            idx = self.order[start:end]
            low = tri_low[idx].min(axis=0)
            high = tri_high[idx].max(axis=0)
            self._node_low[node_id] = low
            self._node_high[node_id] = high
            self._node_start[node_id] = start
            self._node_end[node_id] = end
            if end - start <= leaf_size:
                continue
            axis = int(np.argmax(high - low))
            local = np.argsort(centers[idx, axis], kind="stable")
            self.order[start:end] = idx[local]
            mid = start + (end - start) // 2
            left = self._new_node()
            right = self._new_node()
            self._node_left[node_id] = left
            self._node_right[node_id] = right
            stack.append((start, mid, left))
            stack.append((mid, end, right))

        self.node_low = np.asarray(self._node_low)
        self.node_high = np.asarray(self._node_high)
        self.node_left = np.asarray(self._node_left, dtype=np.int64)
        self.node_right = np.asarray(self._node_right, dtype=np.int64)
        self.node_start = np.asarray(self._node_start, dtype=np.int64)
        self.node_end = np.asarray(self._node_end, dtype=np.int64)

    def _new_node(self) -> int:
        self._node_low.append(np.zeros(3))
        self._node_high.append(np.zeros(3))
        self._node_left.append(-1)
        self._node_right.append(-1)
        self._node_start.append(0)
        self._node_end.append(0)
        return len(self._node_left) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.node_left)

    def _is_leaf(self, node: int) -> bool:
        return self.node_left[node] < 0

    def _leaf_triangles(self, node: int) -> np.ndarray:
        idx = self.order[self.node_start[node] : self.node_end[node]]
        return self.triangles[idx]

    # -- dual-tree traversals -------------------------------------------------

    def intersects(self, other: "TriangleAABBTree", stats: dict | None = None) -> bool:
        """True when any face of ``self`` intersects any face of ``other``."""
        stack = [(0, 0)]
        while stack:
            a, b = stack.pop()
            if not _boxes_overlap(
                self.node_low[a], self.node_high[a], other.node_low[b], other.node_high[b]
            ):
                continue
            a_leaf, b_leaf = self._is_leaf(a), other._is_leaf(b)
            if a_leaf and b_leaf:
                tris_a = self._leaf_triangles(a)
                tris_b = other._leaf_triangles(b)
                ii, jj = np.meshgrid(
                    np.arange(len(tris_a)), np.arange(len(tris_b)), indexing="ij"
                )
                pairs = len(tris_a) * len(tris_b)
                if stats is not None:
                    stats["pairs"] = stats.get("pairs", 0) + pairs
                if bool(
                    tri_tri_intersect_batch(tris_a[ii.ravel()], tris_b[jj.ravel()]).any()
                ):
                    return True
            elif b_leaf or (not a_leaf and _volume(self, a) >= _volume(other, b)):
                stack.append((int(self.node_left[a]), b))
                stack.append((int(self.node_right[a]), b))
            else:
                stack.append((a, int(other.node_left[b])))
                stack.append((a, int(other.node_right[b])))
        return False

    def min_distance(
        self,
        other: "TriangleAABBTree",
        stop_below: float = 0.0,
        upper_bound: float = math.inf,
        stats: dict | None = None,
    ) -> float:
        """Branch-and-bound minimum face-pair distance between two trees.

        ``stop_below``: return as soon as the best distance found is <=
        this value (the within query only needs to know the distance
        clears a threshold). ``upper_bound``: prune subtree pairs that
        cannot beat it (seeded by callers that already hold a bound).
        Returns the exact minimum when it is below ``upper_bound``;
        otherwise returns a value >= the true minimum.
        """
        best = upper_bound
        heap = [(self._pair_mindist(other, 0, 0), 0, 0)]
        while heap:
            lower, a, b = heapq.heappop(heap)
            if lower >= best or best <= stop_below:
                break
            a_leaf, b_leaf = self._is_leaf(a), other._is_leaf(b)
            if a_leaf and b_leaf:
                tris_a = self._leaf_triangles(a)
                tris_b = other._leaf_triangles(b)
                ii, jj = np.meshgrid(
                    np.arange(len(tris_a)), np.arange(len(tris_b)), indexing="ij"
                )
                if stats is not None:
                    stats["pairs"] = stats.get("pairs", 0) + len(tris_a) * len(tris_b)
                dist = tri_tri_distance_batch(
                    tris_a[ii.ravel()], tris_b[jj.ravel()], check_intersection=False
                ).min()
                best = min(best, float(dist))
            elif b_leaf or (not a_leaf and _volume(self, a) >= _volume(other, b)):
                for child in (int(self.node_left[a]), int(self.node_right[a])):
                    lower_c = self._pair_mindist(other, child, b)
                    if lower_c < best:
                        heapq.heappush(heap, (lower_c, child, b))
            else:
                for child in (int(other.node_left[b]), int(other.node_right[b])):
                    lower_c = self._pair_mindist(other, a, child)
                    if lower_c < best:
                        heapq.heappush(heap, (lower_c, a, child))
        return best

    def _pair_mindist(self, other: "TriangleAABBTree", a: int, b: int) -> float:
        gap = np.maximum(
            np.maximum(
                self.node_low[a] - other.node_high[b],
                other.node_low[b] - self.node_high[a],
            ),
            0.0,
        )
        return float(math.sqrt(float((gap * gap).sum())))


def _boxes_overlap(low_a, high_a, low_b, high_b) -> bool:
    return bool(np.all((low_a <= high_b) & (low_b <= high_a)))


def _volume(tree: TriangleAABBTree, node: int) -> float:
    extent = tree.node_high[node] - tree.node_low[node]
    return float(extent[0] * extent[1] * extent[2])
