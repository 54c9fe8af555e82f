"""Tests for the per-object AABB-tree oracle (``tests/oracles/aabbtree.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import tri_tri_distance_batch, tri_tri_intersect_batch
from repro.mesh import box_mesh, icosphere
from tests.oracles.aabbtree import TriangleAABBTree


def brute_force_distance(tris_a, tris_b):
    ii, jj = np.meshgrid(np.arange(len(tris_a)), np.arange(len(tris_b)), indexing="ij")
    return float(
        tri_tri_distance_batch(
            tris_a[ii.ravel()], tris_b[jj.ravel()], check_intersection=False
        ).min()
    )


def brute_force_intersects(tris_a, tris_b):
    ii, jj = np.meshgrid(np.arange(len(tris_a)), np.arange(len(tris_b)), indexing="ij")
    return bool(tri_tri_intersect_batch(tris_a[ii.ravel()], tris_b[jj.ravel()]).any())


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TriangleAABBTree(np.zeros((0, 3, 3)))

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            TriangleAABBTree(icosphere(1).triangles, leaf_size=0)

    def test_root_box_covers_all(self):
        mesh = icosphere(2)
        tree = TriangleAABBTree(mesh.triangles)
        assert np.allclose(tree.node_low[0], mesh.triangles.min(axis=(0, 1)))
        assert np.allclose(tree.node_high[0], mesh.triangles.max(axis=(0, 1)))

    def test_order_is_permutation(self):
        tree = TriangleAABBTree(icosphere(2).triangles, leaf_size=4)
        assert sorted(tree.order.tolist()) == list(range(len(tree.triangles)))


class TestIntersects:
    def test_disjoint_spheres(self):
        a = TriangleAABBTree(icosphere(2, center=(0, 0, 0)).triangles)
        b = TriangleAABBTree(icosphere(2, center=(5, 0, 0)).triangles)
        assert not a.intersects(b)

    def test_overlapping_spheres(self):
        a = TriangleAABBTree(icosphere(2, center=(0, 0, 0)).triangles)
        b = TriangleAABBTree(icosphere(2, center=(1.2, 0, 0)).triangles)
        assert a.intersects(b)

    def test_touching_boxes(self):
        a = TriangleAABBTree(box_mesh((0, 0, 0), (1, 1, 1)).triangles)
        b = TriangleAABBTree(box_mesh((1, 0, 0), (2, 1, 1)).triangles)
        assert a.intersects(b)

    def test_nested_surfaces_do_not_intersect(self):
        # One sphere strictly inside the other: surfaces are disjoint.
        a = TriangleAABBTree(icosphere(2, radius=1.0).triangles)
        b = TriangleAABBTree(icosphere(2, radius=0.3).triangles)
        assert not a.intersects(b)

    def test_stats_counts_fewer_pairs_than_bruteforce(self):
        a = icosphere(2, center=(0, 0, 0)).triangles
        b = icosphere(2, center=(3, 0, 0)).triangles
        stats = {}
        TriangleAABBTree(a).intersects(TriangleAABBTree(b), stats=stats)
        assert stats.get("pairs", 0) < len(a) * len(b) / 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        offset = rng.uniform(0, 2.5, size=3)
        a = icosphere(1, radius=1.0).triangles
        b = icosphere(1, radius=1.0, center=tuple(offset)).triangles
        assert TriangleAABBTree(a).intersects(TriangleAABBTree(b)) == (
            brute_force_intersects(a, b)
        )


class TestMinDistance:
    def test_matches_bruteforce_on_spheres(self):
        a = icosphere(2, center=(0, 0, 0)).triangles
        b = icosphere(2, center=(4, 1, -0.5)).triangles
        tree_a, tree_b = TriangleAABBTree(a), TriangleAABBTree(b)
        assert tree_a.min_distance(tree_b) == pytest.approx(brute_force_distance(a, b))

    def test_symmetric(self):
        a = TriangleAABBTree(icosphere(1, center=(0, 0, 0)).triangles)
        b = TriangleAABBTree(icosphere(1, center=(3, 2, 1)).triangles)
        assert a.min_distance(b) == pytest.approx(b.min_distance(a))

    def test_stop_below_early_exit(self):
        a = TriangleAABBTree(icosphere(2).triangles)
        b = TriangleAABBTree(icosphere(2, center=(2.5, 0, 0)).triangles)
        stats_full, stats_early = {}, {}
        full = a.min_distance(b, stats=stats_full)
        early = a.min_distance(b, stop_below=10.0, stats=stats_early)
        # Early exit may return a coarser (but valid upper-bound) value.
        assert early >= full - 1e-12
        assert stats_early.get("pairs", 0) <= stats_full.get("pairs", 0)

    def test_upper_bound_pruning_preserves_result_when_below(self):
        a = TriangleAABBTree(icosphere(2).triangles)
        b = TriangleAABBTree(icosphere(2, center=(3, 0, 0)).triangles)
        exact = a.min_distance(b)
        bounded = a.min_distance(b, upper_bound=exact + 0.5)
        assert bounded == pytest.approx(exact)

    def test_upper_bound_returned_when_true_distance_above(self):
        a = TriangleAABBTree(icosphere(1).triangles)
        b = TriangleAABBTree(icosphere(1, center=(10, 0, 0)).triangles)
        assert a.min_distance(b, upper_bound=1.0) == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bruteforce_random(self, seed):
        rng = np.random.default_rng(seed)
        offset = rng.uniform(2.2, 6, size=3)
        a = icosphere(1).triangles
        b = icosphere(1, center=tuple(offset)).triangles
        tree = TriangleAABBTree(a).min_distance(TriangleAABBTree(b))
        assert tree == pytest.approx(brute_force_distance(a, b))

    def test_prunes_pairs_versus_bruteforce(self):
        a = icosphere(3).triangles
        b = icosphere(3, center=(4, 0, 0)).triangles
        stats = {}
        TriangleAABBTree(a).min_distance(TriangleAABBTree(b), stats=stats)
        assert stats["pairs"] < len(a) * len(b) / 10
