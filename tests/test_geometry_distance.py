"""Tests for point/segment/triangle distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    point_triangle_distance,
    segment_segment_distance,
    tri_tri_distance,
    tri_tri_distance_batch,
    tri_tri_intersect,
)
from repro.geometry.distance import (
    closest_point_on_triangle_batch,
    point_triangle_distance_batch,
    segment_segment_distance_batch,
)
from repro.geometry import distance
from tests.oracles import distance_rows

XY = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)


class TestPointTriangle:
    def test_point_above_interior(self):
        assert point_triangle_distance((0.2, 0.2, 3.0), XY) == pytest.approx(3.0)

    def test_point_on_triangle(self):
        assert point_triangle_distance((0.2, 0.2, 0.0), XY) == pytest.approx(0.0)

    def test_point_at_vertex_region(self):
        assert point_triangle_distance((-1.0, -1.0, 0.0), XY) == pytest.approx(np.sqrt(2))

    def test_point_in_edge_region(self):
        # Beyond edge AB (y < 0), closest point is the projection on AB.
        assert point_triangle_distance((0.5, -2.0, 0.0), XY) == pytest.approx(2.0)

    def test_point_beyond_hypotenuse(self):
        d = point_triangle_distance((1.0, 1.0, 0.0), XY)
        assert d == pytest.approx(np.sqrt(2) / 2)

    def test_closest_point_lies_on_triangle_plane(self):
        pts = np.array([[0.2, 0.2, 5.0], [-3, -3, 1], [2, 2, -4.0]])
        tris = np.broadcast_to(XY, (3, 3, 3))
        closest = closest_point_on_triangle_batch(pts, tris)
        assert np.allclose(closest[:, 2], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        tri = rng.uniform(-1, 1, size=(3, 3))
        p = rng.uniform(-2, 2, size=3)
        d = point_triangle_distance(p, tri)
        # Dense barycentric sampling can only find distances >= true d.
        grid = []
        n = 24
        for i in range(n + 1):
            for j in range(n + 1 - i):
                u, v = i / n, j / n
                grid.append((1 - u - v, u, v))
        samples = np.asarray(grid) @ tri
        sampled = np.linalg.norm(samples - p, axis=1).min()
        assert d <= sampled + 1e-9
        assert sampled - d <= 0.2  # sampling resolution bound


class TestSegmentSegment:
    def test_parallel_segments(self):
        d = segment_segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        assert d == pytest.approx(1.0)

    def test_crossing_segments(self):
        d = segment_segment_distance((0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 0, 0))
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_skew_segments(self):
        d = segment_segment_distance((0, 0, 0), (1, 0, 0), (0.5, -1, 2), (0.5, 1, 2))
        assert d == pytest.approx(2.0)

    def test_endpoint_to_endpoint(self):
        d = segment_segment_distance((0, 0, 0), (1, 0, 0), (3, 0, 0), (4, 0, 0))
        assert d == pytest.approx(2.0)

    def test_degenerate_segment_is_point(self):
        d = segment_segment_distance((0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0))
        assert d == pytest.approx(1.0)

    def test_both_degenerate(self):
        d = segment_segment_distance((0, 0, 0), (0, 0, 0), (3, 4, 0), (3, 4, 0))
        assert d == pytest.approx(5.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_never_exceeds_sampled_minimum(self, seed):
        rng = np.random.default_rng(seed)
        p1, q1, p2, q2 = rng.uniform(-1, 1, size=(4, 3))
        d = segment_segment_distance(p1, q1, p2, q2)
        t = np.linspace(0, 1, 64)
        s1 = p1[None] * (1 - t)[:, None] + q1[None] * t[:, None]
        s2 = p2[None] * (1 - t)[:, None] + q2[None] * t[:, None]
        sampled = np.sqrt(((s1[:, None] - s2[None, :]) ** 2).sum(-1)).min()
        assert d <= sampled + 1e-9


class TestTriTriDistance:
    def test_parallel_triangles(self):
        other = XY + np.array([0, 0, 2.5])
        assert tri_tri_distance(XY, other) == pytest.approx(2.5)

    def test_intersecting_triangles_zero(self):
        other = np.array([[0.2, 0.2, -1], [0.2, 0.2, 1], [0.4, 0.5, 1]], dtype=float)
        assert tri_tri_distance(XY, other) == pytest.approx(0.0)

    def test_vertex_closest_feature(self):
        other = np.array([[2, 0, 0], [3, 0, 0], [2, 1, 0]], dtype=float)
        assert tri_tri_distance(XY, other) == pytest.approx(1.0)

    def test_edge_edge_closest_feature(self):
        # Two skew triangles whose closest features are edge interiors.
        a = np.array([[0, -1, 0], [0, 1, 0], [-2, 0, 0]], dtype=float)
        b = np.array([[1, 0, -1], [1, 0, 1], [3, 0, 0]], dtype=float)
        assert tri_tri_distance(a, b) == pytest.approx(1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, size=(32, 3, 3))
        b = rng.uniform(-1, 1, size=(32, 3, 3)) + np.array([3.0, 0, 0])
        batch = tri_tri_distance_batch(a, b)
        for i in range(32):
            assert batch[i] == pytest.approx(tri_tri_distance(a[i], b[i]))

    def test_empty_batch(self):
        empty = np.zeros((0, 3, 3))
        assert tri_tri_distance_batch(empty, empty).shape == (0,)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lower_bounds_sampled_distance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(3, 3))
        b = rng.uniform(-1, 1, size=(3, 3)) + rng.uniform(0, 3, size=3)
        d = tri_tri_distance(a, b)
        grid = []
        n = 10
        for i in range(n + 1):
            for j in range(n + 1 - i):
                u, v = i / n, j / n
                grid.append((1 - u - v, u, v))
        w = np.asarray(grid)
        pa, pb = w @ a, w @ b
        sampled = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1)).min()
        assert d <= sampled + 1e-9
        if not tri_tri_intersect(a, b):
            # For disjoint pairs the feature minimum is exact; dense
            # sampling should get close to it.
            assert sampled - d <= 0.5


def _as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _grid_lanes(rng, n, plane=False):
    """Lanes on a small integer grid: many exact ties and touches."""
    tris = rng.integers(-2, 3, size=(2, n, 3, 3)).astype(np.float64)
    if plane:
        tris[..., 2] = 0.0
    return tris[0], tris[1]


class TestMatchesRowOracle:
    """The plane kernel returns the row kernel's values bit for bit.

    ``tests/oracles/distance_rows.py`` is the ``(n, 3)`` row kernel the
    plane kernel replaced; both run the same operations in the same
    order, so outputs are compared as ``int64`` views, not approximately.
    """

    @staticmethod
    def assert_same(tri_a, tri_b):
        for check in (True, False):
            got = tri_tri_distance_batch(tri_a, tri_b, check_intersection=check)
            expected = distance_rows.tri_tri_distance_batch(
                tri_a, tri_b, check_intersection=check
            )
            assert np.array_equal(_as_bits(got), _as_bits(expected)), check

    @pytest.mark.parametrize(
        "n", [0, 1, 33, distance._CHUNK - 1, distance._CHUNK, distance._CHUNK + 1, 5000]
    )
    def test_seeded_random_soups(self, n):
        rng = np.random.default_rng(n)
        base = rng.uniform(-3, 3, size=(2, n, 1, 3))
        tri_a, tri_b = base + rng.normal(scale=0.6, size=(2, n, 3, 3))
        self.assert_same(tri_a, tri_b)

    def test_degenerate_triangles(self):
        rng = np.random.default_rng(41)
        tri_a, tri_b = rng.normal(size=(2, 4000, 3, 3))
        tri_a[:500, 1] = tri_a[:500, 0]  # zero-length edge
        tri_b[500:1000, 2] = tri_b[500:1000, 1]  # repeated vertex
        tri_a[1000:1500, 2] = 2 * tri_a[1000:1500, 1] - tri_a[1000:1500, 0]  # collinear
        tri_b[1500:2000, :] = tri_b[1500:2000, :1]  # zero area: a single point
        tri_a[2000:2500, :] = tri_a[2000:2500, :1]  # point against point
        tri_b[2000:2500, :] = tri_b[2000:2500, :1]
        tri_a[2500:3000, 2] = tri_a[2500:3000, 0]  # a segment against a segment
        tri_b[2500:3000, 1] = tri_b[2500:3000, 0]
        self.assert_same(tri_a, tri_b)

    def test_integer_grid_coplanar_and_shared_features(self):
        rng = np.random.default_rng(42)
        tri_a, tri_b = _grid_lanes(rng, 3000)
        tri_b[:1000, 0] = tri_a[:1000, 0]  # shared vertex
        tri_b[1000:2000, :2] = tri_a[1000:2000, [1, 0]]  # shared edge
        self.assert_same(tri_a, tri_b)
        self.assert_same(*_grid_lanes(rng, 3000, plane=True))

    def test_every_lane_the_joins_send(self, datasets, monkeypatch):
        """Every lane NN, kNN k=3 and within joins of the ``conftest``
        scene send to the kernel, captured at the module attribute the
        gather/segment layer calls."""
        from repro.core import EngineConfig, QuerySpec, ThreeDPro
        from repro.core import batch

        lanes_a, lanes_b = [], []
        kernel = batch.tri_tri_distance_batch

        def recording(tri_a, tri_b, **kwargs):
            lanes_a.append(np.array(tri_a))
            lanes_b.append(np.array(tri_b))
            return kernel(tri_a, tri_b, **kwargs)

        monkeypatch.setattr(batch, "tri_tri_distance_batch", recording)
        engine = ThreeDPro(EngineConfig(query_workers=1))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        for params in ({"kind": "nn"}, {"kind": "knn", "k": 3},
                       {"kind": "within", "distance": 2.0}):
            engine.execute(QuerySpec(source="nuclei_b", target="nuclei_a", **params))
        monkeypatch.undo()
        assert sum(map(len, lanes_a)) > 1000
        self.assert_same(np.concatenate(lanes_a), np.concatenate(lanes_b))

    def test_feature_pair_helpers(self):
        rng = np.random.default_rng(43)
        points = rng.normal(size=(3000, 3))
        tris = rng.normal(size=(3000, 3, 3))
        tris[:300, 1] = tris[:300, 0]
        tris[300:600, :] = tris[300:600, :1]
        points[600:900] = tris[600:900, 2]  # on a corner
        for name in ("closest_point_on_triangle_batch", "point_triangle_distance_batch"):
            got = getattr(distance, name)(points, tris)
            expected = getattr(distance_rows, name)(points, tris)
            assert np.array_equal(_as_bits(got), _as_bits(expected)), name
        p1, q1, p2, q2 = rng.normal(size=(4, 3000, 3))
        q1[:300] = p1[:300]  # point-like first segment
        q2[300:600] = p2[300:600]  # point-like second segment
        q2[600:900] = p2[600:900] + 2.0 * (q1[600:900] - p1[600:900])  # parallel
        got = segment_segment_distance_batch(p1, q1, p2, q2)
        expected = distance_rows.segment_segment_distance_batch(p1, q1, p2, q2)
        assert np.array_equal(_as_bits(got), _as_bits(expected))
