"""Tests for the triangle-triangle intersection kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import PPVPEncoder
from repro.geometry import tri_tri_intersect, tri_tri_intersect_batch
from tests.oracles.sat_einsum import einsum_tri_tri_intersect_batch

XY = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)


def tri(*pts):
    return np.asarray(pts, dtype=float)


class TestDisjoint:
    def test_parallel_planes(self):
        other = XY + np.array([0, 0, 1.0])
        assert not tri_tri_intersect(XY, other)

    def test_far_apart(self):
        other = XY + np.array([10.0, 10.0, 10.0])
        assert not tri_tri_intersect(XY, other)

    def test_coplanar_disjoint(self):
        other = XY + np.array([5.0, 0.0, 0.0])
        assert not tri_tri_intersect(XY, other)

    def test_crossing_plane_but_missing_triangle(self):
        # Crosses the z=0 plane, but far outside the XY triangle.
        other = tri((5, 5, -1), (6, 5, 1), (5, 6, 1))
        assert not tri_tri_intersect(XY, other)


class TestIntersecting:
    def test_piercing(self):
        other = tri((0.25, 0.25, -1), (0.25, 0.25, 1), (0.3, 0.4, 1))
        assert tri_tri_intersect(XY, other)

    def test_coplanar_overlapping(self):
        other = XY + np.array([0.2, 0.2, 0.0])
        assert tri_tri_intersect(XY, other)

    def test_identical(self):
        assert tri_tri_intersect(XY, XY.copy())

    def test_shared_vertex_counts_as_intersecting(self):
        other = tri((0, 0, 0), (-1, 0, 1), (0, -1, 1))
        assert tri_tri_intersect(XY, other)

    def test_shared_edge_counts_as_intersecting(self):
        other = tri((0, 0, 0), (1, 0, 0), (0.5, -1, 1))
        assert tri_tri_intersect(XY, other)

    def test_touching_at_interior_point(self):
        # Vertex of one triangle touches the interior of the other.
        other = tri((0.25, 0.25, 0.0), (0.25, 0.25, 1.0), (1.25, 0.25, 1.0))
        assert tri_tri_intersect(XY, other)

    def test_t_configuration_coplanar(self):
        other = tri((0.2, 0.2, 0), (2, 0.2, 0), (2, 0.3, 0))
        assert tri_tri_intersect(XY, other)


class TestBatch:
    def test_batch_mixed(self):
        a = np.stack([XY, XY, XY])
        b = np.stack(
            [
                XY + np.array([0, 0, 1.0]),
                tri((0.25, 0.25, -1), (0.25, 0.25, 1), (0.3, 0.4, 1)),
                XY + np.array([5.0, 0, 0]),
            ]
        )
        assert tri_tri_intersect_batch(a, b).tolist() == [False, True, False]

    def test_empty_batch(self):
        empty = np.zeros((0, 3, 3))
        assert tri_tri_intersect_batch(empty, empty).shape == (0,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tri_tri_intersect_batch(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 3, 3))
        b = rng.normal(size=(64, 3, 3))
        fwd = tri_tri_intersect_batch(a, b)
        rev = tri_tri_intersect_batch(b, a)
        assert (fwd == rev).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_segment_sampling_agrees_with_sat(seed):
    """Randomized cross-check: if dense point sampling of one triangle
    finds points on both sides of the other's plane *and* inside its
    projection, SAT must agree; and SAT=False implies sampled distance
    stays positive."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(3, 3))
    b = rng.uniform(-1, 1, size=(3, 3))
    hit = tri_tri_intersect(a, b)

    # Sample barycentric grids of both triangles; min pairwise distance.
    ws = []
    for i in range(8):
        for j in range(8 - i):
            u, v = i / 7.0, j / 7.0
            if u + v <= 1.0:
                ws.append((1 - u - v, u, v))
    w = np.asarray(ws)
    pa = w @ a
    pb = w @ b
    dmin = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)).min()
    if dmin < 1e-9:
        assert hit  # a (near-)common point exists -> must intersect
    if not hit:
        # SAT separation implies sampled points stay apart.
        assert dmin > -1e-12


def _grid_batch(rng, n, plane=False):
    """Triangles on a small integer grid (so exact contacts are common)."""
    tris = rng.integers(-1, 3, size=(2, n, 3, 3)).astype(float)
    if plane:
        tris[..., 2] = 0.0
    return tris[0], tris[1]


class TestMatchesEinsumOracle:
    """Verdicts equal the one-stage einsum kernel's on every lane."""

    @staticmethod
    def assert_same(tri_a, tri_b):
        expected = einsum_tri_tri_intersect_batch(tri_a, tri_b)
        assert np.array_equal(tri_tri_intersect_batch(tri_a, tri_b), expected)
        return expected

    @pytest.mark.parametrize("n", [0, 1, 33, 5000])
    def test_seeded_random_batches(self, n):
        rng = np.random.default_rng(n)
        tri_a = rng.normal(size=(n, 3, 3))
        tri_b = rng.normal(size=(n, 3, 3)) * rng.uniform(0.1, 3.0, size=(n, 1, 1))
        self.assert_same(tri_a, tri_b)

    def test_shared_vertices_and_edges(self):
        rng = np.random.default_rng(5)
        tri_a, tri_b = _grid_batch(rng, 3000)
        tri_b[:1000, 0] = tri_a[:1000, 0]
        tri_b[1000:2000, :2] = tri_a[1000:2000, [1, 0]]
        expected = self.assert_same(tri_a, tri_b)
        assert expected.any() and not expected.all()

    def test_coplanar(self):
        rng = np.random.default_rng(6)
        tri_a, tri_b = _grid_batch(rng, 3000, plane=True)
        expected = self.assert_same(tri_a, tri_b)
        assert expected.any() and not expected.all()

    def test_collinear_and_zero_area(self):
        rng = np.random.default_rng(7)
        tri_a, tri_b = _grid_batch(rng, 3000)
        tri_a[:1000, 2] = 2 * tri_a[:1000, 1] - tri_a[:1000, 0]  # collinear
        tri_b[1000:2000, 1] = tri_b[1000:2000, 0]  # repeated corner
        tri_a[2000:, :] = tri_a[2000:, :1]  # a single point
        expected = self.assert_same(tri_a, tri_b)
        assert expected.any() and not expected.all()

    def test_every_lane_of_an_encode(self, small_scene, monkeypatch):
        import repro.geometry.tritri as tritri

        lanes_a, lanes_b = [], []
        kernel = tritri.tri_tri_intersect_batch

        def recording(tri_a, tri_b):
            lanes_a.append(np.array(tri_a))
            lanes_b.append(np.array(tri_b))
            return kernel(tri_a, tri_b)

        monkeypatch.setattr(tritri, "tri_tri_intersect_batch", recording)
        encoder = PPVPEncoder(max_lods=6, rounds_per_lod=2)
        for mesh in [*small_scene.nuclei_a, *small_scene.nuclei_b, *small_scene.vessels]:
            encoder.encode(mesh)
        monkeypatch.undo()
        assert len(lanes_a) > 100
        self.assert_same(np.concatenate(lanes_a), np.concatenate(lanes_b))
