"""Tests for skeleton extraction and object partitioning."""

import numpy as np
import pytest

from repro.datagen.vessels import VesselSpec, make_vessel
from repro.geometry import AABB
from repro.mesh import icosphere
from repro.partition import extract_skeleton, partition_faces
from repro.partition.skeleton import nearest_skeleton_point


class TestSkeleton:
    def test_count_and_shape(self):
        points = np.random.default_rng(0).uniform(size=(200, 3))
        skeleton = extract_skeleton(points, 6)
        assert skeleton.shape == (6, 3)

    def test_never_more_points_than_input(self):
        points = np.random.default_rng(0).uniform(size=(4, 3))
        assert len(extract_skeleton(points, 10)) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            extract_skeleton(np.zeros((0, 3)), 3)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            extract_skeleton(np.zeros((5, 3)), 0)

    def test_deterministic(self):
        points = np.random.default_rng(1).uniform(size=(100, 3))
        a = extract_skeleton(points, 5)
        b = extract_skeleton(points, 5)
        assert np.array_equal(a, b)

    def test_skeleton_spreads_along_elongated_cloud(self):
        # Points along a line: skeleton points should span most of it.
        t = np.linspace(0, 10, 500)
        points = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
        skeleton = extract_skeleton(points, 5)
        span = skeleton[:, 0].max() - skeleton[:, 0].min()
        assert span > 6.0

    def test_nearest_assignment(self):
        skeleton = np.array([[0, 0, 0], [10, 0, 0]], dtype=float)
        points = np.array([[1, 0, 0], [9, 0, 0], [4, 0, 0]], dtype=float)
        assert nearest_skeleton_point(points, skeleton).tolist() == [0, 1, 0]


class TestPartitioner:
    @pytest.fixture(scope="class")
    def vessel(self):
        rng = np.random.default_rng(6)
        return make_vessel(
            rng, spec=VesselSpec(bifurcations=3, points_per_branch=5, segments=8)
        )

    def test_every_face_assigned(self, vessel):
        partition = partition_faces(vessel, 8)
        assert sum(s.face_count for s in partition.sub_objects) == vessel.num_faces

    def test_boxes_cover_their_faces(self, vessel):
        partition = partition_faces(vessel, 8)
        groups = partition.group_faces(vessel.triangles)
        for sub in partition.sub_objects:
            tris = vessel.triangles[groups == sub.index]
            covered = AABB.of_points(tris.reshape(-1, 3))
            assert sub.aabb.contains_box(covered)

    def test_partition_boxes_tighter_than_global(self, vessel):
        partition = partition_faces(vessel, 12)
        total = sum(s.aabb.volume for s in partition.sub_objects)
        assert total < vessel.aabb.volume * 0.8

    def test_single_part_degenerates_to_whole(self, vessel):
        partition = partition_faces(vessel, 1)
        assert partition.num_parts == 1
        assert partition.sub_objects[0].face_count == vessel.num_faces

    def test_group_faces_consistent_with_partition(self, vessel):
        partition = partition_faces(vessel, 6)
        groups = partition.group_faces(vessel.triangles)
        counts = np.bincount(groups, minlength=partition.num_parts)
        assert counts.tolist() == [s.face_count for s in partition.sub_objects]

    def test_compact_sphere_partitions_fine_too(self):
        mesh = icosphere(2)
        partition = partition_faces(mesh, 4)
        assert 1 <= partition.num_parts <= 4
        assert sum(s.face_count for s in partition.sub_objects) == mesh.num_faces

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            partition_faces(icosphere(1), 0)
