"""Decomposition of an object into sub-objects with per-group boxes.

``ObjectPartition`` is computed once per object on the highest-LOD
geometry; at query time the decoded faces of *any* LOD are regrouped by
nearest skeleton point (`group_faces`), so sub-object membership stays
consistent across the progressive refinement levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.partition.skeleton import extract_skeleton, nearest_skeleton_point

__all__ = ["PARTS", "SubObject", "ObjectPartition", "partition_faces"]

#: Sub-objects per partitioned object (at most: empty groups are dropped).
PARTS = 8


@dataclass(frozen=True)
class SubObject:
    """One group of faces with its box."""

    index: int
    aabb: AABB
    face_count: int


@dataclass(frozen=True)
class ObjectPartition:
    """Skeleton points plus the sub-objects of one object."""

    skeleton: np.ndarray
    sub_objects: tuple[SubObject, ...]

    @property
    def num_parts(self) -> int:
        return len(self.sub_objects)

    def group_faces(self, triangles: np.ndarray) -> np.ndarray:
        """Assign each triangle (by centroid) to a sub-object index.

        Works on the decoded faces of any LOD; PPVP pruning moves faces
        only inward, so groups remain covered by their max-LOD boxes.
        """
        centroids = np.asarray(triangles, dtype=np.float64).mean(axis=1)
        return nearest_skeleton_point(centroids, self.skeleton)

    def boxes(self) -> list[AABB]:
        return [sub.aabb for sub in self.sub_objects]


def partition_faces(
    polyhedron, n_parts: int = PARTS, lloyd_iterations: int = 5
) -> ObjectPartition:
    """Partition ``polyhedron`` into at most ``n_parts`` sub-objects.

    Skeleton points are extracted from the vertex cloud; every face of
    the (highest-LOD) mesh joins the group of its nearest skeleton
    point; empty groups are dropped. Each group gets a tight MBB.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    triangles = polyhedron.triangles
    used = polyhedron.vertices[polyhedron.used_vertex_ids]
    skeleton = extract_skeleton(used, n_parts, lloyd_iterations=lloyd_iterations)

    centroids = triangles.mean(axis=1)
    assign = nearest_skeleton_point(centroids, skeleton)

    subs: list[SubObject] = []
    kept_points: list[np.ndarray] = []
    for k in range(len(skeleton)):
        face_ids = np.nonzero(assign == k)[0]
        if face_ids.size == 0:
            continue
        corners = triangles[face_ids].reshape(-1, 3)
        subs.append(
            SubObject(
                index=len(subs),
                aabb=AABB.of_points(corners),
                face_count=int(face_ids.size),
            )
        )
        kept_points.append(skeleton[k])
    return ObjectPartition(
        skeleton=np.asarray(kept_points, dtype=np.float64), sub_objects=tuple(subs)
    )
