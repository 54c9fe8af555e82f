"""Protruding-vertex classification (paper Section 3.1).

Removing a vertex replaces its star with a patch of new triangles; the
vertex together with each patch triangle forms a tetrahedron. If, for
every patch triangle, the removed vertex lies on or outside the
triangle's oriented plane (the angle between the outward normal and the
vector toward the vertex is acute, or the tetrahedron is degenerate),
then every tetrahedron removal *cuts solid material* and the simplified
polyhedron is a subset of the original: the vertex is **protruding**.
If any patch triangle has the vertex strictly inside its halfspace, the
removal would fill a pit and grow the object: the vertex is
**recessing**.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.geometry._fast import cross3

from repro.mesh.adjacency import MeshAdjacency

__all__ = [
    "patch_is_protruding",
    "patches_protrude",
    "classify_vertex",
    "classify_vertices",
    "protruding_fraction",
    "PROTRUDING",
    "RECESSING",
    "UNREMOVABLE",
]

PROTRUDING = "protruding"
RECESSING = "recessing"
UNREMOVABLE = "unremovable"

_REL_EPS = 1e-9


def patch_is_protruding(positions: np.ndarray, vertex: int, patch_faces) -> bool:
    """True when ``vertex`` is on or outside every patch face's plane.

    ``patch_faces`` is the fan of index triples that re-closes the hole;
    the test is performed against their oriented (outward) normals. A
    vertex exactly on a plane contributes an invalid tetrahedron whose
    removal has no effect, so equality counts as protruding. This is the
    one-patch case of :func:`patches_protrude`.
    """
    patch = np.asarray(patch_faces, dtype=np.int64)
    if patch.size == 0:
        return True
    return bool(patches_protrude(positions, np.int64(vertex), patch))


def patches_protrude(positions: np.ndarray, vertices, patches: np.ndarray) -> np.ndarray:
    """:func:`patch_is_protruding` over a batch of patches at once.

    ``patches`` is an ``(..., m, 3)`` array of fans and ``vertices``
    (broadcast against ``patches.shape[:-2]``) the vertex each one
    replaces; returns the ``(...)`` verdicts.
    """
    tris = positions[patches]  # (..., m, 3, 3)
    normals = cross3(tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :])
    centroids = tris.mean(axis=-2)
    offsets = positions[vertices][..., None, :] - centroids
    dots = (normals * offsets).sum(axis=-1)
    # Relative tolerance so the test is scale-invariant.
    scale = np.sqrt((normals * normals).sum(axis=-1)) * np.sqrt(
        (offsets * offsets).sum(axis=-1)
    )
    return (dots >= -_REL_EPS * np.maximum(scale, 1e-300)).all(axis=-1)


def _shrink(tris: np.ndarray, factor: float = 1e-6) -> np.ndarray:
    """Pull triangle corners toward their centroid.

    Shrinking removes the legitimate shared-edge/vertex contacts between
    neighbouring faces so the SAT intersection test only reports true
    transversal crossings.
    """
    centroids = tris.mean(axis=1, keepdims=True)
    return centroids + (tris - centroids) * (1.0 - factor)


def patch_is_embedded(
    positions: np.ndarray, patch_faces, guard_faces
) -> bool:
    """True when no patch triangle crosses a guard or sibling triangle.

    The halfspace test of :func:`patch_is_protruding` treats the removed
    region as a union of tetrahedra, which is only geometrically valid
    when the cut surface (old star + new patch) is embedded. On saddle
    rings a fan chord can pass the per-face test yet bulge *outside* the
    surrounding surface, growing the object. This guard rejects such
    patches by testing (shrunken) patch triangles against the local
    neighbourhood faces (``guard_faces``: the star being removed plus
    the faces around the ring) and against each other. Coplanar overlaps
    are forgiven: a patch face lying inside the plane of a neighbour
    encloses zero volume and cannot grow the object.
    """
    from repro.geometry.tritri import tri_tri_intersect_batch

    patch = np.asarray(patch_faces, dtype=np.int64)
    if patch.size == 0:
        return True
    guard = np.asarray(list(guard_faces), dtype=np.int64).reshape(-1, 3)
    n_p = len(patch)
    tris = _shrink(positions[np.concatenate([patch, guard])])
    # Box prefilter: triangles with disjoint AABBs cannot intersect.
    low, high = tris.min(axis=1), tris.max(axis=1)
    overlap = (
        (low[:n_p, None] <= high[None, n_p:]) & (low[None, n_p:] <= high[:n_p, None])
    ).all(axis=2)
    ii, jj = np.nonzero(overlap)
    iu, ju = np.triu_indices(n_p, k=1)
    tris_a = tris[np.concatenate([ii, iu])]
    tris_b = tris[np.concatenate([jj + n_p, ju])]
    hits = tri_tri_intersect_batch(tris_a, tris_b)
    if not bool(hits.any()):
        return True
    return all(
        _coplanar(tris_a[index], tris_b[index]) for index in np.nonzero(hits)[0]
    )


def _coplanar(tri_a: np.ndarray, tri_b: np.ndarray, rel_eps: float = 1e-7) -> bool:
    """True when the two triangles lie in the same plane."""
    normal = cross3(tri_a[1] - tri_a[0], tri_a[2] - tri_a[0])
    scale = np.linalg.norm(normal) * max(np.abs(tri_b - tri_a[0]).max(), 1e-300)
    offsets = (tri_b - tri_a[0]) @ normal
    return bool((np.abs(offsets) <= rel_eps * max(scale, 1e-300)).all())


def _fan_patch_for_ring(ring: list[int]) -> list[tuple[int, int, int]]:
    apex = ring[0]
    return [(apex, ring[j], ring[j + 1]) for j in range(1, len(ring) - 1)]


def classify_vertex(positions: np.ndarray, adjacency: MeshAdjacency, vertex: int) -> str:
    """Classify one vertex of a static mesh as protruding / recessing.

    Uses the default fan re-triangulation of the vertex's ring (the same
    default the encoder tries first). Vertices whose star is not a single
    closed fan are reported ``unremovable``.
    """
    ring = adjacency.ring(vertex)
    if ring is None or len(ring) < 3:
        return UNREMOVABLE
    patch = _fan_patch_for_ring(ring)
    if patch_is_protruding(positions, vertex, patch):
        return PROTRUDING
    return RECESSING


def classify_vertices(polyhedron) -> dict[str, int]:
    """Histogram of vertex classes for a polyhedron (paper Section 6.2).

    Returns a dict with keys ``protruding`` / ``recessing`` /
    ``unremovable``; the paper reports ~99% protruding for nuclei and
    ~75% for vessels.
    """
    positions = np.asarray(polyhedron.vertices, dtype=np.float64)
    adjacency = MeshAdjacency(polyhedron.faces)
    counts: Counter[str] = Counter()
    for vertex in adjacency.vertex_faces:
        counts[classify_vertex(positions, adjacency, vertex)] += 1
    return {PROTRUDING: counts[PROTRUDING], RECESSING: counts[RECESSING], UNREMOVABLE: counts[UNREMOVABLE]}


def protruding_fraction(polyhedron) -> float:
    """Fraction of classifiable vertices that are protruding."""
    counts = classify_vertices(polyhedron)
    classified = counts[PROTRUDING] + counts[RECESSING]
    if classified == 0:
        return 0.0
    return counts[PROTRUDING] / classified
