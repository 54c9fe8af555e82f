"""Reference oracle: the triangle-distance kernel on ``(n, 3)`` rows.

This is the kernel :mod:`repro.geometry.distance` shipped before it
moved onto per-coordinate planes: the six vertex/triangle feature pairs
are tiled into one ``(6n, 3)`` pass and the nine edge pairs into one
``(9n, 3)`` pass, with strided ``_dot`` slices, ``np.roll`` and
``(n, 3)`` ``np.where`` writes. It is kept verbatim, helpers included,
as ground truth: the plane kernel runs the same operations in the same
order, so ``tests/test_geometry_distance.py::TestMatchesRowOracle``
asserts that every output is bit-identical (compared as ``int64``
views). Not used on any query or encode path.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.tritri import tri_tri_intersect_batch

__all__ = [
    "closest_point_on_triangle_batch",
    "point_triangle_distance_batch",
    "segment_segment_distance_batch",
    "tri_tri_distance_batch",
]

_EPS = 1e-15


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Manual expansion: ufunc-reduce over a length-3 trailing axis is far
    # slower than three fused multiplies on memory-bound batches.
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def closest_point_on_triangle_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Closest point on each triangle ``tris[i]`` to ``points[i]``.

    ``points`` has shape ``(n, 3)``, ``tris`` has shape ``(n, 3, 3)``;
    the result has shape ``(n, 3)``. Implements the barycentric-region
    classification of Ericson, *Real-Time Collision Detection* (5.1.5),
    vectorized with masks.
    """
    points = np.asarray(points, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.float64)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]

    ab = b - a
    ac = c - a
    ap = points - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)

    bp = points - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)

    cp = points - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # Start from the interior solution and overwrite with the boundary
    # regions; the last write for each lane wins, so the order mirrors
    # the scalar algorithm's early returns in reverse priority.
    denom = va + vb + vc
    safe = np.where(np.abs(denom) < _EPS, 1.0, denom)
    v = vb / safe
    w = vc / safe
    closest = a + ab * v[:, None] + ac * w[:, None]

    # Edge BC region.
    edge_bc = (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0)
    t_bc_den = (d4 - d3) + (d5 - d6)
    t_bc = (d4 - d3) / np.where(np.abs(t_bc_den) < _EPS, 1.0, t_bc_den)
    closest = np.where(edge_bc[:, None], b + (c - b) * t_bc[:, None], closest)

    # Edge AC region.
    edge_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    t_ac_den = d2 - d6
    t_ac = d2 / np.where(np.abs(t_ac_den) < _EPS, 1.0, t_ac_den)
    closest = np.where(edge_ac[:, None], a + ac * t_ac[:, None], closest)

    # Edge AB region.
    edge_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    t_ab_den = d1 - d3
    t_ab = d1 / np.where(np.abs(t_ab_den) < _EPS, 1.0, t_ab_den)
    closest = np.where(edge_ab[:, None], a + ab * t_ab[:, None], closest)

    # Vertex regions (highest priority, written last).
    at_c = (d6 >= 0.0) & (d5 <= d6)
    closest = np.where(at_c[:, None], c, closest)
    at_b = (d3 >= 0.0) & (d4 <= d3)
    closest = np.where(at_b[:, None], b, closest)
    at_a = (d1 <= 0.0) & (d2 <= 0.0)
    closest = np.where(at_a[:, None], a, closest)
    return closest


def _point_triangle_sqdist_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    closest = closest_point_on_triangle_batch(points, tris)
    diff = points - closest
    return _dot(diff, diff)


def point_triangle_distance_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Distance from ``points[i]`` to triangle ``tris[i]``."""
    return np.sqrt(
        _point_triangle_sqdist_batch(np.asarray(points, dtype=np.float64), tris)
    )


def point_triangle_distance(point, tri) -> float:
    point = np.asarray(point, dtype=np.float64).reshape(1, 3)
    tri = np.asarray(tri, dtype=np.float64).reshape(1, 3, 3)
    return float(point_triangle_distance_batch(point, tri)[0])


def _segment_segment_sqdist_batch(p1, q1, p2, q2) -> np.ndarray:
    """Squared distance between segments ``p1[i]q1[i]`` and ``p2[i]q2[i]``.

    Clamped closest-point computation (Ericson 5.1.9), vectorized and
    robust to degenerate (point-like) segments.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)

    denom = a * e - b * b
    safe_denom = np.where(denom > _EPS, denom, 1.0)
    s = np.where(denom > _EPS, np.clip((b * f - c * e) / safe_denom, 0.0, 1.0), 0.0)

    safe_e = np.where(e > _EPS, e, 1.0)
    t = np.where(e > _EPS, (b * s + f) / safe_e, 0.0)

    safe_a = np.where(a > _EPS, a, 1.0)
    s = np.where(t < 0.0, np.clip(-c / safe_a, 0.0, 1.0), s)
    s = np.where(t > 1.0, np.clip((b - c) / safe_a, 0.0, 1.0), s)
    # Degenerate first segment: closest point is p1 regardless of s.
    s = np.where(a > _EPS, s, 0.0)
    t = np.clip(t, 0.0, 1.0)

    diff = (p1 + d1 * s[:, None]) - (p2 + d2 * t[:, None])
    return _dot(diff, diff)


def segment_segment_distance_batch(
    p1: np.ndarray, q1: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Distance between segments ``p1[i]q1[i]`` and ``p2[i]q2[i]``."""
    return np.sqrt(_segment_segment_sqdist_batch(
        *(np.asarray(v, dtype=np.float64) for v in (p1, q1, p2, q2))
    ))


def segment_segment_distance(p1, q1, p2, q2) -> float:
    args = [np.asarray(v, dtype=np.float64).reshape(1, 3) for v in (p1, q1, p2, q2)]
    return float(segment_segment_distance_batch(*args)[0])


def tri_tri_distance_batch(
    tri_a: np.ndarray, tri_b: np.ndarray, check_intersection: bool = True
) -> np.ndarray:
    """Pairwise distance between ``(n, 3, 3)`` triangle arrays.

    The fifteen feature pairs are evaluated in two *tiled* kernel calls
    (one 6n-wide point/triangle pass, one 9n-wide segment/segment pass)
    so Python-level overhead stays constant regardless of feature count.

    When ``check_intersection`` is False the kernel skips the
    separating-axis test; callers may do so only when the triangles are
    known to be disjoint (e.g. distances between objects from
    non-overlapping datasets), where the feature-pair minimum is exact.
    """
    tri_a = np.asarray(tri_a, dtype=np.float64)
    tri_b = np.asarray(tri_b, dtype=np.float64)
    if tri_a.shape != tri_b.shape or tri_a.ndim != 3 or tri_a.shape[1:] != (3, 3):
        raise ValueError("expected matching (n, 3, 3) triangle arrays")
    n = tri_a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)

    # Six vertex-vs-triangle feature pairs, tiled into one call:
    # the 3 corners of A against B, then the 3 corners of B against A.
    points = np.concatenate(
        [tri_a.reshape(-1, 3), tri_b.reshape(-1, 3)]
    )  # (6n, 3), A corners grouped per pair then B corners
    opposite = np.concatenate(
        [np.repeat(tri_b, 3, axis=0), np.repeat(tri_a, 3, axis=0)]
    )  # (6n, 3, 3)
    pt_sq = _point_triangle_sqdist_batch(points, opposite).reshape(2, n, 3)
    best_sq = pt_sq.min(axis=(0, 2))

    # Nine edge-vs-edge feature pairs, tiled into one call.
    starts_a = tri_a  # (n, 3, 3): edge i starts at corner i
    ends_a = np.roll(tri_a, -1, axis=1)
    starts_b = tri_b
    ends_b = np.roll(tri_b, -1, axis=1)
    p1 = np.repeat(starts_a, 3, axis=1).reshape(-1, 3)  # (9n, 3)
    q1 = np.repeat(ends_a, 3, axis=1).reshape(-1, 3)
    p2 = np.tile(starts_b, (1, 3, 1)).reshape(-1, 3)
    q2 = np.tile(ends_b, (1, 3, 1)).reshape(-1, 3)
    seg_sq = _segment_segment_sqdist_batch(p1, q1, p2, q2).reshape(n, 9)
    best_sq = np.minimum(best_sq, seg_sq.min(axis=1))

    best = np.sqrt(best_sq)
    if check_intersection:
        best = np.where(tri_tri_intersect_batch(tri_a, tri_b), 0.0, best)
    return best
