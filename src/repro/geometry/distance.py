"""Distance computation between points, segments, and triangles.

The distance between two triangles — the workhorse of the within and
nearest-neighbor refinement steps — is the minimum over the fifteen
candidate feature pairs:

* each of the six vertices against the opposite triangle, and
* each of the nine edge pairs,

with intersecting pairs reporting distance zero. All kernels are batched
over ``n`` independent pairs so the geometry computer can evaluate face
pairs in large blocks (the paper's GPU-style execution, Section 5.1).

The kernels work on coordinate *planes*: a batch of vectors is one
coordinate-major ``(3, ...)`` array, whose ``x``, ``y`` and ``z``
planes are each contiguous, so a dot product is one multiply and two
plane sums and a region write is one masked copy, and arrays of
different shapes broadcast — one triangle's corners serve its three
opposite vertices, and one side's edges the other side's three, without
repeating them. Ericson's region logic
(:func:`_closest_point_planes`) and the clamped segment solver
(:func:`_segment_sqdist_planes`) exist once; the ``(n, 3)`` helpers
below are adapters over them. :func:`tri_tri_distance_batch` works
through its lanes in ``_CHUNK``-lane slices, so its temporaries stay in
cache whatever the batch size.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.tritri import tri_tri_intersect_batch

__all__ = [
    "closest_point_on_triangle_batch",
    "point_triangle_distance",
    "point_triangle_distance_batch",
    "segment_segment_distance",
    "segment_segment_distance_batch",
    "tri_tri_distance",
    "tri_tri_distance_batch",
]

_EPS = 1e-15

#: Lanes per pass inside one kernel call. A pass holds a few dozen
#: ``(3, 2, 3, m)`` / ``(3, 3, 3, m)`` float temporaries at once. At
#: 1,024 lanes they stay in a core's 2 MiB L2; one pass over a whole
#: 12,000-lane call spills them and costs about twice as much per lane
#: (3.4 against 1.7 us on a 2-vCPU Xeon). 2,048 lanes measured the
#: same as 1,024, 4,096 slower, 256 and 512 slower again (Python cost
#: per pass).
_CHUNK = 1024


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u . v`` for coordinate-major vectors, summed in x, y, z order."""
    prod = u * v
    return prod[0] + prod[1] + prod[2]


def _closest_point_planes(p, a, b, c) -> np.ndarray:
    """Closest point on triangle ``abc`` to ``p``, all coordinate-major.

    Implements the barycentric-region classification of Ericson,
    *Real-Time Collision Detection* (5.1.5), vectorized with masks.
    The arguments broadcast against each other, so one triangle's
    corners can serve several points without being repeated.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)

    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)

    cp = p - c
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
    closest = a + ab * v + ac * w

    # Edge BC region.
    edge_bc = (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0)
    t_bc_den = (d4 - d3) + (d5 - d6)
    t_bc = (d4 - d3) / np.where(np.abs(t_bc_den) < _EPS, 1.0, t_bc_den)
    np.copyto(closest, b + (c - b) * t_bc, where=edge_bc)

    # Edge AC region.
    edge_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    t_ac_den = d2 - d6
    t_ac = d2 / np.where(np.abs(t_ac_den) < _EPS, 1.0, t_ac_den)
    np.copyto(closest, a + ac * t_ac, where=edge_ac)

    # Edge AB region.
    edge_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    t_ab_den = d1 - d3
    t_ab = d1 / np.where(np.abs(t_ab_den) < _EPS, 1.0, t_ab_den)
    np.copyto(closest, a + ab * t_ab, where=edge_ab)

    # Vertex regions (highest priority, written last).
    np.copyto(closest, c, where=(d6 >= 0.0) & (d5 <= d6))
    np.copyto(closest, b, where=(d3 >= 0.0) & (d4 <= d3))
    np.copyto(closest, a, where=(d1 <= 0.0) & (d2 <= 0.0))
    return closest


def _point_triangle_sqdist_planes(p, a, b, c) -> np.ndarray:
    diff = p - _closest_point_planes(p, a, b, c)
    return _dot(diff, diff)


def _segment_sqdist_planes(p1, q1, p2, q2) -> np.ndarray:
    """Squared distance between segments ``p1 q1`` and ``p2 q2``.

    Clamped closest-point computation (Ericson 5.1.9) on coordinate-major
    vectors, vectorized and robust to degenerate (point-like) segments.
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

    diff = (p1 + d1 * s) - (p2 + d2 * t)
    return _dot(diff, diff)


def _planes(rows) -> np.ndarray:
    """``(n, 3)`` rows as one coordinate-major ``(3, n)`` array."""
    return np.ascontiguousarray(np.asarray(rows, dtype=np.float64).T)


def _corner_planes(tris) -> tuple:
    tris = np.asarray(tris, dtype=np.float64)
    return tuple(_planes(tris[:, i]) for i in range(3))


def closest_point_on_triangle_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Closest point on each triangle ``tris[i]`` to ``points[i]``.

    ``points`` has shape ``(n, 3)``, ``tris`` has shape ``(n, 3, 3)``;
    the result has shape ``(n, 3)``.
    """
    closest = _closest_point_planes(_planes(points), *_corner_planes(tris))
    return np.ascontiguousarray(closest.T)


def point_triangle_distance_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Distance from ``points[i]`` to triangle ``tris[i]``."""
    return np.sqrt(_point_triangle_sqdist_planes(_planes(points), *_corner_planes(tris)))


def point_triangle_distance(point, tri) -> float:
    point = np.asarray(point, dtype=np.float64).reshape(1, 3)
    tri = np.asarray(tri, dtype=np.float64).reshape(1, 3, 3)
    return float(point_triangle_distance_batch(point, tri)[0])


def segment_segment_distance_batch(
    p1: np.ndarray, q1: np.ndarray, p2: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Distance between segments ``p1[i]q1[i]`` and ``p2[i]q2[i]``."""
    return np.sqrt(_segment_sqdist_planes(*(_planes(v) for v in (p1, q1, p2, q2))))


def segment_segment_distance(p1, q1, p2, q2) -> float:
    args = [np.asarray(v, dtype=np.float64).reshape(1, 3) for v in (p1, q1, p2, q2)]
    return float(segment_segment_distance_batch(*args)[0])


def _tri_tri_sqdist_planes(corners: np.ndarray) -> np.ndarray:
    """Squared feature-pair minimum of one chunk of lanes.

    ``corners`` is ``(3, 2, 3, m)``: coordinate, side (A, B), corner,
    lane. The six vertex/triangle pairs run as one ``(2, 3, m)`` pass —
    each side's three corners against the other side's triangle, whose
    ``(3, 2, 1, m)`` corners broadcast over the three points — and the
    nine edge pairs as one ``(3, 3, m)`` pass, A's edge *i* (corner *i*
    to corner *i* + 1) against B's edge *j*.
    """
    other = corners[:, ::-1]
    best_sq = _point_triangle_sqdist_planes(
        corners, other[:, :, 0, None], other[:, :, 1, None], other[:, :, 2, None]
    ).min(axis=(0, 1))

    side_a, side_b = corners[:, 0], corners[:, 1]
    ends = [1, 2, 0]
    seg_sq = _segment_sqdist_planes(
        side_a[:, :, None], side_a[:, ends, None], side_b[:, None], side_b[:, None, ends]
    )
    return np.minimum(best_sq, seg_sq.min(axis=(0, 1)))


def tri_tri_distance_batch(
    tri_a: np.ndarray, tri_b: np.ndarray, check_intersection: bool = True
) -> np.ndarray:
    """Pairwise distance between ``(n, 3, 3)`` triangle arrays.

    The lanes are laid out once as coordinate planes — one ``(3, 2, 3,
    n)`` array indexed by coordinate, side, corner, lane — and the
    fifteen feature pairs run on ``_CHUNK``-lane slices of it, two
    passes per slice (:func:`_tri_tri_sqdist_planes`), so Python
    overhead stays constant per slice and the temporaries stay in cache.
    Every value is bit-identical to the row kernel's
    (``tests/oracles/distance_rows.py``): the same operations run in the
    same order, only on planes.

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

    corners = np.stack([tri_a, tri_b]).transpose(3, 0, 2, 1)
    best = np.empty(n)
    for lo in range(0, n, _CHUNK):
        chunk = np.ascontiguousarray(corners[..., lo:lo + _CHUNK])
        best[lo:lo + _CHUNK] = _tri_tri_sqdist_planes(chunk)
    np.sqrt(best, out=best)
    if check_intersection:
        best = np.where(tri_tri_intersect_batch(tri_a, tri_b), 0.0, best)
    return best


def tri_tri_distance(tri_a, tri_b, check_intersection: bool = True) -> float:
    tri_a = np.asarray(tri_a, dtype=np.float64).reshape(1, 3, 3)
    tri_b = np.asarray(tri_b, dtype=np.float64).reshape(1, 3, 3)
    return float(tri_tri_distance_batch(tri_a, tri_b, check_intersection)[0])
