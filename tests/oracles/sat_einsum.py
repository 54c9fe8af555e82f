"""Reference oracle: the one-stage einsum separating-axis kernel.

This is the triangle-triangle test the engine shipped before the
two-stage kernel of :mod:`repro.geometry.tritri`: all 17 axes of every
lane are built as one ``(n, 17, 3)`` array and projected with
``np.einsum``. It is kept as ground truth — the kernel tests assert that
:func:`~repro.geometry.tritri.tri_tri_intersect_batch` returns the same
verdict on every lane. Not used on any query or encode path.
"""

from __future__ import annotations

import numpy as np

from repro.geometry._fast import cross3

__all__ = ["einsum_tri_tri_intersect_batch"]

_AXIS_EPS = 1e-12


def _projection_separates(axes, tri_a, tri_b) -> np.ndarray:
    """For each pair, True if any of the given axes separates it.

    ``axes`` has shape (n, k, 3); ``tri_a``/``tri_b`` have shape (n, 3, 3).
    """
    # Project the three vertices of each triangle on each axis:
    # (n, k, 3verts) = sum over xyz of axes (n,k,1,3) * verts (n,1,3,3)
    proj_a = np.einsum("nkc,nvc->nkv", axes, tri_a)
    proj_b = np.einsum("nkc,nvc->nkv", axes, tri_b)
    min_a = proj_a.min(axis=2)
    max_a = proj_a.max(axis=2)
    min_b = proj_b.min(axis=2)
    max_b = proj_b.max(axis=2)
    # Ignore numerically-zero axes: they can never witness separation.
    valid = (axes * axes).sum(axis=2) > _AXIS_EPS
    separated = (max_a < min_b) | (max_b < min_a)
    return np.any(separated & valid, axis=1)


def einsum_tri_tri_intersect_batch(tri_a: np.ndarray, tri_b: np.ndarray) -> np.ndarray:
    """Pairwise intersection test for two ``(n, 3, 3)`` triangle arrays.

    Returns a boolean array of length ``n``; element ``i`` is True when
    ``tri_a[i]`` intersects ``tri_b[i]``.
    """
    tri_a = np.asarray(tri_a, dtype=np.float64)
    tri_b = np.asarray(tri_b, dtype=np.float64)
    if tri_a.shape != tri_b.shape or tri_a.ndim != 3 or tri_a.shape[1:] != (3, 3):
        raise ValueError("expected matching (n, 3, 3) triangle arrays")
    n = tri_a.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)

    edges_a = np.stack(
        [tri_a[:, 1] - tri_a[:, 0], tri_a[:, 2] - tri_a[:, 1], tri_a[:, 0] - tri_a[:, 2]],
        axis=1,
    )  # (n, 3, 3)
    edges_b = np.stack(
        [tri_b[:, 1] - tri_b[:, 0], tri_b[:, 2] - tri_b[:, 1], tri_b[:, 0] - tri_b[:, 2]],
        axis=1,
    )
    normal_a = cross3(edges_a[:, 0], edges_a[:, 1])[:, None, :]  # (n, 1, 3)
    normal_b = cross3(edges_b[:, 0], edges_b[:, 1])[:, None, :]

    # 9 edge-edge cross products: (n, 3, 3, 3) -> (n, 9, 3)
    cross_ab = cross3(edges_a[:, :, None, :], edges_b[:, None, :, :])
    cross_ab = cross_ab.reshape(n, 9, 3)

    # In-plane edge normals for the coplanar case.
    inplane_a = cross3(np.broadcast_to(normal_a, edges_a.shape), edges_a)
    inplane_b = cross3(np.broadcast_to(normal_b, edges_b.shape), edges_b)

    axes = np.concatenate(
        [normal_a, normal_b, cross_ab, inplane_a, inplane_b], axis=1
    )  # (n, 17, 3)
    return ~_projection_separates(axes, tri_a, tri_b)
