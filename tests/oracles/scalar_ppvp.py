"""Reference oracle: the per-rotation scalar PPVP decimation round.

This is the round the encoder shipped before it built every candidate's
ring once and judged all ring rotations' pure predicates (non-degenerate
fan, halfspace test) in one vectorized pass. Here every candidate is
tried through the scalar ``try_remove_vertex`` walk of that time —
rotation by rotation, chord and face checks, the per-patch degenerate
test, then the ``accept`` closure (halfspace test, then the embedding
guard through the one-stage einsum kernel of
``tests/oracles/sat_einsum.py``). It is kept as ground truth: the codec
tests assert that :class:`~repro.compression.ppvp.PPVPEncoder` and
:class:`~repro.compression.ppmc.PPMCEncoder` produce byte-identical
``positions``, ``base_faces`` and ``rounds``. Not used on any encode
path.
"""

from __future__ import annotations

import numpy as np

from repro.compression.ppvp import PPVPEncoder, RemovalRecord
from repro.geometry._fast import cross3
from repro.mesh.editable import VertexPatch
from tests.oracles.sat_einsum import einsum_tri_tri_intersect_batch

__all__ = ["ScalarPPVPEncoder"]

_AREA_EPS = 1e-12
_REL_EPS = 1e-9


def _patch_is_protruding(positions, vertex, patch_faces) -> bool:
    patch = np.asarray(patch_faces, dtype=np.int64)
    if patch.size == 0:
        return True
    tris = positions[patch]
    normals = cross3(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    centroids = tris.mean(axis=1)
    offsets = positions[vertex] - centroids
    dots = (normals * offsets).sum(axis=1)
    scale = np.sqrt((normals * normals).sum(axis=1)) * np.sqrt(
        (offsets * offsets).sum(axis=1)
    )
    return bool((dots >= -_REL_EPS * np.maximum(scale, 1e-300)).all())


def _shrink(tris, factor=1e-6):
    centroids = tris.mean(axis=1, keepdims=True)
    return centroids + (tris - centroids) * (1.0 - factor)


def _coplanar(tri_a, tri_b, rel_eps=1e-7) -> bool:
    normal = cross3(tri_a[1] - tri_a[0], tri_a[2] - tri_a[0])
    scale = np.linalg.norm(normal) * max(np.abs(tri_b - tri_a[0]).max(), 1e-300)
    offsets = (tri_b - tri_a[0]) @ normal
    return bool((np.abs(offsets) <= rel_eps * max(scale, 1e-300)).all())


def _patch_is_embedded(positions, patch_faces, guard_faces) -> bool:
    patch = np.asarray(patch_faces, dtype=np.int64)
    if patch.size == 0:
        return True
    patch_tris = _shrink(positions[patch])

    pairs_a = []
    pairs_b = []
    guard = np.asarray(list(guard_faces), dtype=np.int64)
    if guard.size:
        guard_tris = _shrink(positions[guard])
        n_p, n_g = len(patch_tris), len(guard_tris)
        ii, jj = np.divmod(np.arange(n_p * n_g), n_g)
        p_low, p_high = patch_tris.min(axis=1), patch_tris.max(axis=1)
        g_low, g_high = guard_tris.min(axis=1), guard_tris.max(axis=1)
        overlap = np.all(
            (p_low[ii] <= g_high[jj]) & (g_low[jj] <= p_high[ii]), axis=1
        )
        pairs_a.append(patch_tris[ii[overlap]])
        pairs_b.append(guard_tris[jj[overlap]])
    if len(patch_tris) > 1:
        iu, ju = np.triu_indices(len(patch_tris), k=1)
        pairs_a.append(patch_tris[iu])
        pairs_b.append(patch_tris[ju])
    if not pairs_a:
        return True
    tris_a = np.concatenate(pairs_a)
    tris_b = np.concatenate(pairs_b)
    hits = einsum_tri_tri_intersect_batch(tris_a, tris_b)
    if not bool(hits.any()):
        return True
    return all(
        _coplanar(tris_a[index], tris_b[index]) for index in np.nonzero(hits)[0]
    )


def _fan_patch(mesh, loop):
    apex = loop[0]
    k = len(loop)
    patch = tuple((apex, loop[j], loop[j + 1]) for j in range(1, k - 1))
    for j in range(2, k - 1):
        if mesh.has_edge(apex, loop[j]):
            return None
    for face in patch:
        if mesh.has_face(*face):
            return None
    tris = mesh.positions[np.asarray(patch, dtype=np.int64)]
    normals = cross3(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    areas = np.sqrt((normals * normals).sum(axis=1)) / 2.0
    if bool((areas < _AREA_EPS).any()):
        return None
    return patch


def _try_remove_vertex(mesh, vertex, accept):
    ring = mesh.ring(vertex)
    if ring is None or len(ring) < 3:
        return None
    star = tuple(mesh.star(vertex))
    for apex_offset in range(len(ring)):
        loop = ring[apex_offset:] + ring[:apex_offset]
        patch = _fan_patch(mesh, loop)
        if patch is None:
            continue
        if accept is not None and not accept(vertex, patch):
            continue
        for face in star:
            mesh.remove_face(*face)
        for face in patch:
            mesh.add_face(*face)
        return VertexPatch(vertex, tuple(ring), star, patch)
    return None


class ScalarPPVPEncoder(PPVPEncoder):
    """``PPVPEncoder`` whose rounds run the scalar per-rotation walk.

    ``protruding_only=False`` gives the PPMC round (fan checks only).
    """

    def _decimation_round(self, mesh) -> tuple[RemovalRecord, ...]:
        positions = mesh.positions
        accept = None
        if self.protruding_only:

            def accept(vertex, patch):
                if not _patch_is_protruding(positions, vertex, patch):
                    return False
                ring_vertices = {index for face in patch for index in face}
                guard: set = set()
                for u in ring_vertices:
                    guard.update(mesh.star(u))
                return _patch_is_embedded(positions, patch, guard)

        irremovable: set[int] = set()
        removed: list[RemovalRecord] = []
        for vertex in sorted(mesh.live_vertices):
            if vertex in irremovable:
                continue
            if mesh.num_faces - 2 < self.min_faces:
                break
            star_size = len(mesh.star(vertex))
            if star_size < 3 or star_size > self.max_ring:
                continue
            patch = _try_remove_vertex(mesh, vertex, accept)
            if patch is None:
                continue
            irremovable.update(patch.ring)
            removed.append(RemovalRecord.from_vertex_patch(patch))
        return tuple(removed)
