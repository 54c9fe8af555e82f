"""Editable mesh and the vertex-removal / reinsertion operations.

This is the mechanical core of the codec (Section 2.3 / Fig. 3 of the
paper): removing a vertex deletes its star of faces and re-triangulates
the one-ring hole with a fan; reinserting it swaps the fan back for the
original star. Both directions are exact inverses, which is what makes
the compression invertible.

Vertex ids are *stable*: the editable mesh references one shared,
immutable position table (the full-resolution vertex set), and removal
only ever deletes faces. That keeps every removal record meaningful at
every LOD and makes decoding a pure patch swap.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.geometry._fast import cross3

from repro.mesh.adjacency import edge_key, ordered_ring
from repro.mesh.polyhedron import Polyhedron

__all__ = ["VertexPatch", "EditableMesh", "fan_rotations", "fans_nondegenerate"]

_AREA_EPS = 1e-12

FaceTriple = tuple[int, int, int]


@dataclass(frozen=True)
class VertexPatch:
    """Record of one vertex removal.

    ``star_faces`` are the original faces incident to ``vertex`` (deleted
    by the removal and restored on reinsertion); ``patch_faces`` are the
    fan triangles that re-close the hole. ``ring`` is the ordered one-ring
    boundary loop, kept for analysis and serialization.
    """

    vertex: int
    ring: tuple[int, ...]
    star_faces: tuple[FaceTriple, ...]
    patch_faces: tuple[FaceTriple, ...]


def _face_key(a: int, b: int, c: int) -> FaceTriple:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


def fan_rotations(rings: np.ndarray) -> np.ndarray:
    """Fan patches of every rotation of every ring.

    ``rings`` is a ``(c, k)`` array of ordered one-ring loops. Element
    ``[i, r]`` of the ``(c, k, k - 2, 3)`` result is the fan that
    re-closes ring ``i``'s hole from apex ``rings[i, r]``: faces
    ``(loop[0], loop[j], loop[j + 1])`` for ``j = 1 .. k - 2`` of the
    loop rotated to start at offset ``r``.
    """
    k = rings.shape[1]
    apex = np.arange(k)[:, None]
    j = np.arange(1, k - 1)[None, :]
    corners = np.stack(np.broadcast_arrays(apex, (apex + j) % k, (apex + j + 1) % k), axis=-1)
    return rings[:, corners]


def fans_nondegenerate(positions: np.ndarray, fans: np.ndarray) -> np.ndarray:
    """True per fan (``fans``: ``(..., m, 3)``) when no face has ~zero area."""
    tris = positions[fans]
    normals = cross3(tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :])
    areas = np.sqrt((normals * normals).sum(axis=-1)) / 2.0
    return ~(areas < _AREA_EPS).any(axis=-1)


class EditableMesh:
    """A triangle mesh supporting O(1) face insertion/removal.

    Faces are held in a dict keyed by their sorted vertex triple (a
    closed, consistently-oriented mesh can never contain two faces over
    the same vertex set), with the oriented triple as value. Vertex and
    edge incidence maps are maintained incrementally.
    """

    def __init__(self, positions: np.ndarray, faces: Iterable[FaceTriple] = ()):
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        self.positions = positions
        self._faces: dict[FaceTriple, FaceTriple] = {}
        self._vertex_faces: dict[int, set[FaceTriple]] = defaultdict(set)
        self._edge_count: dict[tuple[int, int], int] = defaultdict(int)
        for face in faces:
            self.add_face(*face)

    @classmethod
    def from_polyhedron(cls, polyhedron: Polyhedron) -> "EditableMesh":
        return cls(polyhedron.vertices, map(tuple, polyhedron.faces.tolist()))

    # -- basic face surgery -------------------------------------------------

    @property
    def num_faces(self) -> int:
        return len(self._faces)

    @property
    def live_vertices(self) -> set[int]:
        """Vertices currently referenced by at least one face."""
        return {v for v, faces in self._vertex_faces.items() if faces}

    def has_face(self, a: int, b: int, c: int) -> bool:
        return _face_key(a, b, c) in self._faces

    def has_edge(self, a: int, b: int) -> bool:
        return self._edge_count.get(edge_key(a, b), 0) > 0

    def add_face(self, a: int, b: int, c: int) -> None:
        key = _face_key(a, b, c)
        if key in self._faces:
            raise ValueError(f"face over vertices {key} already present")
        self._faces[key] = (a, b, c)
        for v in key:
            self._vertex_faces[v].add(key)
        for edge in ((a, b), (b, c), (c, a)):
            self._edge_count[edge_key(*edge)] += 1

    def remove_face(self, a: int, b: int, c: int) -> None:
        key = _face_key(a, b, c)
        if key not in self._faces:
            raise KeyError(f"no face over vertices {key}")
        del self._faces[key]
        for v in key:
            self._vertex_faces[v].discard(key)
        for edge in ((a, b), (b, c), (c, a)):
            ekey = edge_key(*edge)
            self._edge_count[ekey] -= 1
            if self._edge_count[ekey] == 0:
                del self._edge_count[ekey]

    def star(self, vertex: int) -> list[FaceTriple]:
        """Oriented faces currently incident to ``vertex``."""
        return [self._faces[key] for key in self._vertex_faces.get(vertex, ())]

    def ring(self, vertex: int) -> list[int] | None:
        return ordered_ring(vertex, self.star(vertex))

    # -- vertex removal (encoding direction) --------------------------------

    def try_remove_vertex(
        self,
        vertex: int,
        accept: Callable[[int, tuple[FaceTriple, ...]], bool] | None = None,
    ) -> VertexPatch | None:
        """Remove ``vertex`` if a valid fan re-triangulation exists.

        Tries every ring rotation as the fan apex until one produces a
        patch that (a) keeps the mesh a closed 2-manifold, (b) has no
        degenerate triangles, and (c) satisfies the optional ``accept``
        predicate. Returns the applied :class:`VertexPatch`, or None when
        the vertex cannot be removed under those constraints.
        """
        ring = self.ring(vertex)
        if ring is None or len(ring) < 3:
            return None
        fans = fan_rotations(np.asarray([ring], dtype=np.int64))[0]
        usable = fans_nondegenerate(self.positions, fans)
        return self.remove_with_fan(vertex, ring, fans, usable, accept)

    def remove_with_fan(
        self,
        vertex: int,
        ring: list[int],
        fans: np.ndarray,
        usable: np.ndarray,
        accept: Callable[[int, tuple[FaceTriple, ...]], bool] | None = None,
    ) -> VertexPatch | None:
        """Remove ``vertex`` with the first usable fan that fits the mesh.

        ``fans`` are the vertex's ring rotations (:func:`fan_rotations`,
        one row) and ``usable`` their verdicts on everything that depends
        on positions alone (:func:`fans_nondegenerate`, and the codec's
        halfspace test). Rotations are tried in order; one is applied
        when its chords and faces are new to the live mesh and ``accept``
        (if given) agrees.
        """
        star = tuple(self.star(vertex))
        for apex_offset in np.flatnonzero(usable).tolist():
            patch = tuple(map(tuple, fans[apex_offset].tolist()))
            if not self._fan_fits(patch):
                continue
            if accept is not None and not accept(vertex, patch):
                continue
            for face in star:
                self.remove_face(*face)
            for face in patch:
                self.add_face(*face)
            return VertexPatch(vertex, tuple(ring), star, patch)
        return None

    def _fan_fits(self, patch: tuple[FaceTriple, ...]) -> bool:
        """True when a fan's chords and faces are all new to the mesh.

        Each edge of a closed mesh borders exactly two faces and the ring
        edges already border one outside face each, so a chord (apex to
        a non-adjacent ring vertex) must not exist yet; nor may a patch
        face coincide with an existing one (e.g. the far face of a
        tetrahedral bump when the ring has length 3).
        """
        apex = patch[0][0]
        for face in patch[1:]:
            if self.has_edge(apex, face[1]):
                return False
        return not any(_face_key(*face) in self._faces for face in patch)

    # -- vertex reinsertion (decoding direction) ----------------------------

    def reinsert(self, patch: VertexPatch) -> None:
        """Undo a removal: swap the fan back for the original star."""
        for face in patch.patch_faces:
            self.remove_face(*face)
        for face in patch.star_faces:
            self.add_face(*face)

    def remove_recorded(self, patch: VertexPatch) -> None:
        """Re-apply a recorded removal (used when replaying an encode)."""
        for face in patch.star_faces:
            self.remove_face(*face)
        for face in patch.patch_faces:
            self.add_face(*face)

    # -- exports -------------------------------------------------------------

    def face_array(self) -> np.ndarray:
        """Snapshot the oriented faces as an ``(m, 3)`` int64 array."""
        if not self._faces:
            return np.zeros((0, 3), dtype=np.int64)
        return np.asarray(list(self._faces.values()), dtype=np.int64)

    def to_polyhedron(self, compact: bool = False) -> Polyhedron:
        poly = Polyhedron(self.positions, self.face_array(), copy=False)
        return poly.compacted() if compact else poly
