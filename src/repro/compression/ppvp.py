"""PPVP: Progressive Protruding-Vertex Pruning compression (Section 3.2).

The encoder runs rounds of decimation. In each round it sweeps the live
vertices in deterministic order and removes every vertex that

* still has a removable star (a single closed fan),
* is not marked irremovable (no two removed vertices may share an edge
  within a round, so the surface simplifies evenly — Section 2.3), and
* is **protruding** for some valid fan re-triangulation of its ring,

recording, per removal, just the vertex id, its ordered ring, and which
ring rotation served as the fan apex — enough to reconstruct both the
deleted star and the inserted patch. Because pruning only ever cuts
solid tetrahedra off the surface, the mesh after any number of rounds
covers a subset of the original volume, and therefore (paper Section 3.2):

1. if two objects intersect at a lower LOD they intersect at every
   higher LOD, and
2. the distance between two objects at a lower LOD upper-bounds their
   distance at every higher LOD.

Decoding is progressive: a :class:`ProgressiveDecoder` starts from the
base (coarsest) mesh and reinserts removal rounds in reverse, which is
exactly the access pattern of the Filter-Progressive-Refine query
engine. The decoder no longer replays records through an
:class:`~repro.mesh.editable.EditableMesh`: each object compiles its
rounds once into a columnar :class:`~repro.compression.lodtable.LODTable`
(face rows with birth/death decode-step intervals) and a decoder is just
a monotone cursor slicing that table. The record-by-record replay
survives as the reference implementation the equivalence tests compare
against (``tests/oracles/replay_decoder.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil

import numpy as np

from repro.compression.classify import patch_is_embedded, patches_protrude
from repro.compression.lodtable import LODTable, compile_lod_table
from repro.geometry.aabb import AABB
from repro.mesh.adjacency import ordered_ring
from repro.mesh.editable import EditableMesh, VertexPatch, fan_rotations, fans_nondegenerate
from repro.mesh.polyhedron import Polyhedron

__all__ = [
    "RemovalRecord",
    "CompressedObject",
    "PPVPEncoder",
    "ProgressiveDecoder",
]

#: Candidates per vectorized verdict pass; bounds its temporaries at a
#: few MB on any mesh.
_PASS_ROWS = 2048


@dataclass(frozen=True)
class RemovalRecord:
    """A compact, reconstructible record of one vertex removal.

    The deleted star is always the full fan ``(vertex, ring[i],
    ring[i+1])``; the inserted patch is the fan of the ring rotated so
    ``ring[apex_offset]`` comes first. Storing only ``(vertex, ring,
    apex_offset)`` therefore reproduces the entire surgery.
    """

    vertex: int
    ring: tuple[int, ...]
    apex_offset: int

    def star_faces(self) -> tuple[tuple[int, int, int], ...]:
        k = len(self.ring)
        return tuple(
            (self.vertex, self.ring[i], self.ring[(i + 1) % k]) for i in range(k)
        )

    def patch_faces(self) -> tuple[tuple[int, int, int], ...]:
        loop = self.ring[self.apex_offset :] + self.ring[: self.apex_offset]
        apex = loop[0]
        return tuple((apex, loop[j], loop[j + 1]) for j in range(1, len(loop) - 1))

    def as_vertex_patch(self) -> VertexPatch:
        return VertexPatch(self.vertex, self.ring, self.star_faces(), self.patch_faces())

    @staticmethod
    def from_vertex_patch(patch: VertexPatch) -> "RemovalRecord":
        apex = patch.patch_faces[0][0] if patch.patch_faces else patch.ring[0]
        return RemovalRecord(patch.vertex, tuple(patch.ring), patch.ring.index(apex))


@dataclass(frozen=True)
class CompressedObject:
    """A 3D object compressed into a base mesh plus removal rounds.

    ``rounds[0]`` is the first round applied during encoding (removals
    closest to the original surface); ``rounds[-1]`` produced the base
    mesh. Decoding reinserts rounds from the back of the list forward.
    All face records index into the single shared ``positions`` table,
    which includes removed vertices — vertex ids are stable across LODs.
    """

    positions: np.ndarray
    base_faces: np.ndarray
    rounds: tuple[tuple[RemovalRecord, ...], ...]
    rounds_per_lod: int = 2
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rounds_per_lod < 1:
            raise ValueError("rounds_per_lod must be >= 1")
        self.positions.setflags(write=False)
        self.base_faces.setflags(write=False)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def max_lod(self) -> int:
        """Highest LOD index; LOD 0 is the base, ``max_lod`` the original."""
        return ceil(self.num_rounds / self.rounds_per_lod)

    @property
    def lods(self) -> range:
        """All decodable LODs, ascending (coarse to fine)."""
        return range(self.max_lod + 1)

    def rounds_reinserted_at(self, lod: int) -> int:
        """How many rounds must be decoded (reinserted) to reach ``lod``."""
        if lod < 0 or lod > self.max_lod:
            raise ValueError(f"lod must be in [0, {self.max_lod}], got {lod}")
        return min(self.num_rounds, lod * self.rounds_per_lod)

    @cached_property
    def aabb(self) -> AABB:
        """MBB of the original (highest-LOD) object.

        PPVP only prunes, so this also bounds every lower LOD; it is the
        box registered in the global R-tree without decoding anything.
        """
        stored = self.metadata.get("aabb")
        if stored is not None:
            return stored
        return AABB.of_points(self.positions)

    @cached_property
    def _decode_cum_records(self) -> tuple[int, ...]:
        """Cumulative removal records per decode step (``[0]`` at step 0).

        Computed once from the round sizes alone — cheap enough for the
        load path, which asks for face counts before anything decodes.
        """
        sizes = [0]
        for records in reversed(self.rounds):
            sizes.append(sizes[-1] + len(records))
        return tuple(sizes)

    @cached_property
    def lod_table(self) -> LODTable:
        """The compiled columnar birth/death face table (built once).

        Every decoder, cache entry, and worker decoding this object
        shares this one immutable table; it rides along when the object
        is pickled (process-backend spill transport).
        """
        return compile_lod_table(self.base_faces, self.rounds)

    def face_count_at_lod(self, lod: int) -> int:
        """Face count at ``lod`` in O(1): each reinsertion adds 2 faces."""
        reinserted = self.rounds_reinserted_at(lod)
        return len(self.base_faces) + 2 * self._decode_cum_records[reinserted]

    def base_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, base_faces)``: all that LOD 0 reads."""
        return self.positions, self.base_faces

    def decoder(self) -> "ProgressiveDecoder":
        return ProgressiveDecoder(self)

    def decode(self, lod: int) -> Polyhedron:
        """One-shot decode to ``lod`` (use a decoder for progressive access)."""
        decoder = self.decoder()
        decoder.advance_to(lod)
        return decoder.polyhedron()


class ProgressiveDecoder:
    """Stateful coarse-to-fine decoder over a :class:`CompressedObject`.

    Decoding is monotone: LODs can only increase (matching the FPR
    refinement loop). ``vertices_reinserted`` tallies the decode work
    performed, which the engine uses for cost accounting.

    A decoder is a thin cursor over the object's compiled
    :attr:`~CompressedObject.lod_table`: advancing is O(1) bookkeeping
    and :meth:`face_array` materializes the face set as a sorted
    birth-prefix slice plus a death mask — byte-identical (rows, order,
    orientation, and the accounting above) to the record-by-record
    replay it replaced. Corrupt rounds keep their legacy
    behavior: every step the table compiled decodes normally and an
    advance into the corrupt region raises the original replay error.
    """

    def __init__(self, compressed: CompressedObject):
        self.compressed = compressed
        self._table = compressed.lod_table
        self._rounds_reinserted = 0
        self.current_lod = 0
        self.vertices_reinserted = 0

    def advance_to(self, lod: int) -> int:
        """Reinsert rounds until ``lod`` is reached; returns vertices added."""
        target = self.compressed.rounds_reinserted_at(lod)
        if lod < self.current_lod:
            raise ValueError(
                f"decoder is at LOD {self.current_lod}; cannot go back to {lod}"
            )
        table = self._table
        if table.failed_step is not None and target >= table.failed_step:
            # Same error, same trigger point as replaying the records.
            raise table.failure
        added = int(table.cum_records[target] - table.cum_records[self._rounds_reinserted])
        self._rounds_reinserted = target
        self.current_lod = lod
        self.vertices_reinserted += added
        return added

    def polyhedron(self) -> Polyhedron:
        """Snapshot of the mesh at the current LOD (shares the vertex table)."""
        return Polyhedron(self.compressed.positions, self.face_array(), copy=False)

    def face_array(self) -> np.ndarray:
        return self._table.faces_at_step(self._rounds_reinserted)


class PPVPEncoder:
    """Encoder for PPVP compression.

    Parameters mirror the paper's experimental setup: 6 LODs, one LOD
    level per two rounds of decimation, and decimation stops when the
    mesh reaches ``min_faces`` or a round removes nothing.
    """

    def __init__(
        self,
        max_lods: int = 6,
        rounds_per_lod: int = 2,
        min_faces: int = 16,
        max_ring: int = 16,
        protruding_only: bool = True,
    ):
        if max_lods < 1:
            raise ValueError("max_lods must be >= 1")
        if rounds_per_lod < 1:
            raise ValueError("rounds_per_lod must be >= 1")
        if min_faces < 4:
            raise ValueError("min_faces must be >= 4 (closed mesh lower bound)")
        self.max_lods = max_lods
        self.rounds_per_lod = rounds_per_lod
        self.min_faces = min_faces
        self.max_ring = max_ring
        self.protruding_only = protruding_only

    @property
    def max_rounds(self) -> int:
        return (self.max_lods - 1) * self.rounds_per_lod

    def encode(self, polyhedron: Polyhedron) -> CompressedObject:
        """Compress ``polyhedron`` into a base mesh plus removal rounds."""
        positions = np.asarray(polyhedron.vertices, dtype=np.float64)
        mesh = EditableMesh.from_polyhedron(polyhedron)
        aabb = polyhedron.aabb

        rounds: list[tuple[RemovalRecord, ...]] = []
        for _round_index in range(self.max_rounds):
            if mesh.num_faces <= self.min_faces:
                break
            removed = self._decimation_round(mesh)
            if not removed:
                break
            rounds.append(removed)

        return CompressedObject(
            positions=positions.copy(),
            base_faces=mesh.face_array(),
            rounds=tuple(rounds),
            rounds_per_lod=self.rounds_per_lod,
            metadata={"aabb": aabb, "original_faces": polyhedron.num_faces},
        )

    def _decimation_round(self, mesh: EditableMesh) -> tuple[RemovalRecord, ...]:
        """One round: remove an independent set of (protruding) vertices.

        Live vertices are swept in sorted order; each one not marked
        irremovable is removed with the first ring rotation whose fan is
        valid (and, for PPVP, passes the halfspace test and the embedding
        guard), and its ring is then marked irremovable.

        A removal deletes only faces that contain the removed vertex and
        adds only faces on its ring, and the whole ring becomes
        irremovable. So a candidate the sweep still reaches has the star,
        the ring and the face iteration order it had when the round
        began. Rings are therefore built once, up front, and every
        rotation's position-only verdicts (non-degenerate fan, halfspace
        test) come from one vectorized pass per ring length. The sweep
        keeps only what depends on earlier removals: chord and face
        existence on the live mesh, then the embedding guard against the
        live neighbourhood.
        """
        positions = mesh.positions
        candidates = []
        for vertex in sorted(mesh.live_vertices):
            star = mesh.star(vertex)
            if 3 <= len(star) <= self.max_ring:
                ring = ordered_ring(vertex, star)
                if ring is not None:
                    candidates.append((vertex, ring))

        by_length: dict[int, list[int]] = {}
        for index, (_vertex, ring) in enumerate(candidates):
            by_length.setdefault(len(ring), []).append(index)
        fans: list = [None] * len(candidates)
        usable: list = [None] * len(candidates)
        for indices in by_length.values():
            for lo in range(0, len(indices), _PASS_ROWS):
                chunk = indices[lo : lo + _PASS_ROWS]
                rings = np.array([candidates[i][1] for i in chunk], dtype=np.int64)
                chunk_fans = fan_rotations(rings)
                ok = fans_nondegenerate(positions, chunk_fans)
                if self.protruding_only:
                    vertices = np.array([candidates[i][0] for i in chunk], dtype=np.int64)
                    ok &= patches_protrude(positions, vertices[:, None], chunk_fans)
                for row, i in enumerate(chunk):
                    fans[i] = chunk_fans[row]
                    usable[i] = ok[row]

        accept = None
        if self.protruding_only:

            def accept(_vertex, patch):
                # The embedding guard keeps the tetrahedron-cut argument
                # geometrically valid on saddle rings.
                ring_vertices = {index for face in patch for index in face}
                guard = {face for u in ring_vertices for face in mesh.star(u)}
                return patch_is_embedded(positions, patch, guard)

        irremovable: set[int] = set()
        removed: list[RemovalRecord] = []
        for (vertex, ring), vertex_fans, vertex_usable in zip(candidates, fans, usable):
            if vertex in irremovable:
                continue
            if mesh.num_faces - 2 < self.min_faces:
                break
            patch = mesh.remove_with_fan(vertex, ring, vertex_fans, vertex_usable, accept)
            if patch is None:
                continue
            irremovable.update(patch.ring)
            removed.append(RemovalRecord.from_vertex_patch(patch))
        return tuple(removed)
