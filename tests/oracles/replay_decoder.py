"""Reference oracle: the record-by-record replay decoder.

This is the decoder the engine shipped before the columnar
:class:`~repro.compression.lodtable.LODTable`: it replays removal
records through an :class:`~repro.mesh.editable.EditableMesh`, one
vertex reinsertion at a time. It is kept as ground truth — the
equivalence tests assert that
:class:`~repro.compression.ppvp.ProgressiveDecoder` matches it
byte-for-byte (rows, order, orientation, ``vertices_reinserted``) at
every LOD, on clean, partitioned, corrupt and salvaged objects. Not
used on any query path.
"""

from __future__ import annotations

import numpy as np

from repro.compression.ppvp import CompressedObject
from repro.mesh.editable import EditableMesh
from repro.mesh.polyhedron import Polyhedron

__all__ = ["ReplayDecoder"]


class ReplayDecoder:
    """Stateful coarse-to-fine decoder with ``ProgressiveDecoder``'s interface."""

    def __init__(self, compressed: CompressedObject):
        self.compressed = compressed
        self._mesh = EditableMesh(
            compressed.positions, map(tuple, compressed.base_faces.tolist())
        )
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
        added = 0
        rounds = self.compressed.rounds
        while self._rounds_reinserted < target:
            # Rounds reinsert in reverse encode order.
            round_records = rounds[len(rounds) - 1 - self._rounds_reinserted]
            for record in round_records:
                self._mesh.reinsert(record.as_vertex_patch())
            added += len(round_records)
            self._rounds_reinserted += 1
        self.current_lod = lod
        self.vertices_reinserted += added
        return added

    def polyhedron(self) -> Polyhedron:
        """Snapshot of the mesh at the current LOD (shares the vertex table)."""
        return self._mesh.to_polyhedron()

    def face_array(self) -> np.ndarray:
        return self._mesh.face_array()
