"""Columnar birth/death-interval LOD tables: the decode fast path.

PPVP decoding replays removal records back-to-front, and vertex ids are
stable (removal only deletes faces, the position table is shared across
LODs — see :mod:`repro.mesh.editable`). Two consequences make decoding
compilable:

1. every face the decoder will ever hold is known up front — the base
   faces plus the star fans of every removal record; and
2. each such face instance is live over exactly one contiguous interval
   of decode steps ``[birth, death)``: it appears when its round is
   reinserted (or at step 0 for base faces) and disappears only when a
   later round's star replaces the patch fan it belongs to.

So instead of replaying dict surgery per record, we compile the rounds
once into a flat table — ``faces[(N, 3)]`` with parallel ``birth`` /
``death`` step arrays — and materialize the face set at decode step
``s`` as a *sorted birth-prefix slice plus a death mask*: rows are stored
in mesh insertion order, which makes ``birth`` non-decreasing, so
``birth <= s`` is a prefix and only ``death > s`` needs a mask. The
result is byte-identical to an :class:`~repro.mesh.editable.EditableMesh`
replay — same rows, same orientation, same order — because Python dicts
preserve insertion order and a reinsertion appends its star faces
exactly where the table appends its rows.

Compilation itself is vectorized: births and deaths become sorted event
streams per face key, matched with ``searchsorted`` (a face key's events
strictly alternate add/remove in any consistent record stream). Records
that violate that invariant — corrupt v1 blobs, fuzzed rounds — drop to
a sequential builder that replays record by record and truncates the
table at the first inconsistent step, preserving the decoder's legacy
failure ladder: every step before the failure decodes normally, any step
at or past it raises the original error.

Tables are immutable (plain numpy arrays, no locks), so they pickle
cleanly across the process query backend's spill transport and can be
shared by every decoder, cache entry, and worker touching the object.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ALIVE", "LODTable", "compile_lod_table"]

# Death sentinel: the face is still live at the final compiled step.
# One fixed value (not num_steps + 1), so "never removed" reads the same
# in every table whatever its step count.
ALIVE = int(np.iinfo(np.int32).max)

# The vectorized compiler packs a sorted vertex triple into one int64
# (3 x 21 bits); meshes with larger vertex ids use the sequential path.
_PACK_BITS = 21
_PACK_LIMIT = 1 << _PACK_BITS


class LODTable:
    """Immutable columnar face-interval table for one compressed object.

    ``faces`` holds every face instance the decoder can ever produce, in
    mesh insertion order (base faces first, then each decode step's star
    fans in record order). ``birth[i]``/``death[i]`` bound row ``i``'s
    live interval in decode steps: row ``i`` is present at step ``s`` iff
    ``birth[i] <= s < death[i]`` (``death == ALIVE`` means never removed).

    ``face_counts[s]`` / ``cum_records[s]`` are the live face count and
    the cumulative removal records reinserted through step ``s`` — the
    numbers the decoder reports as work done without touching the rows.

    ``failed_step`` marks the first decode step whose compilation hit an
    inconsistent record (corrupt data); the table is valid up to the
    preceding step and re-raises the captured ``failure`` for any access
    at or past it, mirroring where a record-by-record replay would have
    raised.
    """

    def __init__(
        self,
        faces: np.ndarray,
        birth: np.ndarray,
        death: np.ndarray,
        face_counts: np.ndarray,
        cum_records: np.ndarray,
        failed_step: int | None = None,
        failure: Exception | None = None,
    ):
        self.faces = faces
        self.birth = birth
        self.death = death
        self.face_counts = face_counts
        self.cum_records = cum_records
        self.failed_step = failed_step
        self.failure = failure
        for arr in (faces, birth, death, face_counts, cum_records):
            arr.setflags(write=False)

    @property
    def num_steps(self) -> int:
        """Decode steps covered (including any steps past ``failed_step``)."""
        return len(self.face_counts) - 1

    @property
    def num_rows(self) -> int:
        return len(self.faces)

    @property
    def nbytes(self) -> int:
        return (
            self.faces.nbytes + self.birth.nbytes + self.death.nbytes
            + self.face_counts.nbytes + self.cum_records.nbytes
        )

    def _check_step(self, step: int) -> None:
        if step < 0 or step > self.num_steps:
            raise ValueError(f"step must be in [0, {self.num_steps}], got {step}")
        if self.failed_step is not None and step >= self.failed_step:
            raise self.failure

    def faces_at_step(self, step: int) -> np.ndarray:
        """The oriented ``(m, 3)`` face array at decode step ``step``.

        Byte-identical (rows, order, orientation) to an
        :class:`~repro.mesh.editable.EditableMesh` replay of the same
        rounds. Read-only; shares the table's storage when no row born
        by ``step`` has died yet.
        """
        self._check_step(step)
        prefix = int(np.searchsorted(self.birth, step, side="right"))
        dead = self.death[:prefix] <= step
        if not dead.any():
            return self.faces[:prefix]
        out = self.faces[:prefix][~dead]
        out.setflags(write=False)
        return out

    def face_count_at_step(self, step: int) -> int:
        self._check_step(step)
        return int(self.face_counts[step])

    def records_through_step(self, step: int) -> int:
        """Removal records reinserted to reach ``step`` (decode work)."""
        self._check_step(step)
        return int(self.cum_records[step])

    # Tables are plain immutable arrays; define the pickle protocol
    # explicitly so the process backend's spill transport stays stable
    # even if derived caches are ever added to instances.
    def __getstate__(self):
        return {
            "faces": self.faces, "birth": self.birth, "death": self.death,
            "face_counts": self.face_counts, "cum_records": self.cum_records,
            "failed_step": self.failed_step, "failure": self.failure,
        }

    def __setstate__(self, state):
        self.__init__(**state)


def compile_lod_table(base_faces: np.ndarray, rounds) -> LODTable:
    """Compile base faces plus removal rounds into a :class:`LODTable`.

    ``rounds`` is in encode order (as stored on
    :class:`~repro.compression.ppvp.CompressedObject`); decode step ``s``
    replays ``rounds[len(rounds) - s]``. Tries the vectorized event-stream
    compiler first and falls back to the sequential replay builder when
    the records are inconsistent (the fallback reproduces the legacy
    decoder's exact failure step and error).
    """
    base = np.ascontiguousarray(np.asarray(base_faces, dtype=np.int64).reshape(-1, 3))
    decode_rounds = tuple(rounds)[::-1]
    table = _compile_vectorized(base, decode_rounds)
    if table is None:
        table = _compile_sequential(base, decode_rounds)
    return table


# -- vectorized compiler ------------------------------------------------------


def _pack_keys(faces: np.ndarray) -> np.ndarray:
    """One int64 per face: its sorted vertex triple, lexicographically."""
    key = np.sort(faces, axis=1)
    return (key[:, 0] << (2 * _PACK_BITS)) | (key[:, 1] << _PACK_BITS) | key[:, 2]


def _compile_vectorized(base: np.ndarray, decode_rounds) -> LODTable | None:
    """Event-stream compilation; None when the records need the fallback.

    Births (base rows, star fans) and deaths (patch fans) are per-key
    event streams; in any stream a sequential replay accepts, a key's
    events strictly alternate add/remove with increasing steps, so after
    sorting both streams by (key, step) the i-th death of a key pairs
    with its i-th birth. Any violation of the alternation invariants
    means a replay would raise somewhere — exactly when we return None
    and let the sequential builder find the precise failing step.
    """
    num_steps = len(decode_rounds)
    records_per_step = np.zeros(num_steps + 1, dtype=np.int64)
    verts: list[int] = []
    offs: list[int] = []
    lens: list[int] = []
    steps: list[int] = []
    ring_flat: list[int] = []
    for step, records in enumerate(decode_rounds, start=1):
        records_per_step[step] = len(records)
        for record in records:
            ring_tuple = record.ring
            verts.append(record.vertex)
            offs.append(record.apex_offset)
            lens.append(len(ring_tuple))
            steps.append(step)
            ring_flat.extend(ring_tuple)

    k = np.asarray(lens, dtype=np.int64)
    if len(k) and bool((k < 3).any()):
        return None  # degenerate rings: let the sequential builder decide
    off = np.asarray(offs, dtype=np.int64)
    if len(off) and bool(((off < 0) | (off >= np.maximum(k, 1))).any()):
        return None  # rotation semantics differ for out-of-range offsets
    vert = np.asarray(verts, dtype=np.int64)
    step_of = np.asarray(steps, dtype=np.int64)
    ring = np.asarray(ring_flat, dtype=np.int64)
    starts = np.zeros(len(k), dtype=np.int64)
    if len(k):
        starts[1:] = np.cumsum(k[:-1])

    # Star fans, record order: (vertex, ring[i], ring[(i + 1) % k]).
    n_star = int(k.sum())
    rec_s = np.repeat(np.arange(len(k)), k)
    pos = np.arange(n_star) - starts[rec_s]
    star = np.empty((n_star, 3), dtype=np.int64)
    star[:, 0] = vert[rec_s]
    star[:, 1] = ring
    star[:, 2] = ring[starts[rec_s] + (pos + 1) % np.maximum(k[rec_s], 1)]

    # Patch fans: with loop = ring rotated to start at the apex, the
    # faces are (apex, loop[j], loop[j + 1]) for j = 1..k-2.
    fan = k - 2
    n_patch = int(fan.sum())
    rec_p = np.repeat(np.arange(len(k)), fan)
    pstarts = np.zeros(len(k), dtype=np.int64)
    if len(k):
        pstarts[1:] = np.cumsum(fan[:-1])
    j = np.arange(n_patch) - pstarts[rec_p] + 1
    seg = starts[rec_p]
    seg_k = k[rec_p]
    seg_off = off[rec_p]
    removed = np.empty((n_patch, 3), dtype=np.int64)
    removed[:, 0] = ring[seg + seg_off]
    removed[:, 1] = ring[seg + (seg_off + j) % seg_k]
    removed[:, 2] = ring[seg + (seg_off + j + 1) % seg_k]
    dsteps = step_of[rec_p]

    faces = np.concatenate([base, star], axis=0)
    birth = np.concatenate([np.zeros(len(base), dtype=np.int64), step_of[rec_s]])

    all_ids = (faces, removed)
    for ids in all_ids:
        if ids.size and (ids.min() < 0 or ids.max() >= _PACK_LIMIT):
            return None

    bkeys = _pack_keys(faces)
    death = np.full(len(faces), ALIVE, dtype=np.int64)

    border = np.lexsort((birth, bkeys))
    sb_keys = bkeys[border]
    sb_steps = birth[border]
    # A key born twice without an intervening death would make a replay
    # raise "already present" — alternation requires strictly increasing
    # birth steps per key.
    if len(sb_keys) > 1 and bool(
        ((sb_keys[1:] == sb_keys[:-1]) & (sb_steps[1:] <= sb_steps[:-1])).any()
    ):
        return None

    if len(removed):
        dkeys = _pack_keys(removed)
        dorder = np.lexsort((dsteps, dkeys))
        sd_keys = dkeys[dorder]
        sd_steps = dsteps[dorder]
        first_birth = np.searchsorted(sb_keys, sd_keys, side="left")
        group_start = np.searchsorted(sd_keys, sd_keys, side="left")
        match = first_birth + (np.arange(len(sd_keys)) - group_start)
        if bool((match >= len(sb_keys)).any()):
            return None
        if bool((sb_keys[match] != sd_keys).any()):
            return None  # death of a key never (or not often enough) born
        if bool((sb_steps[match] >= sd_steps).any()):
            return None  # death before (or at) its birth step
        nxt = np.minimum(match + 1, len(sb_keys) - 1)
        early_rebirth = (
            (match + 1 < len(sb_keys))
            & (sb_keys[nxt] == sd_keys)
            & (sb_steps[nxt] <= sd_steps)
        )
        if bool(early_rebirth.any()):
            return None
        death[border[match]] = sd_steps

    born_per_step = np.bincount(birth, minlength=num_steps + 1)
    dead_per_step = np.bincount(dsteps, minlength=num_steps + 1)
    face_counts = (np.cumsum(born_per_step) - np.cumsum(dead_per_step)).astype(np.int64)
    return LODTable(
        faces=faces,
        birth=birth.astype(np.int32),
        death=death.astype(np.int32),
        face_counts=face_counts,
        cum_records=np.cumsum(records_per_step),
    )


# -- sequential fallback ------------------------------------------------------


def _replay_steps(
    faces: list, birth: list, death: list, live: dict,
    face_counts: list, records_per_step: list, steps_rounds,
) -> tuple[int | None, Exception | None]:
    """Replay decode steps 1, 2, ... record by record, mutating the builder lists.

    On an inconsistent record the whole step rolls back (the table stays
    exactly at the previous step) and the original error is returned so
    the decoder can re-raise it for any request at or past that step.
    """
    for offset, records in enumerate(steps_rounds):
        step = offset + 1
        killed_rows: list[int] = []
        appended_from = len(faces)
        try:
            for record in records:
                for face in record.patch_faces():
                    key = tuple(sorted(face))
                    row = live.pop(key, None)
                    if row is None:
                        raise KeyError(f"no face over vertices {key}")
                    death[row] = step
                    killed_rows.append(row)
                for face in record.star_faces():
                    key = tuple(sorted(face))
                    if key in live:
                        raise ValueError(f"face over vertices {key} already present")
                    live[key] = len(faces)
                    faces.append(face)
                    birth.append(step)
                    death.append(ALIVE)
        except Exception as exc:
            for row in killed_rows:
                death[row] = ALIVE
            del faces[appended_from:]
            del birth[appended_from:]
            del death[appended_from:]
            live.clear()
            live.update(
                (tuple(sorted(face)), row)
                for row, face in enumerate(faces)
                if death[row] == ALIVE
            )
            remaining = len(steps_rounds) - offset
            face_counts.extend([face_counts[-1]] * remaining)
            records_per_step.extend([0] * remaining)
            return step, exc
        face_counts.append(len(live))
        records_per_step.append(len(records))
    return None, None


def _compile_sequential(base: np.ndarray, decode_rounds) -> LODTable:
    """Record-by-record builder: exact legacy replay failure semantics."""
    faces: list[tuple[int, int, int]] = []
    birth: list[int] = []
    death: list[int] = []
    live: dict[tuple[int, int, int], int] = {}
    for face in map(tuple, base.tolist()):
        key = tuple(sorted(face))
        if key in live:
            # Matches EditableMesh.add_face at decoder construction.
            raise ValueError(f"face over vertices {key} already present")
        live[key] = len(faces)
        faces.append(face)
        birth.append(0)
        death.append(ALIVE)
    face_counts = [len(faces)]
    records_per_step = [0]
    failed_step, failure = _replay_steps(
        faces, birth, death, live, face_counts, records_per_step, decode_rounds,
    )
    return LODTable(
        faces=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
        birth=np.asarray(birth, dtype=np.int32),
        death=np.asarray(death, dtype=np.int32),
        face_counts=np.asarray(face_counts, dtype=np.int64),
        cum_records=np.cumsum(np.asarray(records_per_step, dtype=np.int64)),
        failed_step=failed_step,
        failure=failure,
    )
