"""Gather/segment layer: many (target, source) face-set jobs per kernel call.

The refine stage historically dispatched one Python-level kernel call per
surviving candidate pair. This module batches *across* pairs: every job
contributes fixed-size sub-blocks of its face-pair cross product into a
shared buffer, the buffer is flushed through one fused numpy kernel
(:func:`~repro.geometry.tritri.tri_tri_intersect_batch` /
:func:`~repro.geometry.distance.tri_tri_distance_batch`) once it reaches
the saturating batch size, and per-job results are folded back out with
``np.*.reduceat`` segment reductions over the flush's chunk offsets.

Early exit is per job, via a wave discipline chosen for determinism:

* sub-blocks of a job's cross product are enumerated in the same fixed
  row-major order :func:`~repro.parallel.executor.iter_pair_blocks` always
  used;
* each *wave* takes at most one sub-block from every unsettled job;
* every wave ends with a kernel call on what is buffered, and a job's
  settle state is re-checked only at wave boundaries — before its next
  sub-block can be enqueued.

A job therefore evaluates exactly ``ceil`` of its own settle point in
sub-blocks, **independent of which other jobs share the batch**. That is
what keeps ``face_pairs_by_lod`` identical between the serial run and
any chunked process-backend run, where the same jobs are batched in
different groupings.

Faces are screened before lanes. Each call builds per-face tables once
(:class:`_FaceTables`): every distinct face set's AABB corners and first
vertices, stacked, plus each set's overall box; a target's face set is
shared by all of its jobs and tabled once. Before any sub-block is
enumerated, every job whose cross product spans more than one sub-block
gets a row mask and a column mask, built as segment operations over the
stacked tables (a job that fits in one sub-block is bounded over its
whole cross product by its sub-block's lane screen): a face survives
when the gap from its box to the *other* set's box is within the job's
cap — within's query distance, or for NN / kNN / FR (``stop_below ==
0``) a realized face-pair distance ``U`` found in O(F) per job, each
plus a pad for the kernel's rounding. Only lanes whose two faces
survive are buffered, as face-row index pairs rather than copied
triangles.
Intersection builds no masks: its jobs mostly settle in their first
sub-block, and its lane screen already drops every lane whose face
boxes are disjoint.

The buffered lanes are then screened per lane: a flush takes each lane's
AABB-gap lower bound and first-vertex upper bound from the tables and
gathers ``(n, 3, 3)`` triangles only for the lanes that pass. A lane
also passes only under its job's cap; on the within path (``stop_below
> 0``) that drops every lane that can never settle its job, so within
verdicts are unchanged while a job that does not settle reports some
value above the distance rather than its exact minimum. On the nearest
path it drops lanes that cannot realize the job's minimum, so every
value stays exact. Every screen is a pure function of the lane, its job
and its own sub-block.

Accounting counts lanes *before* screening: ``stats["pairs"]`` (and so
``face_pairs_by_lod``), each flush's ``_note_batch`` size and the
settle waves are those of an unscreened run, while the kernel runs only
once ``gpu_block`` survivors are buffered (or a wave ends), so it is
called less often with fuller batches.

``checkpoint`` (when given) runs after every flush — every ``gpu_block``
enumerated lanes and at each wave's end; the refine layer points it at
the deadline check + worker heartbeat, which is the batched path's
cooperative-cancellation granularity.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch

__all__ = ["batched_any_intersect", "batched_min_distances"]

#: Floor for early-exit sub-blocks on the distance path: below this the
#: wave bookkeeping dominates; above it too many lanes are wasted past
#: the threshold crossing.
_EXIT_BLOCK_FLOOR = 512

#: Pad on the within cap, times a job's largest coordinate magnitude.
#: The exact kernel's rounding can place a lane's distance an ulp or so
#: of that magnitude below its box gap (measured: at most 3.9e-17 of
#: it); 2**-40 covers that by four orders of magnitude.
_CAP_PAD = 2.0 ** -40


class _FaceTables:
    """Per-face screening tables for every face set of one call's jobs.

    Each distinct face set is stacked once, by identity: a target's
    ``dec_t.triangles`` is shared by all of its jobs, so its table is
    built once per call. ``lo`` / ``hi`` are the faces' AABB corners and
    ``v0`` their first vertices, all ``(F, 3)``; ``tris`` holds the
    triangles themselves, gathered only for lanes that pass a screen.
    ``offsets[job]`` maps a job's local face indices on its two sides to
    stacked rows, and ``widths[job]`` is its second set's face count.

    The distance paths also read each set's overall box
    (``set_boxes``), each job's rounding ``pad``, and ``rows``: per
    ``spanning`` job — one whose cross product is longer than ``block``
    lanes, so more than one sub-block — the stacked rows of its first
    and second set, concatenated and cut at segment bounds. Only those
    jobs are face-screened: a job that fits in one sub-block is bounded
    by its sub-block's first-vertex screen over its whole cross product
    already. The tables are built on first use, and every per-job screen
    is a segment operation over them, never a per-job loop.
    """

    def __init__(self, jobs, block: int = 0):
        index: dict[int, int] = {}
        self.sets: list[np.ndarray] = []
        job_sets = []
        for pair in jobs:
            for tris in pair:
                if id(tris) not in index:
                    index[id(tris)] = len(self.sets)
                    self.sets.append(tris)
            job_sets.append((index[id(pair[0])], index[id(pair[1])]))
        self.sizes = np.array([len(tris) for tris in self.sets], dtype=np.intp)
        self.first = np.zeros(len(self.sets) + 1, dtype=np.intp)
        np.cumsum(self.sizes, out=self.first[1:])
        self.offsets = [(self.first[a], self.first[b]) for a, b in job_sets]
        self.widths = [len(tris_b) for _tris_a, tris_b in jobs]
        filled = [tris for tris in self.sets if len(tris)]
        self.tris = np.concatenate(filled) if filled else np.zeros((0, 3, 3))
        v0, v1, v2 = self.tris[:, 0], self.tris[:, 1], self.tris[:, 2]
        self.lo = np.minimum(np.minimum(v0, v1), v2)
        self.hi = np.maximum(np.maximum(v0, v1), v2)
        self.v0 = np.ascontiguousarray(v0)
        self._job_sets = job_sets
        self._block = block

    @cached_property
    def side_a(self) -> np.ndarray:
        return np.array([a for a, _ in self._job_sets], dtype=np.intp)

    @cached_property
    def side_b(self) -> np.ndarray:
        return np.array([b for _, b in self._job_sets], dtype=np.intp)

    @cached_property
    def spanning(self) -> np.ndarray:
        lanes = self.sizes[self.side_a] * self.sizes[self.side_b]
        return np.flatnonzero(lanes > self._block)

    @cached_property
    def set_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each set's overall box ``(lo, hi)``; ``(inf, -inf)`` if empty."""
        set_lo = np.full((len(self.sets), 3), np.inf)
        set_hi = np.full((len(self.sets), 3), -np.inf)
        stocked = self.sizes > 0
        if stocked.any():
            starts = self.first[:-1][stocked]
            set_lo[stocked] = np.minimum.reduceat(self.lo, starts, axis=0)
            set_hi[stocked] = np.maximum.reduceat(self.hi, starts, axis=0)
        return set_lo, set_hi

    @cached_property
    def pad(self) -> np.ndarray:
        """Per job, ``_CAP_PAD`` times its largest coordinate magnitude."""
        # A set's |tris|.max(), read off its box; 0 for an empty set.
        set_lo, set_hi = self.set_boxes
        magnitude = np.where(self.sizes > 0, np.maximum(-set_lo, set_hi).max(axis=1), 0.0)
        return _CAP_PAD * np.maximum(magnitude[self.side_a], magnitude[self.side_b])

    @cached_property
    def rows(self):
        """``((rows_a, bounds_a), (rows_b, bounds_b))`` over the spanning jobs."""
        return tuple(self._rows(side[self.spanning]) for side in (self.side_a, self.side_b))

    def _rows(self, sets):
        sizes = self.sizes[sets]
        bounds = np.zeros(len(sets) + 1, dtype=np.intp)
        np.cumsum(sizes, out=bounds[1:])
        rows = np.arange(bounds[-1]) + np.repeat(self.first[sets] - bounds[:-1], sizes)
        return rows, bounds

    def caps(self, distance: float) -> np.ndarray:
        """Per job, the within cap: ``distance`` plus the rounding pad."""
        return distance + self.pad

    def nearest_caps(self) -> np.ndarray:
        """Per job, a realized face-pair distance ``U`` plus the pad.

        ``U`` is the exact kernel's own output on two lanes of the job,
        so it is at least the job's kernel minimum, and a lane whose box
        gap exceeds ``U + pad`` cannot realize that minimum. The two
        lanes are found in O(F) by alternating nearest first vertices,
        once from each side (:meth:`_walk`).
        """
        out = np.full(len(self.side_a), np.inf)
        spanning = self.spanning
        if len(spanning):
            rows_a, rows_b = self._walk(*self.rows, self.side_b[spanning])
            back_b, back_a = self._walk(*self.rows[::-1], self.side_a[spanning])
            values = tri_tri_distance_batch(
                self.tris.take(np.concatenate([rows_a, back_a]), axis=0),
                self.tris.take(np.concatenate([rows_b, back_b]), axis=0),
                check_intersection=False,
            )
            out[spanning] = np.minimum(values[:len(spanning)], values[len(spanning):])
        return out + self.pad

    def _walk(self, near, far, far_sets):
        """Per spanning job, stacked rows ``(i, j)``: the near side's face
        whose first vertex is nearest the centre of the far set's box,
        the far side's nearest to that vertex, the near side's nearest
        to that one. ``near`` / ``far`` are ``(rows, bounds)``."""
        (rows_near, bounds_near), (rows_far, bounds_far) = near, far
        set_lo, set_hi = self.set_boxes
        centre = (set_lo[far_sets] + set_hi[far_sets]) * 0.5
        i = self._nearest(rows_near, bounds_near, centre)
        j = self._nearest(rows_far, bounds_far, self.v0.take(i, axis=0))
        i = self._nearest(rows_near, bounds_near, self.v0.take(j, axis=0))
        return i, j

    def _nearest(self, rows, bounds, points):
        """Per segment, the row of its first vertex nearest its point."""
        lengths = np.diff(bounds)
        dist_sq = _sum_sq(self.v0.take(rows, axis=0) - np.repeat(points, lengths, axis=0))
        best = np.minimum.reduceat(dist_sq, bounds[:-1])
        hits = np.flatnonzero(dist_sq == np.repeat(best, lengths))
        return rows[hits[np.searchsorted(hits, bounds[:-1])]]

    def face_masks(self, caps) -> tuple[np.ndarray, np.ndarray]:
        """Per spanning job, which faces of each side can reach a lane.

        A face survives when the gap from its box to the *other* set's
        box is within its job's cap, compared in sqrt space like the
        lane cap. That gap never exceeds the gap to any one face of the
        other set — every term is rounded monotonically — so no lane the
        lane cap would keep loses a face here.
        """
        (rows_a, bounds_a), (rows_b, bounds_b) = self.rows
        spanning = self.spanning
        return (
            self._reaches(rows_a, bounds_a, self.side_b[spanning], caps[spanning]),
            self._reaches(rows_b, bounds_b, self.side_a[spanning], caps[spanning]),
        )

    def _reaches(self, rows, bounds, other, caps) -> np.ndarray:
        lengths = np.diff(bounds)
        set_lo, set_hi = self.set_boxes
        gap = np.maximum(
            self.lo.take(rows, axis=0) - np.repeat(set_hi[other], lengths, axis=0),
            np.repeat(set_lo[other], lengths, axis=0) - self.hi.take(rows, axis=0),
        )
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        gap_sq = gap[:, 0] + gap[:, 1] + gap[:, 2]
        return np.sqrt(gap_sq) <= np.repeat(caps, lengths)


def _sum_sq(delta: np.ndarray) -> np.ndarray:
    """Squared norms of ``(n, 3)`` rows, summed in x, y, z order."""
    delta = delta * delta
    return delta[:, 0] + delta[:, 1] + delta[:, 2]


class _FaceScreen:
    """Which lanes of each job's sub-blocks reach the buffers.

    With per-job ``caps`` (the distance paths), built from
    :meth:`_FaceTables.face_masks`; without (intersection, whose jobs
    mostly settle in their first sub-block), every lane is buffered and
    the per-lane box screen alone decides. ``lanes`` returns a
    sub-block's surviving ``(ii, jj)`` local index pairs in row-major
    order, or None when none survive; whole masked rows are skipped
    without building the sub-block's index arrays.
    """

    def __init__(self, faces: _FaceTables, caps=None):
        self.widths = faces.widths
        self.masks: dict[int, tuple] = {}
        if caps is None or not len(faces.spanning):
            return
        keep_a, keep_b = faces.face_masks(caps)
        (_, bounds_a), (_, bounds_b) = faces.rows
        count_a = np.add.reduceat(keep_a, bounds_a[:-1]).tolist()
        count_b = np.add.reduceat(keep_b, bounds_b[:-1]).tolist()
        bounds_a, bounds_b = bounds_a.tolist(), bounds_b.tolist()
        flags = keep_a.tolist()
        for k, job_id in enumerate(faces.spanning.tolist()):
            lo_a, hi_a = bounds_a[k], bounds_a[k + 1]
            lo_b, hi_b = bounds_b[k], bounds_b[k + 1]
            if count_a[k] == hi_a - lo_a and count_b[k] == hi_b - lo_b:
                continue  # every face survives: nothing to mask
            # With no column left, no row has a lane.
            rows = flags[lo_a:hi_a] if count_b[k] else [False] * (hi_a - lo_a)
            self.masks[job_id] = (rows, keep_a[lo_a:hi_a], keep_b[lo_b:hi_b])

    def lanes(self, job_id: int, start: int, stop: int):
        width = self.widths[job_id]
        masks = self.masks.get(job_id)
        if masks is None:
            return np.divmod(np.arange(start, stop), width)
        rows, keep_a, keep_b = masks
        if not any(rows[start // width:(stop - 1) // width + 1]):
            return None
        ii, jj = np.divmod(np.arange(start, stop), width)
        keep = keep_a.take(ii)
        keep &= keep_b.take(jj)
        if not keep.any():
            return None
        return ii[keep], jj[keep]


def _lane_gap_sq(faces: _FaceTables, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Squared AABB gap per lane — an exact lower bound on lane distance."""
    gap = np.maximum(
        faces.lo.take(ia, axis=0) - faces.hi.take(ib, axis=0),
        faces.lo.take(ib, axis=0) - faces.hi.take(ia, axis=0),
    )
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return gap[:, 0] + gap[:, 1] + gap[:, 2]


def _screened_intersect(faces: _FaceTables, ia, ib, starts, owners=None, cap=None) -> np.ndarray:
    """SAT tests only on lanes whose face AABBs overlap.

    Disjoint boxes cannot hold intersecting triangles, so screening is
    exact; the screen is a pure per-lane function, so verdicts never
    depend on batch composition. Triangles are gathered only for the
    lanes that pass. Intersection has no cap; ``owners`` and ``cap``
    are unused.
    """
    overlap = _lane_gap_sq(faces, ia, ib) <= 0.0
    out = np.zeros(len(ia), dtype=bool)
    if overlap.any():
        out[overlap] = tri_tri_intersect_batch(
            faces.tris.take(ia[overlap], axis=0), faces.tris.take(ib[overlap], axis=0)
        )
    return out


def _screened_distance(
    faces: _FaceTables, ia, ib, starts, owners=None, cap=None, crossing_above=None
) -> np.ndarray:
    """Exact distances only on lanes that can decide their segment's min.

    Per lane, the AABB gap lower-bounds the true distance and the
    first-vertex pair distance upper-bounds it. A lane whose lower bound
    exceeds its segment's smallest upper bound plus its job's pad cannot
    realize the segment minimum (the minimizing lane's lower bound never
    does; the pad covers the kernel's rounding, which can place two
    lanes an ulp apart in either order), so it is reported as ``inf`` —
    the ``minimum.reduceat`` downstream is unchanged, and every segment
    keeps at least the lane that decides it. ``cap`` (per segment) also
    drops every lane whose lower bound exceeds it: within's query
    distance plus the pad (such a lane can never settle its job), or a
    job's realized first-vertex distance plus the pad (such a lane
    cannot realize the job's minimum). Both tests compare in sqrt
    space. ``owners`` maps segments to jobs (default: segment ``k`` is
    job ``k``). Bounds and caps are pure functions of the lane, its job
    and its own sub-block's survivors, so screening never depends on
    batch composition. With ``crossing_above`` set, a lane whose face
    boxes overlap (lower bound 0, so it always passes the screen) and
    that reads above it is also SAT-tested, and reads 0 when its
    triangles cross; a lane at or under it already settles its job.
    """
    if owners is None:
        owners = np.arange(len(starts))
    lb = np.sqrt(_lane_gap_sq(faces, ia, ib))
    delta = faces.v0.take(ia, axis=0) - faces.v0.take(ib, axis=0)
    delta *= delta
    ub_sq = delta[:, 0] + delta[:, 1] + delta[:, 2]
    limit = np.sqrt(np.minimum.reduceat(ub_sq, starts)) + faces.pad[owners]
    if cap is not None:
        np.minimum(limit, cap, out=limit)
    lengths = np.diff(np.append(starts, len(ia)))
    keep = lb <= np.repeat(limit, lengths)
    out = np.full(len(ia), np.inf)
    if keep.any():
        out[keep] = tri_tri_distance_batch(
            faces.tris.take(ia[keep], axis=0), faces.tris.take(ib[keep], axis=0),
            check_intersection=False,
        )
    if crossing_above is not None:
        touching = np.flatnonzero((lb == 0.0) & (out > crossing_above))
        if len(touching):
            crossing = tri_tri_intersect_batch(
                faces.tris.take(ia[touching], axis=0), faces.tris.take(ib[touching], axis=0)
            )
            out[touching[crossing]] = 0.0
    return out


def _run_waves(computer, jobs, *, block, kernel, reduce_segments, fold, init,
               settled, stats, checkpoint, caps=None):
    """Drive all jobs to their settle points through fused flushes.

    ``caps(faces)`` gives each job's cap (intersection has none).
    Sub-blocks are enumerated as always, but with caps only lanes whose
    two faces pass :meth:`_FaceTables.face_masks` are buffered, as
    stacked face-row index pairs; ``kernel(faces, ia, ib, starts,
    owners, cap)`` screens and evaluates one concatenated buffer
    (``owners`` holds each sub-block's job, ``cap`` its job cap or
    None); ``reduce_segments(values, starts)`` collapses it to one value
    per contributed sub-block; ``fold(acc, value)`` merges a sub-block's
    value into its owner's accumulator (seeded with ``init``); and
    ``settled(acc)`` decides, at wave boundaries, whether a job needs no
    further sub-blocks.

    Accounting follows the enumerated lanes, not the survivors: every
    ``gpu_block`` enumerated lanes (and at each wave's end) make one
    flush — one ``_note_batch`` and one ``checkpoint`` — exactly as if
    no face were screened, and ``stats["pairs"]`` counts them all. The
    kernel runs whenever ``gpu_block`` survivors are buffered, and at
    each wave's end.
    """
    results = [init] * len(jobs)
    faces = _FaceTables(jobs, block)
    job_caps = None if caps is None else caps(faces)
    screen_lanes = _FaceScreen(faces, job_caps).lanes
    offsets = faces.offsets
    capacity = max(1, computer.gpu_block)
    total = [len(tris_a) * len(tris_b) for tris_a, tris_b in jobs]
    cursor = [0] * len(jobs)
    buf_a: list[np.ndarray] = []
    buf_b: list[np.ndarray] = []
    owners: list[int] = []
    filled = 0
    enumerated = 0
    pairs_seen = 0

    def evaluate():
        nonlocal filled
        if not buf_a:
            return
        ia = np.concatenate(buf_a)
        ib = np.concatenate(buf_b)
        lengths = [len(chunk) for chunk in buf_a]
        starts = np.zeros(len(lengths), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        cap = None if job_caps is None else job_caps[owners]
        values = kernel(faces, ia, ib, starts, owners, cap)
        segments = reduce_segments(values, starts)
        for owner, value in zip(owners, segments):
            results[owner] = fold(results[owner], value)
        buf_a.clear()
        buf_b.clear()
        owners.clear()
        filled = 0

    def flush():
        nonlocal enumerated, pairs_seen
        if not enumerated:
            return
        pairs_seen += enumerated
        computer._note_batch(enumerated)
        enumerated = 0
        if checkpoint is not None:
            checkpoint()

    active = list(range(len(jobs)))
    while active:
        alive = []
        for job_id in active:
            start = cursor[job_id]
            if start >= total[job_id]:
                continue  # cross product exhausted; result is final
            stop = min(start + block, total[job_id])
            cursor[job_id] = stop
            enumerated += stop - start
            alive.append(job_id)
            lanes = screen_lanes(job_id, start, stop)
            if lanes is not None:
                ii, jj = lanes
                row_a, row_b = offsets[job_id]
                buf_a.append(ii + row_a)
                buf_b.append(jj + row_b)
                owners.append(job_id)
                filled += len(ii)
                if filled >= capacity:
                    evaluate()
            if enumerated >= capacity:
                flush()
        # Wave barrier: settle decisions always see every result of the
        # wave, so a job's evaluated-pair count depends only on its own
        # sub-block sequence, never on its batch neighbors.
        evaluate()
        flush()
        active = [job_id for job_id in alive if not settled(results[job_id])]

    if stats is not None:
        stats["pairs"] = stats.get("pairs", 0) + pairs_seen
    return results


def batched_any_intersect(computer, jobs, stats=None, checkpoint=None) -> list[bool]:
    """Per job, whether any face pair between its two sets intersects.

    Equivalent to ``[computer.intersects(a, b) for a, b in jobs]`` but in
    a handful of fused kernel calls. Intersection hits are early-exit
    dominated (positives usually land in the first blocks), so jobs
    contribute CPU-block-sized sub-blocks per wave; a job stops once a
    wave proves a hit. Jobs with an empty side contribute nothing and
    report ``False``, matching the per-pair kernel.
    """
    return _run_waves(
        computer,
        jobs,
        block=max(1, computer.cpu_block),
        kernel=_screened_intersect,
        reduce_segments=lambda values, starts: np.logical_or.reduceat(values, starts),
        fold=lambda acc, value: acc or bool(value),
        init=False,
        settled=lambda acc: acc,
        stats=stats,
        checkpoint=checkpoint,
    )


def batched_min_distances(
    computer, jobs, stop_below: float = 0.0, stats=None, checkpoint=None,
    check_intersection: bool = False,
) -> list[float]:
    """Per job, the minimum face-pair distance between its two sets.

    With ``stop_below == 0.0`` (NN, kNN, FR) this equals ``[computer.
    min_distance(a, b) for a, b in jobs]``: every value is the job's
    exact minimum, bit for bit (a job still stops at contact, 0.0).
    In a job longer than one sub-block, faces whose box gap to the
    other set's box exceeds the job's realized face-pair distance ``U``
    (plus the pad) never reach the kernel: ``U`` is at least the
    kernel's minimum, and the minimizing lane's faces lie no farther
    than that from the other set. With
    ``stop_below > 0.0`` (within's query distance) the call answers only
    ``value <= stop_below``. A job stops contributing sub-blocks once its
    running minimum is at or under the threshold, and reports a value
    that is: a realized face-pair distance at or under it (the job
    settled); or some value above it, possibly ``inf``, when it does not
    settle — lanes whose AABB gap already exceeds the threshold are never
    sent to the exact kernel, so such a job's reported value need not be
    its exact minimum. ``min`` is exact and order-independent in floating
    point and every screen is a per-lane function, so batch composition
    never changes a reported value.

    The kernel skips the triangle intersection test, so two face sets
    whose surfaces cross read the smallest feature-pair distance, not 0.
    ``check_intersection`` runs that test on every lane whose face boxes
    overlap, the only lanes that can cross, and reads 0 for a crossing
    job: within's top-LOD round, which rejects what reads above ``D``.
    """
    if stop_below > 0.0:
        block = min(computer.gpu_block, max(computer.cpu_block, _EXIT_BLOCK_FLOOR))
        caps = partial(_FaceTables.caps, distance=stop_below)
    else:
        block = computer.gpu_block
        caps = _FaceTables.nearest_caps
    return _run_waves(
        computer,
        jobs,
        block=max(1, block),
        kernel=partial(
            _screened_distance, crossing_above=stop_below if check_intersection else None
        ),
        reduce_segments=lambda values, starts: np.minimum.reduceat(values, starts),
        fold=lambda acc, value: min(acc, float(value)),
        init=math.inf,
        settled=lambda acc: acc <= stop_below,
        stats=stats,
        checkpoint=checkpoint,
        caps=caps,
    )
