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
* every wave ends with a flush, and a job's settle state is re-checked
  only at wave boundaries — before its next sub-block can be enqueued.

A job therefore evaluates exactly ``ceil`` of its own settle point in
sub-blocks, **independent of which other jobs share the batch**. That is
what keeps ``face_pairs_by_lod`` identical between the serial run and
any chunked process-backend run, where the same jobs are batched in
different groupings.

Lanes are screened before the exact kernel, and the screen costs faces,
not lanes. Each call builds per-face tables once (:class:`_FaceTables`):
every distinct face set's AABB corners and first vertices, stacked; a
target's face set is shared by all of its jobs and tabled once. The
buffers hold face-row index pairs rather than copied triangles. A flush
takes each lane's AABB-gap lower bound and first-vertex upper bound from
those tables and gathers ``(n, 3, 3)`` triangles only for the lanes that
pass. On the within path (``stop_below > 0``) the screen also drops
every lane whose lower bound exceeds the query distance (plus a pad for
the kernel's rounding); such a lane can never settle its job, so within
verdicts are unchanged while a job that does not settle reports some
value above the distance rather than its exact minimum. Every screen is
a pure function of the lane, its job and its own sub-block.

``checkpoint`` (when given) runs after every flush; the refine layer
points it at the deadline check + worker heartbeat, which is the batched
path's cooperative-cancellation granularity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch
from repro.parallel.executor import iter_pair_blocks

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
    stacked rows.
    """

    def __init__(self, jobs):
        index: dict[int, int] = {}
        self.sets: list[np.ndarray] = []
        self.job_sets: list[tuple[int, int]] = []
        for pair in jobs:
            for tris in pair:
                if id(tris) not in index:
                    index[id(tris)] = len(self.sets)
                    self.sets.append(tris)
            self.job_sets.append((index[id(pair[0])], index[id(pair[1])]))
        first = np.cumsum([0] + [len(tris) for tris in self.sets])
        self.offsets = [(first[a], first[b]) for a, b in self.job_sets]
        filled = [tris for tris in self.sets if len(tris)]
        self.tris = np.concatenate(filled) if filled else np.zeros((0, 3, 3))
        v0, v1, v2 = self.tris[:, 0], self.tris[:, 1], self.tris[:, 2]
        self.lo = np.minimum(np.minimum(v0, v1), v2)
        self.hi = np.maximum(np.maximum(v0, v1), v2)
        self.v0 = np.ascontiguousarray(v0)

    def caps(self, distance: float) -> np.ndarray:
        """Per job, the within cap: ``distance`` plus the rounding pad."""
        magnitude = [float(np.abs(tris).max()) if len(tris) else 0.0 for tris in self.sets]
        return np.array([
            distance + _CAP_PAD * max(magnitude[a], magnitude[b])
            for a, b in self.job_sets
        ])


def _lane_gap_sq(faces: _FaceTables, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Squared AABB gap per lane — an exact lower bound on lane distance."""
    gap = np.maximum(
        faces.lo.take(ia, axis=0) - faces.hi.take(ib, axis=0),
        faces.lo.take(ib, axis=0) - faces.hi.take(ia, axis=0),
    )
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return gap[:, 0] + gap[:, 1] + gap[:, 2]


def _screened_intersect(faces: _FaceTables, ia, ib, starts, cap=None) -> np.ndarray:
    """SAT tests only on lanes whose face AABBs overlap.

    Disjoint boxes cannot hold intersecting triangles, so screening is
    exact; the screen is a pure per-lane function, so verdicts never
    depend on batch composition. Triangles are gathered only for the
    lanes that pass. Intersection has no cap; ``cap`` is always None.
    """
    overlap = _lane_gap_sq(faces, ia, ib) <= 0.0
    out = np.zeros(len(ia), dtype=bool)
    if overlap.any():
        out[overlap] = tri_tri_intersect_batch(
            faces.tris.take(ia[overlap], axis=0), faces.tris.take(ib[overlap], axis=0)
        )
    return out


def _screened_distance(faces: _FaceTables, ia, ib, starts, cap=None) -> np.ndarray:
    """Exact distances only on lanes that can decide their segment's min.

    Per lane, the AABB gap lower-bounds the true distance and the
    first-vertex pair distance upper-bounds it. A lane whose lower bound
    exceeds its segment's smallest upper bound cannot realize the
    segment minimum (the minimizing lane's lower bound never does), so
    it is reported as ``inf`` — the ``minimum.reduceat`` downstream is
    unchanged, and every segment keeps at least the lane that decides
    it. ``cap`` (per segment, within only) also drops every lane whose
    lower bound exceeds it: such a lane's kernel distance exceeds the
    query distance, so it can never settle its job. Bounds and caps are
    pure functions of the lane, its job and its own sub-block, so
    screening never depends on batch composition.
    """
    lb_sq = _lane_gap_sq(faces, ia, ib)
    delta = faces.v0.take(ia, axis=0) - faces.v0.take(ib, axis=0)
    delta *= delta
    ub_sq = delta[:, 0] + delta[:, 1] + delta[:, 2]
    seg_ub = np.minimum.reduceat(ub_sq, starts)
    lengths = np.diff(np.append(starts, len(ia)))
    keep = lb_sq <= np.repeat(seg_ub, lengths)
    if cap is not None:
        keep &= np.sqrt(lb_sq) <= np.repeat(cap, lengths)
    out = np.full(len(ia), np.inf)
    if keep.any():
        out[keep] = tri_tri_distance_batch(
            faces.tris.take(ia[keep], axis=0), faces.tris.take(ib[keep], axis=0),
            check_intersection=False,
        )
    return out


def _run_waves(computer, jobs, *, block, kernel, reduce_segments, fold, init,
               settled, stats, checkpoint, cap_at=None):
    """Drive all jobs to their settle points through fused flushes.

    Sub-blocks are buffered as stacked face-row index pairs;
    ``kernel(faces, ia, ib, starts, cap)`` screens and evaluates one
    concatenated flush (``cap`` holds each sub-block's job cap when
    ``cap_at`` — within's query distance — is given, else None);
    ``reduce_segments(values, starts)`` collapses it to one value per
    contributed sub-block; ``fold(acc, value)`` merges a sub-block's
    value into its owner's accumulator (seeded with ``init``); and
    ``settled(acc)`` decides, at wave boundaries, whether a job needs no
    further sub-blocks.
    """
    results = [init] * len(jobs)
    faces = _FaceTables(jobs)
    job_caps = None if cap_at is None else faces.caps(cap_at)
    capacity = max(1, computer.gpu_block)
    iters = [
        iter_pair_blocks(len(tris_a), len(tris_b), block)
        for tris_a, tris_b in jobs
    ]
    buf_a: list[np.ndarray] = []
    buf_b: list[np.ndarray] = []
    owners: list[int] = []
    filled = 0
    pairs_seen = 0

    def flush():
        nonlocal filled, pairs_seen
        if not buf_a:
            return
        ia = np.concatenate(buf_a)
        ib = np.concatenate(buf_b)
        pairs_seen += len(ia)
        computer._note_batch(len(ia))
        lengths = [len(chunk) for chunk in buf_a]
        starts = np.zeros(len(lengths), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        cap = None if job_caps is None else job_caps[owners]
        values = kernel(faces, ia, ib, starts, cap)
        segments = reduce_segments(values, starts)
        for owner, value in zip(owners, segments):
            results[owner] = fold(results[owner], value)
        buf_a.clear()
        buf_b.clear()
        owners.clear()
        filled = 0
        if checkpoint is not None:
            checkpoint()

    active = list(range(len(jobs)))
    while active:
        alive = []
        for job_id in active:
            step = next(iters[job_id], None)
            if step is None:
                continue  # cross product exhausted; result is final
            ii, jj = step
            row_a, row_b = faces.offsets[job_id]
            buf_a.append(ii + row_a)
            buf_b.append(jj + row_b)
            owners.append(job_id)
            filled += len(ii)
            alive.append(job_id)
            if filled >= capacity:
                flush()
        # Wave barrier: settle decisions always see every result of the
        # wave, so a job's evaluated-pair count depends only on its own
        # sub-block sequence, never on its batch neighbors.
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
    computer, jobs, stop_below: float = 0.0, stats=None, checkpoint=None
) -> list[float]:
    """Per job, the minimum face-pair distance between its two sets.

    With ``stop_below == 0.0`` (NN, kNN, FR) this equals ``[computer.
    min_distance(a, b) for a, b in jobs]``: every value is the job's
    exact minimum (a job still stops at contact, 0.0). With
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
    """
    if stop_below > 0.0:
        block = min(computer.gpu_block, max(computer.cpu_block, _EXIT_BLOCK_FLOOR))
        cap_at = stop_below
    else:
        block = computer.gpu_block
        cap_at = None
    return _run_waves(
        computer,
        jobs,
        block=max(1, block),
        kernel=_screened_distance,
        reduce_segments=lambda values, starts: np.minimum.reduceat(values, starts),
        fold=lambda acc, value: min(acc, float(value)),
        init=math.inf,
        settled=lambda acc: acc <= stop_below,
        stats=stats,
        checkpoint=checkpoint,
        cap_at=cap_at,
    )
