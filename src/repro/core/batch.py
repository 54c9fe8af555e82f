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
  row-major order :func:`~repro.parallel.tasks.iter_pair_blocks` always
  used;
* each *wave* takes at most one sub-block from every unsettled job;
* every wave ends with a flush, and a job's settle state is re-checked
  only at wave boundaries — before its next sub-block can be enqueued.

A job therefore evaluates exactly ``ceil`` of its own settle point in
sub-blocks, **independent of which other jobs share the batch**. That is
what keeps ``face_pairs_by_lod`` identical between the serial run and
any chunked parallel run (thread or process backend), where the same
jobs are batched in different groupings.

``checkpoint`` (when given) runs after every flush; the refine layer
points it at the deadline check + worker heartbeat, which is the batched
path's cooperative-cancellation granularity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.distance import tri_tri_distance_batch
from repro.geometry.tritri import tri_tri_intersect_batch
from repro.parallel.tasks import iter_pair_blocks

__all__ = ["batched_any_intersect", "batched_min_distances"]

#: Floor for early-exit sub-blocks on the distance path: below this the
#: wave bookkeeping dominates; above it too many lanes are wasted past
#: the threshold crossing.
_EXIT_BLOCK_FLOOR = 512


def _lane_box_gap_sq(tris_a: np.ndarray, tris_b: np.ndarray) -> np.ndarray:
    """Squared AABB gap per lane — an exact lower bound on lane distance."""
    lo_a = tris_a.min(axis=1)
    hi_a = tris_a.max(axis=1)
    lo_b = tris_b.min(axis=1)
    hi_b = tris_b.max(axis=1)
    gap = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
    return (gap * gap).sum(axis=1)


def _screened_intersect(tris_a, tris_b, starts) -> np.ndarray:
    """SAT tests only on lanes whose triangle AABBs overlap.

    Disjoint boxes cannot hold intersecting triangles, so screening is
    exact; the screen is a pure per-lane function, so verdicts never
    depend on batch composition.
    """
    overlap = _lane_box_gap_sq(tris_a, tris_b) <= 0.0
    out = np.zeros(len(tris_a), dtype=bool)
    if overlap.any():
        out[overlap] = tri_tri_intersect_batch(tris_a[overlap], tris_b[overlap])
    return out


def _screened_distance(tris_a, tris_b, starts) -> np.ndarray:
    """Exact distances only on lanes that can decide their segment's min.

    Per lane, the AABB gap lower-bounds the true distance and the
    first-vertex pair distance upper-bounds it. A lane whose lower bound
    exceeds its segment's smallest upper bound cannot realize the
    segment minimum (the minimizing lane's lower bound never does), so
    it is reported as ``inf`` — the ``minimum.reduceat`` downstream is
    unchanged, and every segment keeps at least the lane that decides
    it. Bounds and cap are pure functions of the lane and its own
    sub-block, so screening never depends on batch composition.
    """
    lb_sq = _lane_box_gap_sq(tris_a, tris_b)
    delta = tris_a[:, 0] - tris_b[:, 0]
    ub_sq = (delta * delta).sum(axis=1)
    seg_ub = np.minimum.reduceat(ub_sq, starts)
    lengths = np.diff(np.append(starts, len(tris_a)))
    keep = lb_sq <= np.repeat(seg_ub, lengths)
    out = np.full(len(tris_a), np.inf)
    if keep.any():
        out[keep] = tri_tri_distance_batch(
            tris_a[keep], tris_b[keep], check_intersection=False
        )
    return out


def _run_waves(computer, jobs, *, block, kernel, reduce_segments, fold, init,
               settled, stats, checkpoint):
    """Drive all jobs to their settle points through fused flushes.

    ``kernel(tris_a, tris_b)`` evaluates one concatenated flush;
    ``reduce_segments(values, starts)`` collapses it to one value per
    contributed sub-block; ``fold(acc, value)`` merges a sub-block's
    value into its owner's accumulator (seeded with ``init``); and
    ``settled(acc)`` decides, at wave boundaries, whether a job needs no
    further sub-blocks.
    """
    results = [init] * len(jobs)
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
        tris_a = np.concatenate(buf_a)
        tris_b = np.concatenate(buf_b)
        pairs_seen += len(tris_a)
        computer._note_batch(len(tris_a))
        lengths = [len(chunk) for chunk in buf_a]
        starts = np.zeros(len(lengths), dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        values = kernel(tris_a, tris_b, starts)
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
            tris_a, tris_b = jobs[job_id]
            buf_a.append(tris_a[ii])
            buf_b.append(tris_b[jj])
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

    Equivalent to ``[computer.min_distance(a, b, stop_below=...) for a, b
    in jobs]`` up to early exit: a job stops contributing sub-blocks once
    its running minimum is ``<= stop_below`` (within's threshold settles
    the pair; 0.0 still exits on contact), so non-settling jobs get exact
    minima and settling jobs get a value provably at or under the
    threshold. ``min`` is exact and order-independent in floating point,
    so batch composition never changes a reported distance.
    """
    if stop_below > 0.0:
        block = min(computer.gpu_block, max(computer.cpu_block, _EXIT_BLOCK_FLOOR))
    else:
        block = computer.gpu_block
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
    )
