"""Reference oracle: the interleaved wave loop of ``repro.core.batch``.

This is the wave loop the gather/segment layer shipped before it evaluated
sub-blocks ahead: each wave takes one sub-block from every unsettled
job, the kernel runs whenever ``gpu_block`` face-screened lanes are
buffered and again at every wave's end, and settle state is re-checked
at wave boundaries. It is kept verbatim as ground truth: the look-ahead
loop replays these waves on values it computed ahead, so
``tests/test_batch.py::TestLookAheadMatchesInterleaved`` swaps this
function in for ``repro.core.batch._run_waves`` and asserts the same
values, ``stats["pairs"]``, ``_note_batch`` sizes and checkpoints. Not
used on any query path.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import _FaceTables
from tests.oracles.face_screen import _FaceScreen

__all__ = ["_run_waves"]


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
