"""Reference oracle: the per-sub-block lane enumeration of ``repro.core.batch``.

``_FaceScreen`` is how the gather/segment layer buffered lanes before a
look-ahead launch built all of its lanes in one pass
(:meth:`repro.core.batch._FaceTables.launch_lanes`): one ``lanes`` call
per sub-block, each enumerating the sub-block's lane range and masking
it by the job's face masks. It is kept verbatim as ground truth:
``tests/oracles/interleaved_waves.py`` is built on it, and
``tests/test_batch.py::TestLanePass`` checks that one lane pass equals
the concatenation of its per-sub-block answers. Not used on any query
path.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import _FaceTables

__all__ = ["_FaceScreen"]


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
