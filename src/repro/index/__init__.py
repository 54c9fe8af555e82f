"""Spatial indexes.

The **global R-tree** over object MBBs (filter step, Section 4) with the
distance-range traversals for within and nearest-neighbor queries. The
paper's second index, a per-object AABB-tree over decoded faces
(Section 5.1), lost to the fused face-pair waves of
:mod:`repro.core.batch` on every measured query and is kept only as a
test oracle.
"""

from repro.index.rtree import RTree, RTreeEntry, WithinResult

__all__ = ["RTree", "RTreeEntry", "WithinResult"]
