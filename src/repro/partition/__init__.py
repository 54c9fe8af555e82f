"""Skeleton-based partitioning of complex objects (paper Section 5.1).

A complex object (e.g. a bifurcated vessel) is decomposed into simple
sub-objects: skeleton points are extracted from the geometry, every face
of the highest-LOD mesh is assigned to its nearest skeleton point, and
each group is approximated by its own MBB. Indexing those boxes
instead of one object-wide MBB tightens the filter step and confines
refinement to the sub-objects that can actually matter.
"""

from repro.partition.partitioner import PARTS, ObjectPartition, SubObject, partition_faces
from repro.partition.skeleton import extract_skeleton

__all__ = [
    "PARTS",
    "ObjectPartition",
    "SubObject",
    "partition_faces",
    "extract_skeleton",
]
