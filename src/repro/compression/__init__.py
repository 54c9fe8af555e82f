"""Progressive mesh compression (paper Section 3).

The centerpiece is **PPVP** — Progressive Protruding-Vertex Pruning: a
multi-round decimation codec that only ever removes *protruding*
vertices, so every decoded level of detail is a progressive
approximation (spatial subset) of the original object. That subset
property is what lets the query engine return early from low LODs
(Section 3.2's two query properties).

A PPMC-style baseline codec (unconstrained vertex pruning, as in the
paper's reference [38]) is included to demonstrate that, without the
protruding constraint, neither query property holds.
"""

from repro.compression.classify import (
    classify_vertices,
    patch_is_protruding,
    protruding_fraction,
)
from repro.compression.lodtable import LODTable, compile_lod_table
from repro.compression.ppmc import PPMCEncoder
from repro.compression.ppvp import (
    CompressedObject,
    PPVPEncoder,
    ProgressiveDecoder,
    RemovalRecord,
)
from repro.compression.serialize import (
    deserialize_object,
    serialize_object,
    serialized_segment_sizes,
)

__all__ = [
    "classify_vertices",
    "patch_is_protruding",
    "protruding_fraction",
    "LODTable",
    "compile_lod_table",
    "PPMCEncoder",
    "CompressedObject",
    "PPVPEncoder",
    "ProgressiveDecoder",
    "RemovalRecord",
    "deserialize_object",
    "serialize_object",
    "serialized_segment_sizes",
]
