"""The 3DPro query engine (the paper's primary contribution).

:class:`~repro.core.engine.ThreeDPro` executes spatial joins —
intersection, within, nearest-neighbor, and kNN — over datasets of
PPVP-compressed objects under either query paradigm:

* **FR** (Filter-Refine): filter with the global R-tree, then decode
  every candidate to the highest LOD and refine; the classical baseline.
* **FPR** (Filter-Progressive-Refine): refine candidates progressively
  from low LODs, returning results early whenever the
  progressive-approximation properties allow (Algorithms 1-3).

Neither of the paper's Table 1 accelerations is a switch. Skeleton
partitioning applies, under both paradigms, to every source object of
at least ``EngineConfig.partition_min_faces`` top-LOD faces;
simulated-GPU batching is how every refinement round runs, which is
also why the paper's per-object AABB-trees are not offered (they lost
to it on every query).
"""

from repro.core.config import EngineConfig
from repro.core.deadline import CancellationToken, Deadline
from repro.core.engine import JoinResult, QueryResult, QuerySpec, ThreeDPro
from repro.core.errors import (
    BlobChecksumError,
    CuboidFormatError,
    DatasetFormatError,
    DatasetNotLoadedError,
    DeadlineExceededError,
    DecodeFailureError,
    EngineConfigError,
    EngineError,
    ErrorBudgetExceededError,
    StorageError,
)
from repro.core.lod_select import LODProfile, choose_lod_list, profile_pruning
from repro.core.plan import QueryCompleteness
from repro.core.stats import QueryStats

__all__ = [
    "CancellationToken",
    "Deadline",
    "DeadlineExceededError",
    "EngineConfig",
    "JoinResult",
    "QueryCompleteness",
    "QueryResult",
    "QuerySpec",
    "ThreeDPro",
    "EngineError",
    "EngineConfigError",
    "DatasetNotLoadedError",
    "StorageError",
    "CuboidFormatError",
    "BlobChecksumError",
    "DatasetFormatError",
    "DecodeFailureError",
    "ErrorBudgetExceededError",
    "LODProfile",
    "choose_lod_list",
    "profile_pruning",
    "QueryStats",
]
