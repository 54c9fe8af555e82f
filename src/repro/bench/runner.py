"""The five paper tests as named runnables (Table 1 rows).

Each test is ``X-YZ``: X the query (INT / WN / NN), Y and Z the target
and source dataset types (N nuclei, V vessels). ``run_test`` builds a
fresh engine for the requested paradigm and Table 1 column, executes the
join, and returns the result (whose stats carry the Table 1 latency and
the Fig. 10/12 breakdowns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.workloads import Workload
from repro.core.config import EngineConfig
from repro.core.engine import JoinResult, ThreeDPro

__all__ = ["TestSpec", "TESTS", "make_engine", "run_test", "ACCEL_VARIANTS"]


@dataclass(frozen=True)
class TestSpec:
    """One Table 1 row: query type plus dataset combination."""

    __test__ = False  # not a pytest class, despite the name

    test_id: str
    query: str  # intersection | within | nn
    target: str
    source: str

    def distance_for(self, workload: Workload) -> float | None:
        if self.query != "within":
            return None
        return workload.within_nv if self.source == "vessels" else workload.within_nn


TESTS = {
    "INT-NN": TestSpec("INT-NN", "intersection", "nuclei_a", "nuclei_b"),
    "WN-NN": TestSpec("WN-NN", "within", "nuclei_a", "nuclei_b"),
    "WN-NV": TestSpec("WN-NV", "within", "nuclei_a", "vessels"),
    "NN-NN": TestSpec("NN-NN", "nn", "nuclei_a", "nuclei_b"),
    "NN-NV": TestSpec("NN-NV", "nn", "nuclei_a", "vessels"),
}

# The acceleration columns of Table 1 this engine reproduces (labels
# match Fig. 10's B/P), as config overrides: B partitions nothing, P
# partitions at the default threshold. Fused batching, the paper's G,
# is always on.
ACCEL_VARIANTS = {
    "B": {"partition_min_faces": math.inf},
    "P": {},
}


def make_engine(
    paradigm: str,
    accel: str = "B",
    workload: Workload | None = None,
    datasets: dict | None = None,
    **overrides,
) -> ThreeDPro:
    """A fresh engine loaded with the workload's three datasets."""
    config = EngineConfig(paradigm=paradigm, **{**ACCEL_VARIANTS[accel], **overrides})
    engine = ThreeDPro(config)
    datasets = datasets if datasets is not None else workload.datasets
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


_PROFILED_LODS: dict[tuple[int, str], tuple[int, ...]] = {}


def profiled_lod_list(test_id: str, workload: Workload, sample_size: int = 10) -> tuple[int, ...]:
    """The Section 6.5 LOD schedule for one test, cached per workload.

    The paper's system profiles each test on a sampled cuboid and only
    refines at LODs whose pruned fraction clears the 1/r² break-even
    rule; Table 1's FPR cells run with those schedules.
    """
    from repro.core.lod_select import choose_lod_list, profile_pruning

    key = (id(workload), test_id)
    cached = _PROFILED_LODS.get(key)
    if cached is not None:
        return cached
    spec = TESTS[test_id]
    engine = make_engine("fpr", "B", workload=workload)
    profile = profile_pruning(
        engine,
        spec.target,
        spec.source,
        spec.query if spec.query != "nn" else "nn",
        sample_size=sample_size,
        distance=spec.distance_for(workload),
    )
    lods = choose_lod_list(profile)
    _PROFILED_LODS[key] = lods
    return lods


def run_test(
    test_id: str,
    workload: Workload,
    paradigm: str,
    accel: str = "B",
    engine: ThreeDPro | None = None,
    profile_lods: bool = True,
    **overrides,
) -> JoinResult:
    """Execute one Table 1 cell and return its JoinResult.

    FPR cells default to the profiled LOD schedule (``profile_lods``),
    matching the paper's methodology; profiling cost is incurred once
    per (workload, test) and excluded from the measured cell.
    """
    spec = TESTS[test_id]
    if engine is None:
        if paradigm == "fpr" and profile_lods and "lod_list" not in overrides:
            overrides["lod_list"] = profiled_lod_list(test_id, workload)
        engine = make_engine(paradigm, accel, workload=workload, **overrides)
    if spec.query == "intersection":
        result = engine.intersection_join(spec.target, spec.source)
    elif spec.query == "within":
        result = engine.within_join(spec.target, spec.source, spec.distance_for(workload))
    else:
        result = engine.nn_join(spec.target, spec.source)
    result.stats.query = test_id
    return result
