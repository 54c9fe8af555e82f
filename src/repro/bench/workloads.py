"""Benchmark workloads: paper-shaped scenes at laptop-friendly scales.

The paper's datasets (10M nuclei, 50K vessels) are far beyond a pure
Python engine; every benchmark here uses the same *shape classes* at a
scale selected by the ``REPRO_BENCH_SCALE`` environment variable:

* ``tiny``   (default) — seconds per cell; CI-friendly;
* ``small``  — tens of seconds for the worst cells;
* ``medium`` — minutes; closest to the paper's relative gaps.

All generation is deterministic and cached per process so a benchmark
session builds each workload exactly once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.compression.ppvp import PPVPEncoder
from repro.datagen.scenes import make_tissue_scene
from repro.datagen.vessels import VesselSpec
from repro.storage.store import Dataset

__all__ = ["BenchScale", "SCALES", "bench_scale", "get_workload", "Workload"]


@dataclass(frozen=True)
class BenchScale:
    """One named benchmark size."""

    name: str
    n_nuclei: int
    n_vessels: int
    nucleus_subdivisions: int
    vessel_spec: VesselSpec
    region: float
    within_nn: float  # WN-NN threshold
    within_nv: float  # WN-NV threshold


SCALES = {
    "tiny": BenchScale(
        name="tiny",
        n_nuclei=32,
        n_vessels=3,
        nucleus_subdivisions=1,  # 80 faces
        vessel_spec=VesselSpec(bifurcations=3, points_per_branch=4, segments=6),
        region=135.0,
        within_nn=1.2,
        within_nv=12.0,
    ),
    "small": BenchScale(
        name="small",
        n_nuclei=120,
        n_vessels=2,
        nucleus_subdivisions=2,  # 320 faces, matches the paper's ~300
        vessel_spec=VesselSpec(bifurcations=4, points_per_branch=6, segments=10),
        region=160.0,
        within_nn=1.2,
        within_nv=15.0,
    ),
    "medium": BenchScale(
        name="medium",
        n_nuclei=300,
        n_vessels=3,
        nucleus_subdivisions=2,
        vessel_spec=VesselSpec(bifurcations=5, points_per_branch=8, segments=12),
        region=260.0,
        within_nn=1.2,
        within_nv=18.0,
    ),
}


def bench_scale() -> BenchScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default ``tiny``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "tiny")
    if name not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}")
    return SCALES[name]


@dataclass
class Workload:
    """Compressed datasets plus the raw meshes they came from.

    ``within_nn`` / ``within_nv`` are self-calibrated from the generated
    geometry (a quantile of per-target nearest MBB distances) so the
    within joins always produce a healthy mix of matches and misses,
    independent of scale and seed.
    """

    scale: BenchScale
    datasets: dict[str, Dataset]
    raw: dict[str, list]
    within_nn: float = 1.0
    within_nv: float = 10.0

    @property
    def summary(self) -> dict:
        return {
            "scale": self.scale.name,
            "nuclei": len(self.datasets["nuclei_a"]),
            "vessels": len(self.datasets["vessels"]),
            "nucleus_faces": self.raw["nuclei_a"][0].num_faces,
            "vessel_faces": self.raw["vessels"][0].num_faces if self.raw["vessels"] else 0,
        }


_CACHE: dict[str, Workload] = {}


def get_workload(seed: int = 11) -> Workload:
    """Build (or fetch the cached) workload for the current scale."""
    scale = bench_scale()
    key = f"{scale.name}:{seed}"
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    scene = make_tissue_scene(
        n_nuclei=scale.n_nuclei,
        n_vessels=scale.n_vessels,
        seed=seed,
        region=scale.region,
        nucleus_subdivisions=scale.nucleus_subdivisions,
        vessel_spec=scale.vessel_spec,
    )
    encoder = PPVPEncoder(max_lods=6, rounds_per_lod=2)
    datasets = {
        "nuclei_a": Dataset.from_polyhedra("nuclei_a", scene.nuclei_a, encoder),
        "nuclei_b": Dataset.from_polyhedra("nuclei_b", scene.nuclei_b, encoder),
        "vessels": Dataset.from_polyhedra("vessels", scene.vessels, encoder),
    }
    raw = {
        "nuclei_a": scene.nuclei_a,
        "nuclei_b": scene.nuclei_b,
        "vessels": scene.vessels,
    }
    workload = Workload(
        scale=scale,
        datasets=datasets,
        raw=raw,
        within_nn=_calibrate_threshold(datasets["nuclei_a"], datasets["nuclei_b"]),
        within_nv=_calibrate_threshold(datasets["nuclei_a"], datasets["vessels"]),
    )
    _CACHE[key] = workload
    return workload


def _calibrate_threshold(targets: Dataset, sources: Dataset, quantile: float = 0.7) -> float:
    """A within-distance that splits targets into matches and misses.

    Takes the ``quantile`` of each target's nearest source-MBB distance
    plus a generous margin: most matching pairs then clear the threshold
    even at coarse LODs (whose pruned geometry inflates distances), which
    is the regime where the paper's within tests profit from progressive
    early accepts, while the remaining targets still get refined and
    rejected.
    """
    source_boxes = sources.boxes
    if not source_boxes:
        return 1.0
    nearest = []
    for box in targets.boxes:
        nearest.append(min(box.mindist(other) for other in source_boxes))
    nearest.sort()
    index = min(len(nearest) - 1, int(quantile * len(nearest)))
    # Margin: a fifth of the typical source extent, so coarse-LOD
    # inflation does not defeat early acceptance.
    extent = max(max(box.extents) for box in source_boxes[: min(8, len(source_boxes))])
    return max(nearest[index], 1e-6) + 0.2 * extent
