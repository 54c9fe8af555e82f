"""LOD schedule tuning by profiling (paper Sections 4.4 and 6.5).

Refining at a LOD only pays off when it settles more than ``1/r^2`` of
the surviving candidate pairs (r = face growth between LODs). This
example profiles a nearest-neighbor workload, applies the rule, and
compares three schedules end to end.

Run with:  python examples/lod_profiling.py
"""

import time

from repro import EngineConfig, ThreeDPro
from repro.core import choose_lod_list, profile_pruning
from repro.core.schedule import full_ladder
from repro.datagen import make_tissue_scene
from repro.datagen.vessels import VesselSpec
from repro.storage import Dataset
from repro.compression import PPVPEncoder


def timed_join(config, datasets):
    engine = ThreeDPro(config)
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    start = time.perf_counter()
    result = engine.nn_join("nuclei", "vessels")
    return time.perf_counter() - start, result


def main():
    scene = make_tissue_scene(
        n_nuclei=32,
        n_vessels=2,
        seed=5,
        region=100.0,
        nucleus_subdivisions=1,
        vessel_spec=VesselSpec(bifurcations=2, points_per_branch=5, segments=8),
    )
    encoder = PPVPEncoder(max_lods=6)
    datasets = {
        "nuclei": Dataset.from_polyhedra("nuclei", scene.nuclei_a, encoder),
        "vessels": Dataset.from_polyhedra("vessels", scene.vessels, encoder),
    }

    print("Profiling NN pruning per LOD on a target sample...")
    ladder = full_ladder(*datasets.values())
    profiler = ThreeDPro(EngineConfig(paradigm="fpr", lod_list=ladder))
    for dataset in datasets.values():
        profiler.load_dataset(dataset)
    profile = profile_pruning(profiler, "nuclei", "vessels", "nn", sample_size=16)

    print(f"  face growth r = {profile.face_growth:.2f} "
          f"-> break-even pruned fraction = {100 * profile.break_even:.1f}%")
    for lod in profile.lods:
        print(f"  LOD {lod}: evaluated {profile.evaluated.get(lod, 0):4d}, "
              f"pruned {profile.pruned.get(lod, 0):4d} "
              f"({100 * profile.pruned_fraction(lod):5.1f}%)")

    chosen = choose_lod_list(profile)
    print(f"  chosen LOD schedule: {chosen}")

    print("\nEnd-to-end comparison on the full join:")
    schedules = {
        "all LODs": EngineConfig(paradigm="fpr", lod_list=ladder),
        "profiled": EngineConfig(paradigm="fpr", lod_list=chosen),
        "top only (FR)": EngineConfig(paradigm="fr"),
    }
    answers = {}
    for label, config in schedules.items():
        seconds, result = timed_join(config, datasets)
        answers[label] = {tid: m[0][0] for tid, m in result.pairs.items()}
        print(f"  {label:14s} {seconds:7.3f}s "
              f"face_pairs={result.stats.face_pairs_total}")
    assert answers["all LODs"] == answers["profiled"] == answers["top only (FR)"]
    print("  (all three schedules returned identical neighbors)")


if __name__ == "__main__":
    main()
