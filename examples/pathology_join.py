"""Digital-pathology scenario: which vessels are near which nuclei?

The paper's motivating workload (Section 2.4): for every nucleus in a
tissue block, find the nearest blood vessel and all vessels within a
radius. Every vessel of at least ``partition_min_faces`` faces is
partitioned into sub-objects (skeleton-based, Section 5.1) on its first
use as a join source, so the engine refines only the branch segments
that can matter.

Run with:  python examples/pathology_join.py
"""

import statistics

from repro import EngineConfig, ThreeDPro
from repro.datagen import make_tissue_scene
from repro.datagen.vessels import VesselSpec


def main():
    print("Reconstructing a synthetic tissue block (nuclei + vessels)...")
    scene = make_tissue_scene(
        n_nuclei=60,
        n_vessels=2,
        seed=7,
        region=100.0,
        nucleus_subdivisions=1,
        vessel_spec=VesselSpec(bifurcations=3, points_per_branch=5, segments=8),
    )
    print(f"  {scene.summary}")

    # The defaults are the paper's best NV cell (P+G): FPR, partitioned
    # vessels, fused face-pair waves.
    config = EngineConfig(paradigm="fpr")
    engine = ThreeDPro(config)
    engine.load_polyhedra("nuclei", scene.nuclei_a)
    engine.load_polyhedra("vessels", scene.vessels)

    print(f"\nAll-nearest-neighbor join (config {config.label})...")
    nn = engine.nn_join("nuclei", "vessels")
    distances = [matches[0][1] for matches in nn.pairs.values()]
    print(f"  {nn.stats.summary()}")
    print(
        f"  nucleus-to-vessel distance: min={min(distances):.2f} "
        f"median={statistics.median(distances):.2f} max={max(distances):.2f}"
    )

    radius = statistics.median(distances)
    print(f"\nWithin-join: vessels within {radius:.2f} of each nucleus...")
    within = engine.within_join("nuclei", "vessels", radius)
    near = sum(1 for matches in within.pairs.values() if matches)
    print(f"  {within.stats.summary()}")
    print(f"  {near}/{len(scene.nuclei_a)} nuclei have a vessel within {radius:.2f}")

    print("\nPer-LOD pair flow (progressive refinement at work):")
    for lod in sorted(within.stats.pairs_evaluated_by_lod):
        evaluated = within.stats.pairs_evaluated_by_lod[lod]
        pruned = within.stats.pairs_pruned_by_lod.get(lod, 0)
        print(f"  LOD {lod}: evaluated {evaluated:4d} pairs, settled {pruned:4d}")


if __name__ == "__main__":
    main()
