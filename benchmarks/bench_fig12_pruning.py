"""Fig. 12 + Section 6.5: object pairs evaluated/pruned per LOD.

Profiles each query type with refinement at every LOD, prints the
evaluated/pruned counts and the pruned fraction per level, and applies
the Section 4.4 break-even rule (prune fraction > 1/r^2) to choose the
LOD list — the paper's profiling-driven configuration step.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import make_engine
from repro.core import choose_lod_list, profile_pruning
from repro.core.schedule import full_ladder

QUERIES = [
    ("intersection", "nuclei_a", "nuclei_b", None),
    ("within", "nuclei_a", "nuclei_b", "within_nn"),
    ("within", "nuclei_a", "vessels", "within_nv"),
    ("nn", "nuclei_a", "nuclei_b", None),
    ("nn", "nuclei_a", "vessels", None),
]

IDS = ["INT-NN", "WN-NN", "WN-NV", "NN-NN", "NN-NV"]


@pytest.mark.parametrize("query,target,source,dist_attr", QUERIES, ids=IDS)
def test_fig12_pruning_profile(benchmark, workload, query, target, source, dist_attr):
    engine = make_engine(
        "fpr", "B", workload=workload,
        lod_list=full_ladder(*workload.datasets.values()),
    )
    distance = getattr(workload, dist_attr) if dist_attr else None
    profile = {}

    def run():
        profile["value"] = profile_pruning(
            engine, target, source, query, sample_size=24, distance=distance
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    prof = profile["value"]
    chosen = choose_lod_list(prof)

    rows = []
    for lod in prof.lods:
        rows.append(
            [
                lod,
                prof.evaluated.get(lod, 0),
                prof.pruned.get(lod, 0),
                100.0 * prof.pruned_fraction(lod),
                "yes" if lod in chosen else "no",
            ]
        )
    title = (
        f"[fig12] {query} {target}->{source}  "
        f"r={prof.face_growth:.2f} break-even={100 * prof.break_even:.1f}%"
    )
    print("\n" + format_table(["lod", "evaluated", "pruned", "pruned %", "refine?"], rows, title=title))
    print(f"[fig12] chosen lod_list = {chosen}")

    benchmark.extra_info.update(
        {"chosen_lods": list(chosen), "face_growth": prof.face_growth}
    )
    assert chosen[-1] == prof.lods[-1]  # top LOD always kept
