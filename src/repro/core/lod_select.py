"""Profiling-driven LOD selection (paper Sections 4.4 and 6.5).

Refining at LOD ``i`` is worthwhile only when the fraction of object
pairs it settles exceeds the cost ratio of postponing them to the next
level. With ``r`` the face-count growth factor between consecutive LODs,
pair evaluation cost grows ~``r^2`` per level, so the break-even pruned
fraction is ``1 / r^2`` (the paper's 25% for ``r = 2``).

:func:`profile_pruning` measures, on a sample of target objects, how
many pairs each LOD settles; :func:`choose_lod_list` applies the rule
and returns the LOD schedule to configure the engine with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import QuerySpec
from repro.core.schedule import full_ladder
from repro.storage.store import Dataset

__all__ = ["LODProfile", "profile_pruning", "choose_lod_list"]


@dataclass(frozen=True)
class LODProfile:
    """Measured pair flow per LOD for one (query, dataset pair)."""

    query: str
    lods: tuple[int, ...]
    evaluated: dict[int, int]
    pruned: dict[int, int]
    face_growth: float  # average r between consecutive LODs
    growth_by_lod: dict[int, float] | None = None  # r_i = faces(i+1)/faces(i)

    def pruned_fraction(self, lod: int) -> float:
        evaluated = self.evaluated.get(lod, 0)
        return self.pruned.get(lod, 0) / evaluated if evaluated else 0.0

    @property
    def break_even(self) -> float:
        """The Section 4.4 threshold ``1 / r^2`` with the average r."""
        r = max(self.face_growth, 1.0 + 1e-9)
        return 1.0 / (r * r)

    def break_even_at(self, lod: int) -> float:
        """Per-LOD break-even: ``1 / r_i^2``.

        The paper treats r as a constant ("the portion of vertices
        removed in each round is a constant"), which holds early in the
        decimation but not near the irreducible base where simplification
        stalls (r_i -> 1 and refinement at that LOD can essentially never
        pay). Using the measured per-level growth keeps the rule sharp on
        such chains.
        """
        if self.growth_by_lod is None:
            return self.break_even
        r = max(self.growth_by_lod.get(lod, self.face_growth), 1.0 + 1e-9)
        return 1.0 / (r * r)


def profile_pruning(
    engine,
    target_name: str,
    source_name: str,
    query: str,
    sample_size: int = 32,
    distance: float | None = None,
    k: int = 1,
) -> LODProfile:
    """Run ``query`` over a target sample with refinement at every LOD.

    ``engine`` must run the FPR paradigm. The sample query is pinned to
    the full LOD ladder whatever the engine's own schedule — the profile
    measures how much each level prunes when every level runs — and
    teaches the engine's learned schedule nothing. A deterministic
    every-n-th sample of the target dataset is loaded under a temporary
    name.
    """
    if engine.config.paradigm != "fpr":
        raise ValueError("profiling requires paradigm='fpr'")
    if query not in ("intersection", "within", "nn"):
        raise ValueError(f"unknown query {query!r}")
    if query == "within" and distance is None:
        raise ValueError("within profiling needs a distance")
    target = engine._get(target_name)
    source = engine._get(source_name)
    lods = full_ladder(target.dataset, source.dataset)
    objects = target.dataset.objects
    step = max(1, len(objects) // sample_size)
    sample = [objects[i] for i in range(0, len(objects), step)][:sample_size]
    sample_name = f"__sample_{target_name}__"
    engine.load_dataset(Dataset(sample_name, sample))
    try:
        spec = QuerySpec(
            kind="knn" if query == "nn" else query,
            source=source_name,
            target=sample_name,
            distance=distance if query == "within" else None,
            k=k if query == "nn" else None,
        )
        result = engine._run_pinned(spec, lods)
    finally:
        del engine._datasets[sample_name]

    return LODProfile(
        query=query,
        lods=lods,
        evaluated=dict(result.stats.pairs_evaluated_by_lod),
        pruned=dict(result.stats.pairs_pruned_by_lod),
        face_growth=measure_face_growth(source.dataset),
        growth_by_lod=measure_face_growth_by_lod(source.dataset),
    )


def measure_face_growth(dataset: Dataset, max_objects: int = 64) -> float:
    """Average face-count ratio between consecutive LODs (the paper's r)."""
    ratios: list[float] = []
    for obj in dataset.objects[:max_objects]:
        counts = [obj.face_count_at_lod(lod) for lod in obj.lods]
        for low, high in zip(counts, counts[1:]):
            if low > 0 and high > low:
                ratios.append(high / low)
    return sum(ratios) / len(ratios) if ratios else 2.0


def measure_face_growth_by_lod(dataset: Dataset, max_objects: int = 64) -> dict[int, float]:
    """Average face-count ratio per LOD level: r_i = faces(i+1)/faces(i)."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for obj in dataset.objects[:max_objects]:
        faces = [obj.face_count_at_lod(lod) for lod in obj.lods]
        for lod, (low, high) in enumerate(zip(faces, faces[1:])):
            if low > 0:
                sums[lod] = sums.get(lod, 0.0) + high / low
                counts[lod] = counts.get(lod, 0) + 1
    return {lod: sums[lod] / counts[lod] for lod in sums}


def choose_lod_list(
    profile: LODProfile, threshold: float | None = None, rule: str = "to-top"
) -> tuple[int, ...]:
    """Keep the LODs whose pruned fraction clears a break-even rule.

    Rules:

    * ``"to-top"`` (default) — keep LOD i when
      ``pruned_fraction(i) > (N_i / N_top)^2``. Refining everyone at LOD
      i costs ~``N_i^2`` per pair; every pair settled there saves *at
      least* its top-LOD evaluation (``N_top^2``), and usually several
      intermediate ones too. This non-myopic variant matters in practice:
      the consecutive rule drops mid LODs whose pruning pays off across
      all later levels (our NN-NV ablation shows it choosing a 4x worse
      schedule).
    * ``"consecutive"`` — the paper's Section 4.4 rule,
      ``pruned_fraction(i) > 1 / r_i^2``, which only credits a pruned
      pair with skipping the next level.
    * an explicit ``threshold`` overrides both.

    The top LOD is always included so exact answers remain possible
    (Section 4.4: "the list is ended with the highest LOD").
    """
    top = profile.lods[-1]
    if threshold is not None:
        cutoff = {lod: threshold for lod in profile.lods}
    elif rule == "consecutive":
        cutoff = {lod: profile.break_even_at(lod) for lod in profile.lods}
    elif rule == "to-top":
        cutoff = {lod: _cost_ratio_to_top(profile, lod) ** 2 for lod in profile.lods}
    else:
        raise ValueError(f"unknown rule {rule!r}")
    chosen = {
        lod for lod in profile.lods if profile.pruned_fraction(lod) > cutoff[lod]
    }
    chosen.add(top)
    return tuple(sorted(chosen))


def _cost_ratio_to_top(profile: LODProfile, lod: int) -> float:
    """``N_lod / N_top`` from the measured per-level growth factors."""
    top = profile.lods[-1]
    ratio = 1.0
    for level in range(lod, top):
        if profile.growth_by_lod is not None:
            growth = profile.growth_by_lod.get(level, profile.face_growth)
        else:
            growth = profile.face_growth
        ratio /= max(growth, 1.0 + 1e-9)
    return ratio
