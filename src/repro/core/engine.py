"""The 3DPro engine: dataset loading, planning, and query execution.

The engine owns (Fig. 8 of the paper):

* a **global index** — one R-tree per dataset used as a source, over
  object MBBs, or sub-object boxes for objects of at least
  ``partition_min_faces`` top-LOD faces; built on the dataset's first
  use as a source, so a dataset that is only a target is never decoded
  for indexing;
* an **object decoder** behind a shared LRU decode cache;
* a **learned LOD schedule** per ``(kind, source, target)``
  (:mod:`repro.core.schedule`), measured on the engine's own queries;
* a **geometry computer** — the batched face-pair kernel executor;
* the **query processor** — :meth:`ThreeDPro.execute` compiles a
  declarative :class:`~repro.core.plan.QuerySpec` into a
  :class:`~repro.core.plan.QueryPlan` and hands it to the single shared
  :class:`~repro.core.executor.QueryExecutor`, which batches target
  objects cuboid by cuboid for cache locality (optionally fanning them
  across ``query_workers`` worker processes) and delegates
  per-target work to the progressive refinement of
  :mod:`repro.core.refine`.

The historical per-kind methods (``intersection_join`` …) remain as
thin wrappers over :meth:`execute`.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.compression.ppvp import PPVPEncoder
from repro.core.config import EngineConfig
from repro.core.errors import DatasetNotLoadedError, EngineConfigError
from repro.core.executor import QueryExecutor
from repro.core.plan import STRATEGIES, QueryPlan, QueryResult, QuerySpec
from repro.core.schedule import LEARNED_KINDS, LearnedSchedule, full_ladder
from repro.index.rtree import RTree, RTreeEntry
from repro.mesh.polyhedron import Polyhedron
from repro.obs import metrics as obs_metrics
from repro.obs.profile import ProfileReport, SamplingProfiler
from repro.obs.trace import Tracer
from repro.parallel.executor import GeometryComputer
from repro.partition.partitioner import partition_faces
from repro.storage.cache import DecodeCache, DecodedObjectProvider
from repro.storage.store import Dataset

__all__ = ["ThreeDPro", "JoinResult", "QuerySpec", "QueryResult"]

#: Compatibility alias: joins historically returned a ``JoinResult``;
#: the unified result type is a drop-in superset.
JoinResult = QueryResult


class _LoadedDataset:
    """Engine-side state for one dataset: its decode provider, and the
    source index built on first use."""

    def __init__(self, dataset: Dataset, provider: DecodedObjectProvider, min_faces: int):
        self.dataset = dataset
        self.provider = provider
        self._min_faces = min_faces
        self._index = None
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.dataset.name

    def index(self) -> tuple[RTree, dict]:
        """``(rtree, partitions)`` over this dataset, built once.

        Objects with at least ``min_faces`` top-LOD faces are decoded
        at full resolution and indexed by their sub-object boxes
        (``partitions`` maps their ids to the :class:`ObjectPartition`);
        every other object is indexed by its MBB, without a decode.
        """
        index = self._index
        if index is None:
            with self._lock:
                if self._index is None:
                    self._index = self._build_index()
                index = self._index
        return index

    def _build_index(self) -> tuple[RTree, dict]:
        partitions: dict[int, object] = {}
        entries: list[RTreeEntry] = []
        for obj_id, obj in enumerate(self.dataset.objects):
            partition = self._partition(obj)
            if partition is None:
                entries.append(RTreeEntry(obj.aabb, (obj_id, None)))
                continue
            partitions[obj_id] = partition
            entries.extend(
                RTreeEntry(sub.aabb, (obj_id, sub.index))
                for sub in partition.sub_objects
            )
        return RTree(entries), partitions

    def _partition(self, obj):
        if obj.face_count_at_lod(obj.max_lod) < self._min_faces:
            return None
        try:
            return partition_faces(obj.decode(obj.max_lod))
        except Exception:
            # Undecodable (e.g. salvage-recovered) object: index its
            # whole MBB instead of sub-object boxes.
            return None


class ThreeDPro:
    """The progressive 3D spatial query engine."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.metrics = (
            self.config.metrics
            if self.config.metrics is not None
            else obs_metrics.REGISTRY
        )
        self.tracer = Tracer(enabled=self.config.tracing)
        self.cache = DecodeCache(
            capacity_bytes=self.config.cache_bytes,
            metrics=self.metrics,
        )
        self.computer = GeometryComputer(metrics=self.metrics)
        self.query_workers = self.config.resolve_query_workers()
        self.profiler = (
            SamplingProfiler(interval_seconds=self.config.profile_interval_ms / 1000.0)
            if self.config.profiling
            else None
        )
        self.executor = QueryExecutor(self)
        self.lod_schedule = LearnedSchedule()
        self._datasets: dict[str, _LoadedDataset] = {}
        self._probe_seq = 0

    # -- loading ---------------------------------------------------------------

    def load_dataset(self, dataset: Dataset) -> None:
        """Register a dataset and its decode provider (see
        :meth:`_LoadedDataset.index` for when it is indexed)."""
        provider = DecodedObjectProvider(
            dataset.name,
            dataset.objects,
            self.cache,
            fault_injector=self.config.fault_injector,
            salvaged_ids=dataset.degraded_ids,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._datasets[dataset.name] = _LoadedDataset(
            dataset, provider, self.config.partition_min_faces
        )
        self.lod_schedule.forget(dataset.name)

    def load_polyhedra(
        self, name: str, polyhedra: list[Polyhedron], encoder: PPVPEncoder | None = None
    ) -> Dataset:
        """Convenience ingest: compress raw meshes and load them."""
        dataset = Dataset.from_polyhedra(name, polyhedra, encoder=encoder)
        self.load_dataset(dataset)
        return dataset

    def dataset(self, name: str) -> Dataset:
        """The loaded dataset registered under ``name``."""
        return self._get(name).dataset

    def _get(self, name: str) -> _LoadedDataset:
        loaded = self._datasets.get(name)
        if loaded is None:
            raise DatasetNotLoadedError(name)
        return loaded

    @property
    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    # -- profiling ---------------------------------------------------------------

    def take_profile(self) -> ProfileReport | None:
        """Detach the profiler's accumulated samples (None when off).

        The process backend calls this after each chunk so the report
        ships back with the chunk's stats; interactive callers use it to
        collect one query's samples before exporting a flamegraph.
        """
        if self.profiler is None:
            return None
        return self.profiler.take()

    # -- LOD scheduling ----------------------------------------------------------

    def _lod_schedule(
        self, spec: QuerySpec, target: _LoadedDataset, source: _LoadedDataset
    ) -> tuple[tuple[int, ...], str]:
        """``(lods, label)`` for one join (see :mod:`repro.core.schedule`).

        FR and an explicit ``lod_list`` are ``"pinned"``. Otherwise
        within and intersection joins run the learned schedule, and
        NN/kNN the full ladder.
        """
        ladder = full_ladder(target.dataset, source.dataset)
        top = ladder[-1]
        if self.config.paradigm == "fr":
            return (top,), "pinned"
        if self.config.lod_list is not None:
            lods = sorted({min(lod, top) for lod in self.config.lod_list} | {top})
            return tuple(lods), "pinned"
        if spec.kind not in LEARNED_KINDS:
            return ladder, "ladder"
        return self.lod_schedule.choose(_schedule_key(spec), ladder)

    # -- the unified query API ----------------------------------------------------

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Run one declarative query; every public query form routes here.

        Probe specs (an ad-hoc polyhedron instead of a loaded target
        dataset) are handled by loading the probe as a transient
        single-object dataset, joining, and evicting it — its single
        answer lands under target id 0 (``result.matches``).
        """
        spec = spec.normalized()
        if spec.probe is not None:
            self._probe_seq += 1
            # Unique per-probe name AND a cache eviction on the way out:
            # the decode cache is keyed by (dataset, object, LOD), so a
            # reused probe name would serve a previous probe's geometry.
            name = f"__probe__{self._probe_seq}"
            self.load_dataset(Dataset.from_polyhedra(name, [spec.probe]))
            try:
                inner = self.execute(replace(spec, probe=None, target=name))
                return QueryResult(
                    inner.pairs, inner.stats, inner.degraded_targets, spec,
                    degraded_keys=inner.degraded_keys,
                    completeness=inner.completeness,
                )
            finally:
                del self._datasets[name]
                self.cache.evict_dataset(name)
                self.lod_schedule.forget(name)
        plan = self._compile(spec)
        result = self.executor.run(plan)
        self.lod_schedule.record(_schedule_key(spec), plan.lods, result)
        return result

    def _run_pinned(self, spec: QuerySpec, lods: tuple[int, ...]) -> QueryResult:
        """Run ``spec`` on exactly ``lods``, learning nothing from it.

        Process workers run their chunk on the coordinator's schedule
        this way, and :func:`~repro.core.lod_select.profile_pruning`
        its sample query on the full ladder.
        """
        return self.executor.run(self._compile(spec.normalized(), lods=lods))

    def _compile(self, spec: QuerySpec, lods: tuple[int, ...] | None = None) -> QueryPlan:
        strategy = STRATEGIES[spec.kind]
        source = self._get(spec.source)
        if spec.kind == "containment":
            # The query point plays the target role; no join-wide LOD
            # schedule — the ladder is derived from the candidates.
            return QueryPlan(
                spec=spec, strategy=strategy, target=source, source=source,
                lods=(), config=self.config, span_target="<point>",
                schedule="ladder",
            )
        target = self._get(spec.target)
        if lods is None:
            lods, schedule = self._lod_schedule(spec, target, source)
        else:
            schedule = "pinned"
        return QueryPlan(
            spec=spec, strategy=strategy, target=target, source=source,
            lods=tuple(lods), config=self.config, span_target=target.name,
            schedule=schedule,
        )

    # -- joins (compatibility wrappers) --------------------------------------------

    def intersection_join(self, target_name: str, source_name: str) -> QueryResult:
        """For every target object, the source objects intersecting it."""
        return self.execute(
            QuerySpec(kind="intersection", source=source_name, target=target_name)
        )

    def within_join(
        self, target_name: str, source_name: str, distance: float
    ) -> QueryResult:
        """For every target object, the source objects within ``distance``."""
        if distance < 0:
            raise EngineConfigError("distance must be >= 0")
        return self.execute(
            QuerySpec(
                kind="within", source=source_name, target=target_name,
                distance=distance,
            )
        )

    def nn_join(self, target_name: str, source_name: str) -> QueryResult:
        """All-nearest-neighbor join (ANN): the closest source per target."""
        return self.knn_join(target_name, source_name, k=1)

    def knn_join(self, target_name: str, source_name: str, k: int = 1) -> QueryResult:
        """The ``k`` nearest source objects per target object."""
        if k < 1:
            raise EngineConfigError("k must be >= 1")
        return self.execute(
            QuerySpec(kind="knn", source=source_name, target=target_name, k=k)
        )


def _schedule_key(spec: QuerySpec) -> tuple:
    return (spec.kind, spec.source, spec.target)
