"""Declarative query specs, compiled plans, and the unified result type.

The query layer is split the way a database splits it:

* :class:`QuerySpec` — *what* to compute: the query kind plus its
  parameters (target/source datasets, distance threshold, ``k``, probe
  mesh, containment point). Pure data, validated once.
* :class:`QueryPlan` — the spec bound to engine state: resolved
  datasets, the LOD schedule, the per-kind :class:`KindStrategy`, and
  the stats/span labels. Compiled by :meth:`ThreeDPro.execute`.
* :class:`QueryResult` — *every* kind's answer in one shape: per-target
  ``pairs``, a :class:`~repro.core.stats.QueryStats`, and the set of
  targets whose answers leaned on degraded geometry.

A :class:`KindStrategy` contributes only what genuinely differs per
query kind — which targets to iterate, how to filter one target's
candidates, which group refinement settles them, and how a target's
matches become its committed value. Everything else (phase timing,
stats, degraded tracking, fan-out across workers) lives once in
:class:`~repro.core.executor.QueryExecutor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from numbers import Integral, Real

from repro.core.errors import EngineConfigError, WireFormatError
from repro.core.jsonsafe import json_safe
from repro.core.refine import (
    NNCandidate,
    refine_containment,
    refine_intersection_group,
    refine_nn,
    refine_within_group,
)
from repro.core.stats import QueryStats
from repro.geometry.aabb import AABB
from repro.partition.partitioner import PARTS

__all__ = [
    "QuerySpec",
    "QueryPlan",
    "QueryResult",
    "QueryCompleteness",
    "KindStrategy",
    "QUERY_KINDS",
    "WIRE_SCHEMA_VERSION",
]

QUERY_KINDS = ("intersection", "within", "nn", "knn", "containment")

#: Version of the JSON wire contract (specs and results). Bumped on any
#: incompatible change; the server rejects unknown versions with a 400
#: and ``from_wire`` raises :class:`~repro.core.errors.WireFormatError`.
WIRE_SCHEMA_VERSION = 1

#: QuerySpec fields that cross the wire (everything else is in-process
#: state: ``probe`` carries a live mesh, ``cancellation`` a token,
#: ``progress`` a streaming callback).
_SPEC_WIRE_FIELDS = (
    "kind", "source", "target", "distance", "k", "point", "target_ids",
    "deadline_ms",
)

#: Chunks per worker: small enough to amortize per-chunk overhead,
#: large enough that a straggler chunk cannot idle the rest of the pool.
_CHUNKS_PER_WORKER = 4


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    )


@dataclass(frozen=True)
class QuerySpec:
    """One declarative query: kind plus parameters.

    ``kind`` is one of :data:`QUERY_KINDS`. Join kinds name a loaded
    ``target`` dataset *or* carry an ad-hoc ``probe`` polyhedron (the
    single-object query forms); ``containment`` takes a ``point``.
    ``distance`` applies to ``within``; ``k`` to ``knn`` (``nn`` is
    ``knn`` with ``k=1``).
    """

    kind: str
    source: str
    target: str | None = None
    probe: object = None  # Polyhedron, for ad-hoc single-object queries
    distance: float | None = None
    k: int | None = None
    point: tuple | None = None
    # Restrict execution to these target object ids (None = all). The
    # process backend uses this to hand each worker one contiguous chunk
    # of the cuboid-ordered target list as a self-contained sub-query;
    # cuboid iteration order among the kept ids is preserved.
    target_ids: tuple | None = None
    # Wall-clock budget for this query in milliseconds; overrides the
    # engine-level EngineConfig.deadline_ms / REPRO_DEADLINE_MS. Expiry
    # yields a partial QueryResult (see QueryResult.completeness).
    deadline_ms: int | None = None
    # Optional repro.core.deadline.CancellationToken; cancelling it
    # unwinds the query at its next checkpoint with a partial result.
    # In-process only: the process backend strips it from worker specs
    # (workers get a re-budgeted deadline_ms instead) and its supervisor
    # polls it, rerunning pending chunks in the parent once it fires.
    cancellation: object = None
    # Optional progressive-results callback ``(target_id, lod, matches)``
    # invoked as refinement confirms pairs (the serve layer's streaming
    # hook). In-process only, like ``cancellation``: excluded from the
    # wire schema and stripped from process-backend worker specs. May be
    # called from worker threads — implementations must be thread-safe.
    progress: object = None

    def normalized(self) -> "QuerySpec":
        """Validate and canonicalize (``nn`` becomes ``knn`` with k=1)."""
        if self.kind not in QUERY_KINDS:
            raise EngineConfigError(
                f"unknown query kind {self.kind!r} (one of {QUERY_KINDS})"
            )
        spec = self
        if spec.k is not None and not _is_int(spec.k):
            raise EngineConfigError(f"k must be an integer, got {spec.k!r}")
        if spec.kind == "nn":
            if spec.k not in (None, 1):
                raise EngineConfigError("nn queries take no k (use kind='knn')")
            spec = replace(spec, kind="knn", k=1)
        if spec.kind == "knn":
            k = 1 if spec.k is None else spec.k
            if k < 1:
                raise EngineConfigError("k must be >= 1")
            spec = replace(spec, k=k)
        elif spec.k is not None:
            raise EngineConfigError(f"k does not apply to {spec.kind!r} queries")
        if spec.kind == "within":
            if spec.distance is None:
                raise EngineConfigError("within queries require a distance")
            if not _is_finite(spec.distance):
                raise EngineConfigError(
                    f"distance must be a finite number, got {spec.distance!r}"
                )
            if spec.distance < 0:
                raise EngineConfigError("distance must be >= 0")
        elif spec.distance is not None:
            raise EngineConfigError(f"distance does not apply to {spec.kind!r} queries")
        if spec.kind == "containment":
            if spec.point is None:
                raise EngineConfigError("containment queries require a point")
            if spec.target is not None or spec.probe is not None:
                raise EngineConfigError(
                    "containment queries take a point, not a target/probe"
                )
            point = tuple(spec.point)
            if len(point) != 3 or not all(_is_finite(v) for v in point):
                raise EngineConfigError(
                    f"point must be 3 finite coordinates, got {spec.point!r}"
                )
            spec = replace(spec, point=tuple(float(v) for v in point))
        else:
            if spec.point is not None:
                raise EngineConfigError(f"point does not apply to {spec.kind!r} queries")
            if (spec.target is None) == (spec.probe is None):
                raise EngineConfigError(
                    f"{spec.kind!r} queries take exactly one of target / probe"
                )
        if spec.target_ids is not None:
            if spec.kind == "containment" or spec.probe is not None:
                raise EngineConfigError(
                    "target_ids applies only to joins over a loaded target dataset"
                )
            if not all(_is_int(t) for t in spec.target_ids):
                raise EngineConfigError(
                    f"target_ids must be integers, got {spec.target_ids!r}"
                )
            spec = replace(spec, target_ids=tuple(int(t) for t in spec.target_ids))
        if spec.deadline_ms is not None and spec.deadline_ms < 1:
            raise EngineConfigError("deadline_ms must be None or >= 1")
        return spec

    @property
    def label(self) -> str:
        """The stats label (``QueryStats.query``) for this spec."""
        if self.kind == "containment":
            return "containment_query"
        if self.kind == "knn":
            k = 1 if self.k is None else self.k
            return "nn_join" if k == 1 else f"knn_join(k={k})"
        return f"{self.kind}_join"

    # -- the wire schema (the canonical public query contract) -----------------

    def to_wire(self) -> dict:
        """This spec as a versioned JSON-safe dict (the serve contract).

        The spec is normalized first, so ``from_wire(spec.to_wire())``
        is the identity on normalized specs. ``None`` fields are
        omitted. Raises :class:`~repro.core.errors.WireFormatError` for
        specs carrying in-process-only state (``probe``,
        ``cancellation``, ``progress``) — those never cross the wire.
        """
        spec = self.normalized()
        if spec.probe is not None:
            raise WireFormatError(
                "probe specs are not wire-serializable (load the probe as a "
                "dataset and query it by name)"
            )
        if spec.cancellation is not None or spec.progress is not None:
            raise WireFormatError(
                "cancellation tokens and progress callbacks are in-process "
                "state and cannot cross the wire"
            )
        payload = {"schema_version": WIRE_SCHEMA_VERSION}
        for name in _SPEC_WIRE_FIELDS:
            value = getattr(spec, name)
            if value is not None:
                payload[name] = json_safe(value)
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QuerySpec":
        """Parse a wire dict back into a normalized spec — strictly.

        Unknown fields, a missing/unsupported ``schema_version``, and
        invalid parameter combinations all raise
        :class:`~repro.core.errors.WireFormatError` (the latter wrapping
        the normalization error), never silently drop data.
        """
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"spec payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version is None:
            raise WireFormatError("spec payload is missing schema_version")
        if version != WIRE_SCHEMA_VERSION:
            raise WireFormatError(
                f"unsupported schema_version {version!r} "
                f"(this build speaks {WIRE_SCHEMA_VERSION})"
            )
        unknown = sorted(
            k for k in payload if k != "schema_version" and k not in _SPEC_WIRE_FIELDS
        )
        if unknown:
            raise WireFormatError(
                f"unknown spec field(s) {', '.join(unknown)} "
                f"(known: {', '.join(_SPEC_WIRE_FIELDS)})"
            )
        if "kind" not in payload:
            raise WireFormatError("spec payload is missing kind")
        kwargs = {}
        for name in _SPEC_WIRE_FIELDS:
            if name in payload:
                value = payload[name]
                if name in ("point", "target_ids") and isinstance(value, list):
                    value = tuple(value)
                kwargs[name] = value
        try:
            return cls(**kwargs).normalized()
        except (EngineConfigError, TypeError, ValueError) as exc:
            raise WireFormatError(f"invalid spec: {exc}") from exc


@dataclass
class QueryCompleteness:
    """How much of a query actually ran (the anytime-result contract).

    ``complete`` is True for an undisturbed run. When a deadline expires
    or a :class:`~repro.core.deadline.CancellationToken` fires,
    ``reason`` says which (``"deadline"`` / ``"cancelled"``) and the
    target tallies partition the target list: ``targets_finished`` ran
    to the end, ``targets_inflight`` were interrupted mid-refinement
    (their confirmed-so-far matches are still in ``pairs`` — sound
    under FPR, where a pair confirmed at any LOD is final), and
    ``targets_unstarted`` never began. ``max_lod_reached`` is the
    highest LOD any pair was evaluated at (-1: none). Picklable, so the
    process backend ships per-chunk records back to the parent.
    """

    complete: bool = True
    reason: str = ""  # "" | "deadline" | "cancelled"
    targets_total: int = 0
    targets_finished: int = 0
    targets_inflight: int = 0
    targets_unstarted: int = 0
    max_lod_reached: int = -1
    deadline_ms: int | None = None
    # SLO accounting: fraction of the deadline budget left when the
    # query finished (1.0 = instant, 0.0 = expired). None when the
    # query ran without a deadline.
    deadline_headroom_ratio: float | None = None

    def as_dict(self) -> dict:
        # json_safe at the boundary: max_lod_reached and the target
        # tallies can arrive as numpy ints (LOD keys flow out of
        # LODTable cumulatives and kernel reductions upstream).
        return json_safe({
            "complete": bool(self.complete),
            "reason": self.reason,
            "targets_total": self.targets_total,
            "targets_finished": self.targets_finished,
            "targets_inflight": self.targets_inflight,
            "targets_unstarted": self.targets_unstarted,
            "max_lod_reached": self.max_lod_reached,
            "deadline_ms": self.deadline_ms,
            "deadline_headroom_ratio": self.deadline_headroom_ratio,
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryCompleteness":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class QueryResult:
    """Any query's output: per-target matches plus execution statistics.

    ``pairs`` maps each target object id to its matches — a sorted list
    of source ids for intersection/within/containment, or a list of
    ``(source_id, distance, exact)`` triples for NN/kNN (when the FPR
    paradigm settles a nearest neighbor early, ``distance`` is the best
    known upper bound and ``exact`` is False). Single-target queries
    (probe and containment forms) key their one answer under target 0 —
    use :attr:`matches`.

    ``degraded_targets`` holds the target ids whose answers leaned on
    degraded geometry (a decode fell back to a lower LOD, a salvaged
    object, or MBB-only evaluation): those answers are guaranteed
    correct *subsets* of the clean answer rather than exact matches.
    """

    pairs: dict
    stats: QueryStats
    degraded_targets: set = field(default_factory=set)
    spec: QuerySpec | None = None
    # Distinct degraded (side, object id) keys behind degraded_targets:
    # ``stats.degraded_objects`` is their count. The process backend
    # ships these per chunk so the parent can deduplicate objects that
    # degraded in more than one worker.
    degraded_keys: set = field(default_factory=set)
    # Anytime-result record: did the query run to the end, and if not,
    # which targets finished / were in flight / never started. A partial
    # result's pairs are always a correct subset of the complete run's.
    completeness: QueryCompleteness = field(default_factory=QueryCompleteness)

    @property
    def complete(self) -> bool:
        """True when the query ran to the end (no deadline/cancel cut)."""
        return self.completeness.complete

    @property
    def total_matches(self) -> int:
        return sum(len(v) for v in self.pairs.values())

    @property
    def degraded_objects(self) -> int:
        """Distinct objects served below requested fidelity (from stats)."""
        return self.stats.degraded_objects

    @property
    def matches(self) -> list:
        """The single target's matches (probe / containment queries)."""
        return self.pairs.get(0, [])

    @property
    def funnel(self):
        """The refinement-funnel record (``stats.funnel``) for this query."""
        return self.stats.funnel

    def __iter__(self):
        """Legacy ``(pairs, stats)`` unpacking — kept one release."""
        yield self.pairs
        yield self.stats

    # -- the wire schema -------------------------------------------------------

    def to_wire(self) -> dict:
        """This result as a versioned JSON-safe dict (the serve contract).

        Pairs are keyed by the target id's decimal string (JSON objects
        key on strings); NN/kNN matches serialize as ``[sid, distance,
        exact]`` triples. Stats (funnel included), completeness, and
        degraded targets ride along, so a remote client reconstructs the
        full :class:`QueryResult` — funnel conservation checks intact.
        """
        spec_wire = None
        if self.spec is not None and self.spec.probe is None:
            spec_wire = replace(
                self.spec, cancellation=None, progress=None
            ).to_wire()
        return json_safe({
            "schema_version": WIRE_SCHEMA_VERSION,
            "spec": spec_wire,
            "pairs": {str(tid): matches for tid, matches in self.pairs.items()},
            "stats": self.stats.as_dict(),
            "completeness": self.completeness.as_dict(),
            "degraded_targets": sorted(self.degraded_targets),
            "total_matches": self.total_matches,
        })

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryResult":
        """Reconstruct a result from its wire dict — strictly versioned.

        The round trip preserves everything a caller can observe:
        ``pairs`` (int keys restored; kNN triples back to tuples),
        merged stats with the funnel, completeness, and the degraded
        target set. ``QueryStats`` timing fields are the server's
        measurements, unchanged.
        """
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"result payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != WIRE_SCHEMA_VERSION:
            raise WireFormatError(
                f"unsupported result schema_version {version!r} "
                f"(this build speaks {WIRE_SCHEMA_VERSION})"
            )
        spec = None
        if payload.get("spec") is not None:
            spec = QuerySpec.from_wire(payload["spec"])
        nn_style = spec is not None and spec.kind == "knn"
        pairs = {}
        for tid, matches in payload.get("pairs", {}).items():
            if nn_style:
                matches = [
                    (int(sid), float(dist), bool(exact))
                    for sid, dist, exact in matches
                ]
            pairs[int(tid)] = matches
        stats = QueryStats.from_dict(payload.get("stats", {}))
        completeness = QueryCompleteness.from_dict(payload.get("completeness", {}))
        return cls(
            pairs,
            stats,
            degraded_targets=set(payload.get("degraded_targets", ())),
            spec=spec,
            completeness=completeness,
        )


@dataclass
class QueryPlan:
    """A spec bound to engine state, ready for the executor.

    ``target`` / ``source`` are the engine's loaded-dataset records
    (``target`` is the source dataset for containment, whose "target"
    is the query point). ``lods`` is the join-wide LOD schedule (empty
    for containment, which derives its ladder from the candidates).
    """

    spec: QuerySpec
    strategy: "KindStrategy"
    target: object
    source: object
    lods: tuple[int, ...]
    config: object  # EngineConfig
    span_target: str

    @property
    def label(self) -> str:
        return self.spec.label


# -- candidate-merging helpers (shared by the filter strategies) ---------------


def merge_payloads(payloads) -> dict:
    """Collapse (obj, part) payloads into obj -> candidate part set."""
    merged: dict[int, object] = {}
    for obj_id, part in payloads:
        if part is None:
            merged[obj_id] = None
        else:
            existing = merged.get(obj_id, set())
            if existing is not None:
                existing = set(existing)
                existing.add(part)
                merged[obj_id] = existing
    return merged


def merge_nn_payloads(raw) -> list[NNCandidate]:
    """Collapse per-part NN candidates into per-object distance ranges."""
    merged: dict[int, NNCandidate] = {}
    for (obj_id, part), mind, maxd in raw:
        cand = merged.get(obj_id)
        if cand is None:
            parts = None if part is None else {part}
            merged[obj_id] = NNCandidate(obj_id, mind, maxd, parts)
            continue
        cand.mindist = min(cand.mindist, mind)
        cand.maxdist = min(cand.maxdist, maxd)
        if cand.parts is not None and part is not None:
            cand.parts.add(part)
        else:
            cand.parts = None if part is None else cand.parts
    return list(merged.values())


# -- per-kind strategies -------------------------------------------------------


class KindStrategy:
    """What differs per query kind inside the shared filter → refine →
    accumulate pipeline.

    On top of the shared :meth:`target_ids` / :meth:`target_chunks`, a
    kind implements four methods: :meth:`filter` (one target's index
    candidates), :meth:`candidate_count` (how many of them enter
    refinement), :meth:`group_refine` (settle a group of targets through
    one refinement of :mod:`repro.core.refine`) and :meth:`group_value`
    (a target's committed value from its candidates and matches).
    """

    #: whether each pipeline iteration counts into ``stats.targets``
    #: (containment's single pseudo-target historically does not).
    counts_targets = True

    def target_ids(self, plan: QueryPlan) -> list[int]:
        """Targets in execution order (cuboid order, for cache locality).

        A spec-level ``target_ids`` restriction keeps only the listed
        ids, preserving cuboid order — the contract that lets the
        process backend split one query into per-chunk sub-queries whose
        concatenated results equal the unrestricted run.
        """
        ordered = [
            tid
            for batch in plan.target.dataset.cuboid_batches()
            for tid in batch
        ]
        restrict = plan.spec.target_ids
        if restrict is None:
            return ordered
        keep = set(restrict)
        return [tid for tid in ordered if tid in keep]

    def target_chunks(self, plan: QueryPlan, tids, workers: int) -> list:
        """Contiguous chunks of ``tids`` for fan-out across ``workers``.

        Chunks hold at most ``ceil(len(tids) / (4 * workers))`` targets,
        cut at cuboid boundaries (``tids`` is already in flattened-cuboid
        order, so boundary-aligned cuts stay contiguous and the
        chunk-order merge is unchanged). Every dataset — in memory,
        v1/v2 or shard-backed — chunks the same way; on a shard store
        each chunk maps to whole shards, so a process worker faults in
        only the shard files its chunk owns. Cuboids larger than the
        chunk size are split rather than ballooning one chunk.
        """
        chunk_size = max(1, -(-len(tids) // (workers * _CHUNKS_PER_WORKER)))
        # Contiguous per-cuboid runs of the (possibly restricted) tids.
        owner = {
            tid: index
            for index, batch in enumerate(plan.target.dataset.cuboid_batches())
            for tid in batch
        }
        chunks: list[list[int]] = []
        current: list[int] = []
        for _, group in groupby(tids, key=owner.get):
            run = list(group)
            while len(run) > chunk_size:
                if current:
                    chunks.append(current)
                    current = []
                chunks.append(run[:chunk_size])
                run = run[chunk_size:]
            if not run:
                continue
            if current and len(current) + len(run) > chunk_size:
                chunks.append(current)
                current = []
            current.extend(run)
        if current:
            chunks.append(current)
        return chunks

    def filter(self, plan: QueryPlan, tid: int):
        """Index-filtered candidates for one target (opaque per kind)."""
        raise NotImplementedError

    def candidate_count(self, candidates) -> int:
        return len(candidates)

    def group_refine(self, plan: QueryPlan, ctx, items):
        """Refine ``[(tid, candidates), ...]``; returns per-target states.

        On a deadline interrupt the refiner attaches per-target partials
        (``exc.partial_by_target``) before re-raising.
        """
        raise NotImplementedError

    def group_value(self, candidates, matches):
        """A target's committed ``(pairs_value | None, n_results)`` from
        its filter output and group-refined (possibly partial) matches."""
        raise NotImplementedError


def _sorted_ids(matches):
    """Sorted, de-duplicated source ids; ``None`` when there are none."""
    if not matches:
        return None, 0
    value = sorted(set(matches))
    return value, len(value)


class IntersectionStrategy(KindStrategy):
    def filter(self, plan, tid):
        box = plan.target.dataset.objects[tid].aabb
        return merge_payloads(plan.source.index()[0].query_intersecting(box))

    def group_refine(self, plan, ctx, items):
        return refine_intersection_group(ctx, items)

    def group_value(self, candidates, matches):
        return _sorted_ids(matches)


class WithinStrategy(KindStrategy):
    def filter(self, plan, tid):
        box = plan.target.dataset.objects[tid].aabb
        found = plan.source.index()[0].query_within(box, plan.spec.distance)
        definite = merge_payloads(found.definite)
        candidates = merge_payloads(
            p for p in found.candidates if p[0] not in definite
        )
        return definite, candidates

    def candidate_count(self, candidates) -> int:
        _definite, open_candidates = candidates
        return len(open_candidates)

    def group_refine(self, plan, ctx, items):
        return refine_within_group(ctx, items, plan.spec.distance)

    def group_value(self, candidates, matches):
        definite, _open = candidates
        return _sorted_ids([*definite, *matches])


class KnnStrategy(KindStrategy):
    def filter(self, plan, tid):
        k = plan.spec.k
        box = plan.target.dataset.objects[tid].aabb
        # For k = 1 the part-level bound is already the object-level
        # bound: an object whose every part has MINDIST above the
        # smallest part MAXDIST is farther than the nearest object, and
        # the part realizing an object's distance always survives. For
        # k > 1, k objects may own up to k * PARTS of the smallest part
        # ranges, so keep that many.
        rtree, partitions = plan.source.index()
        k_entries = k if k == 1 else k * (PARTS if partitions else 1)
        raw = rtree.query_nn_candidates(box, k=k_entries)
        return merge_nn_payloads(raw)

    def group_refine(self, plan, ctx, items):
        return refine_nn(ctx, items, k=plan.spec.k)

    def group_value(self, candidates, matches):
        # ``matches`` is the ranked top-k of (sid, distance, exact).
        if not matches:
            return None, 0
        return list(matches), len(matches)


class ContainmentStrategy(KindStrategy):
    counts_targets = False

    def target_ids(self, plan):
        return [0]  # the query point is the single pseudo-target

    def filter(self, plan, tid):
        point = plan.spec.point
        probe = AABB(point, point)
        payloads = plan.source.index()[0].query_intersecting(probe)
        return sorted({obj_id for obj_id, _part in payloads})

    def group_refine(self, plan, ctx, items):
        ((tid, candidates),) = items
        provider = plan.source.provider
        top = max((provider.max_lod(sid) for sid in candidates), default=0)
        lods = (
            (top,) if plan.config.paradigm == "fr" else tuple(range(top + 1))
        )
        return refine_containment(ctx, tid, plan.spec.point, candidates, lods)

    def group_value(self, candidates, matches):
        # The point always answers, even with no containing object.
        value = sorted(matches)
        return value, len(value)


STRATEGIES = {
    "intersection": IntersectionStrategy(),
    "within": WithinStrategy(),
    "knn": KnnStrategy(),
    "containment": ContainmentStrategy(),
}
