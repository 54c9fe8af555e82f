"""Progressive refinement: the paper's Algorithms 1, 2, and 3.

Each algorithm refines a *group* of target objects against their
filtered candidates over an ascending LOD schedule, settling (pruning)
candidates as early as the progressive-approximation properties allow:

* intersection — an intersecting face pair at any LOD settles the pair
  as a result (property 1); containment is checked at the top LOD;
* within — a distance ≤ D at any LOD settles the pair as a result
  (property 2: low-LOD distance upper-bounds the true distance);
* nearest neighbor — each LOD tightens every candidate's MAXDIST, and
  candidates whose MINDIST exceeds the target's k-th smallest MAXDIST
  are dropped; the range collapses to the exact distance at the top LOD;
* point containment — a point inside any LOD is inside the object; the
  query point is the group's one target.

Under the FR paradigm the same functions run with a single-entry LOD
schedule (the top LOD), which reduces them to classical refinement.

One round driver: every algorithm is the same loop, :func:`_refine`,
over an ascending LOD schedule. A round decodes every active target and
its surviving candidates (*gather*), hands the round's jobs to one
evaluator call (*evaluate*), and applies the verdicts per target in
order (*settle*). An algorithm supplies only what differs: its gather,
its evaluator (face-pair intersection, face-pair distance, or ray-cast
probes), its settle step, what happens when a target fails to decode,
and — for nearest neighbor — when a target leaves the rounds early.
Intersection's containment stage and the ``exact_nn_distances`` pass are
one more round at the top LOD. Both face-pair evaluators (intersection
and distance) are the fused wave kernels of :mod:`repro.core.batch`,
which take all jobs of the round in a few kernel calls. Pair
classifications are per-lane deterministic and ``min`` is exact, so
results, funnel, and ledger do not depend on how targets are grouped: an
executor chunk runs as one group, a streamed query runs each target as a
group of one (which keeps its progress frames target-major), and
:func:`refine_intersection` / :func:`refine_within` are the same rounds
over a group of one under a single-target calling contract.

Degraded mode: when an object's stored geometry cannot be decoded even
at LOD 0 (see :class:`~repro.core.errors.DecodeFailureError`), each
algorithm falls back to the last rung of the ladder — MBB-only
evaluation at "LOD -1" — in whatever way keeps the returned results a
*correct subset* of the clean answer:

* intersection — an MBB overlap proves nothing about the meshes, so an
  undecodable candidate is dropped and an undecodable target yields only
  the pairs already confirmed;
* within — MAXDIST of the two MBBs upper-bounds the true distance, so
  ``MAXDIST <= D`` still soundly *confirms* a pair; pairs it cannot
  confirm are dropped;
* nearest neighbor — undecodable candidates keep their MBB
  ``[MINDIST, MAXDIST]`` ranges and are never marked ``exact``.

Every degraded object is charged against the context's error budget
(:class:`~repro.core.errors.ErrorBudgetExceededError` when exceeded).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core import batch
from repro.core.errors import (
    DeadlineExceededError,
    DecodeFailureError,
    ErrorBudgetExceededError,
)
from repro.geometry.aabb import box_maxdist
from repro.geometry.raycast import points_in_polyhedra
from repro.obs.trace import DISABLED_TRACER

__all__ = [
    "RefineContext",
    "NNCandidate",
    "GroupState",
    "refine_intersection",
    "refine_intersection_group",
    "refine_within",
    "refine_within_group",
    "refine_nn",
    "refine_containment",
]

_ALL_PARTS = None  # candidate part sentinel: evaluate every face

# Per-survivor codes of the face-pair gather; non-negative values are
# indices into the round's shared job list.
_DEGRADED = -1  # undecodable (or unconfirmable empty mesh)
_MISS = -2  # no faces to evaluate (empty mesh or partition mask)


@dataclass
class NNCandidate:
    """A nearest-neighbor candidate with its evolving distance range."""

    sid: int
    mindist: float
    maxdist: float
    parts: object = _ALL_PARTS
    exact: bool = False


@dataclass
class RefineContext:
    """Everything a refinement pass needs for one (target, source) join."""

    computer: object  # GeometryComputer
    stats: object  # QueryStats
    target_provider: object  # DecodedObjectProvider
    source_provider: object
    source_partitions: dict = field(default_factory=dict)
    lods: tuple[int, ...] = ()
    exact_nn_distances: bool = False
    # Span tracer (repro.obs.trace); the disabled singleton hands out
    # no-op spans, so refinement stays uninstrumented-cost by default.
    tracer: object = DISABLED_TRACER
    # Degraded-mode bookkeeping: distinct degraded (side, id) keys seen,
    # the "this answer touched degraded geometry" flag the group rounds
    # accrue per target (_accruing_touches), and the error budget (None = off).
    # Contexts are per-chunk; the executor re-derives the distinct count
    # and the budget from the union of every chunk's keys.
    max_decode_failures: int | None = None
    degraded_keys: set = field(default_factory=set)
    touched_degraded: bool = False
    # Optional repro.core.deadline.Deadline; refinement checks it at
    # every round and candidate batch (None keeps checkpoints free).
    deadline: object = None
    # Progressive-results hook (QuerySpec.progress): a callable
    # ``(target_id, lod, matches)`` invoked as pairs confirm, plus the
    # target currently being refined. FPR never revokes a
    # confirmation, so every emission is final — the serve layer streams
    # them to clients before the query completes.
    progress: object = None
    progress_target: object = None
    # Optional worker-liveness callable (process-backend heartbeat),
    # invoked alongside the deadline check at every batch flush so hang
    # detection keeps that granularity.
    heartbeat: object = None
    # Memoized per-(side, object, served-LOD) face AABBs for the
    # intersection containment stage, with hit/miss counters the cache
    # tests assert on. Contexts are per-chunk, so no locking is needed.
    aabb_cache_hits: int = 0
    aabb_cache_misses: int = 0
    _aabb_cache: dict = field(default_factory=dict)

    # -- cooperative cancellation ----------------------------------------------

    def emit_confirmed(self, lod: int, matches) -> None:
        """Push newly confirmed ``matches`` at ``lod`` to the progress hook.

        ``lod`` uses the funnel's conventions: a real LOD for per-round
        confirmations, ``-1`` for filter-level confirmations (within's
        definite matches), ``-2`` for final-selection confirmations
        (NN's top-k). No-op without a hook or without matches.
        """
        if self.progress is not None and matches:
            self.progress(self.progress_target, lod, list(matches))

    def checkpoint(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.deadline is not None:
            self.deadline.check(where)

    def batch_tick(self) -> None:
        """Per-flush checkpoint of the round evaluators: liveness + deadline."""
        if self.heartbeat is not None:
            self.heartbeat()
        self.checkpoint("refine_batch")

    # -- the pairs ledger (the funnel's per-LOD stages) --------------------------

    def ledger_evaluated(self, lod: int, n: int) -> None:
        """Charge ``n`` pairs as refined at ``lod``."""
        if not n:
            return
        self.stats.funnel.stage(lod).evaluated += n

    def ledger_settled(
        self, lod: int, confirmed: int = 0, rejected: int = 0, degraded: int = 0
    ) -> None:
        """Settle pairs at ``lod``, classified by *how* they settled.

        ``confirmed`` became results, ``rejected`` are definite
        non-results, ``degraded`` were settled (dropped or confirmed via
        an upper bound) on degraded geometry. The sum is the stage's
        ``settled`` (read back as ``stats.pairs_pruned_by_lod``).
        """
        settled = confirmed + rejected + degraded
        if not settled:
            return
        stage = self.stats.funnel.stage(lod)
        stage.settled += settled
        stage.confirmed += confirmed
        stage.rejected += rejected
        stage.degraded += degraded

    # -- degraded-mode accounting ----------------------------------------------

    def note_degraded(self, side: str, obj_id: int) -> None:
        """Record that this answer leaned on degraded geometry.

        Raises :class:`ErrorBudgetExceededError` when the number of
        distinct degraded objects exceeds ``max_decode_failures``.
        """
        self.touched_degraded = True
        key = (side, obj_id)
        if key not in self.degraded_keys:
            self.degraded_keys.add(key)
            self.stats.degraded_objects += 1
        if (
            self.max_decode_failures is not None
            and len(self.degraded_keys) > self.max_decode_failures
        ):
            raise ErrorBudgetExceededError(
                self.max_decode_failures,
                len(self.degraded_keys),
                query=getattr(self.stats, "query", ""),
            )

    def box_upper_bound(self, target_id: int | None, source_id: int) -> float:
        """MBB-based upper bound on the target-source distance ("LOD -1")."""
        if target_id is None:
            return math.inf
        return box_maxdist(
            self.target_provider.objects[target_id].aabb,
            self.source_provider.objects[source_id].aabb,
        )

    # -- decoding -------------------------------------------------------------

    def decode_target(self, obj_id: int, lod: int):
        try:
            dec = self.target_provider.get(
                obj_id,
                min(lod, self.target_provider.max_lod(obj_id)),
                deadline=self.deadline,
                stats=self.stats,
            )
        except DecodeFailureError:
            self.note_degraded("target", obj_id)
            raise
        if dec.degraded:
            self.note_degraded("target", obj_id)
        return dec

    def decode_source(self, obj_id: int, lod: int):
        try:
            dec = self.source_provider.get(
                obj_id,
                min(lod, self.source_provider.max_lod(obj_id)),
                deadline=self.deadline,
                stats=self.stats,
            )
        except DecodeFailureError:
            self.note_degraded("source", obj_id)
            raise
        if dec.degraded:
            self.note_degraded("source", obj_id)
        return dec

    def _decode_source_or_none(self, obj_id: int, lod: int):
        try:
            return self.decode_source(obj_id, lod)
        except DecodeFailureError:
            return None

    # -- face selection (partition acceleration) -------------------------------

    def source_faces(self, dec, obj_id: int, parts):
        """Triangles of a source object, restricted to candidate parts."""
        partition = self.source_partitions.get(obj_id)
        if parts is _ALL_PARTS or partition is None:
            return dec.triangles
        groups = dec.groups(partition)
        mask = np.isin(groups, np.fromiter(parts, dtype=np.int64))
        return dec.triangles[mask]

    # -- memoized face AABBs (intersection containment stage) -------------------

    def faces_aabb(self, side: str, obj_id: int, dec):
        """The (min, max) corners of a decoded object's faces, memoized.

        Keyed by the *served* LOD (``dec.lod`` — degraded decodes may
        serve a lower rung than requested), so every containment-stage
        visit after the first is a dictionary hit instead of a full
        reduction over the triangle array.
        """
        key = (side, obj_id, dec.lod)
        box = self._aabb_cache.get(key)
        if box is not None:
            self.aabb_cache_hits += 1
            return box
        self.aabb_cache_misses += 1
        box = _faces_aabb(dec)
        self._aabb_cache[key] = box
        return box

    # -- round evaluators --------------------------------------------------------

    def _evaluate(self, jobs: list, lod: int, waves, **kernel_args) -> list:
        """One result per ``(tris_t, tris_s)`` job of a round.

        Every job goes to ``waves`` — the fused kernels of
        :mod:`repro.core.batch` — at once, ticking between flushes.
        """
        kernel_stats: dict = {}
        out = waves(
            self.computer, jobs,
            stats=kernel_stats, checkpoint=self.batch_tick, **kernel_args,
        )
        self.stats.face_pairs_by_lod[lod] += kernel_stats.get("pairs", 0)
        return out

    def any_intersect(self, jobs: list, lod: int) -> list[bool]:
        """Per job, whether any face pair between the two sides intersects."""
        return self._evaluate(jobs, lod, batch.batched_any_intersect)

    def min_distances(self, jobs: list, lod: int, stop_below: float = 0.0) -> list[float]:
        """Per job, the minimum face-pair distance (early exit at ``stop_below``).

        With ``stop_below > 0`` only ``value <= stop_below`` is answered:
        a job that does not settle reports some value above it.
        """
        return self._evaluate(
            jobs, lod, batch.batched_min_distances, stop_below=stop_below
        )

    def points_inside(self, probes: list, lod: int) -> list[bool]:
        """Per ``(point, triangles)`` probe, whether the point is inside."""
        return points_in_polyhedra(probes, checkpoint=self.batch_tick)


class GroupState:
    """Per-target progress through one group refinement."""

    __slots__ = ("tid", "survivors", "results", "done", "touched")

    def __init__(self, tid: int, survivors):
        self.tid = tid
        self.survivors = survivors
        self.results: list = []  # source ids; (sid, distance, exact) for NN
        self.done = False
        self.touched = False


@contextmanager
def _accruing_touches(ctx: RefineContext, s: GroupState):
    """Accrue the block's degraded-geometry touches to ``s.touched``."""
    ctx.touched_degraded = False
    try:
        yield
    finally:
        s.touched |= ctx.touched_degraded


def _confirm(ctx: RefineContext, s: GroupState, lod: int, matches: list[int]) -> None:
    """Append newly confirmed ``matches`` to the state and stream them."""
    s.results.extend(matches)
    ctx.progress_target = s.tid
    ctx.emit_confirmed(lod, matches)


def _attach_group_partial(exc: DeadlineExceededError, states) -> None:
    """Hang each state's confirmed-so-far results off the interrupt.

    Every appended result was final the moment it was appended (FPR
    never revokes a confirmation), so the per-target partials are sound
    subsets regardless of where in the group the budget ran out.
    """
    exc.partial_by_target = {s.tid: list(s.results) for s in states}
    exc.group_touched = {s.tid for s in states if s.touched}
    exc.group_finished = sum(1 for s in states if s.done)


def _group_of_one(ctx: RefineContext, target_id: int, run_group) -> list[int]:
    """Run a one-target group under the single-target calling contract.

    The caller reads ``ctx.touched_degraded`` afterwards, and a deadline
    interrupt carries the confirmed-so-far ids out as ``exc.partial``.
    """
    try:
        (state,) = run_group()
    except DeadlineExceededError as exc:
        exc.partial = exc.partial_by_target[target_id]
        ctx.touched_degraded = target_id in exc.group_touched
        raise
    ctx.touched_degraded = state.touched
    return state.results


# -- the round driver ------------------------------------------------------------


def _mark_done(s: GroupState) -> None:
    s.done = True


class _Kind(NamedTuple):
    """What one algorithm plugs into the round driver (:func:`_refine`).

    ``gather(s, dec_t, lod, jobs)`` queues a state's work on the round's
    shared ``jobs`` list and returns the payload its ``settle(s, dec_t,
    payload, verdicts, lod)`` reads back, after one ``evaluate(jobs,
    lod)`` call answered every job of the round; ``settle`` returns how
    many pairs it settled.
    """

    query: str  # span label and checkpoint prefix
    gather: Callable
    evaluate: Callable
    settle: Callable
    # ``(s, lod)`` when the target fails to decode; None: no target.
    target_failed: Callable | None
    stays: Callable = lambda s, lod: bool(s.survivors)  # refine s at lod?
    leave: Callable = _mark_done  # s stops refining
    finish: Callable | None = None  # after the rounds; default: leave all
    # The span shape each kind has always had: NN calls no evaluator and
    # reports no settled count in a round where no target decoded, and
    # point containment never reports a settled count.
    skip_empty: bool = False
    count_settled: bool = True


def _refine(ctx: RefineContext, states, lods, kind: _Kind) -> list[GroupState]:
    """The one round loop: Algorithms 1-3 and point containment.

    Rounds run LOD-major over the states still refining: a state whose
    ``kind.stays`` fails leaves before the round (with no survivors left
    it always does), and each round is one :func:`_round` under a
    ``refine`` span. The states that ran the last round go to
    ``kind.finish``. A deadline interrupt attaches per-target partials
    (``exc.partial_by_target``) plus the touched/finished bookkeeping the
    executor commits from.
    """
    try:
        running = []
        for s in states:
            if s.survivors:
                running.append(s)
            else:
                kind.leave(s)
        for lod in lods:
            active = []
            for s in running:
                if kind.stays(s, lod):
                    active.append(s)
                else:
                    kind.leave(s)
            running = []
            if not active:
                break
            ctx.checkpoint(f"{kind.query}_round")
            survivors = sum(len(s.survivors) for s in active)
            with ctx.tracer.span("refine", query=kind.query, lod=lod,
                                 survivors=survivors) as round_span:
                running, settled = _round(ctx, active, lod, kind)
                if settled is not None and kind.count_settled:
                    round_span.set(settled=settled)
        if kind.finish is not None:
            kind.finish(running)
        else:
            for s in running:
                kind.leave(s)
    except DeadlineExceededError as exc:
        _attach_group_partial(exc, states)
        raise
    return states


def _round(ctx: RefineContext, active, lod: int, kind: _Kind, charge: bool = True):
    """One gather → evaluate → settle round over ``active`` at ``lod``.

    Gather decodes each state's target and survivors, per state in
    order, so the provider's request sequence for a target does not
    depend on which other targets share the round; a target that fails
    to decode goes to ``kind.target_failed`` instead. One evaluator call
    answers the whole round, and the verdicts settle per state in order.
    ``charge=False`` is for follow-up rounds over pairs the schedule has
    already charged to the ledger. Returns the gathered states and the
    pairs they settled (None when the round evaluated nothing).
    """
    jobs: list = []
    gathered = []
    for s in active:
        with _accruing_touches(ctx, s):
            dec_t = None
            if kind.target_failed is not None:
                try:
                    dec_t = ctx.decode_target(s.tid, lod)
                except DecodeFailureError:
                    kind.target_failed(s, lod)
                    continue
            if charge:
                ctx.ledger_evaluated(lod, len(s.survivors))
            gathered.append((s, dec_t, kind.gather(s, dec_t, lod, jobs)))
    if kind.skip_empty and not gathered:
        return [], None
    verdicts = kind.evaluate(jobs, lod)
    settled = 0
    for s, dec_t, payload in gathered:
        settled += kind.settle(s, dec_t, payload, verdicts, lod)
    return [s for s, _dec_t, _payload in gathered], settled


def _gather_face_pairs(
    ctx: RefineContext, dec_t, pairs, lod: int, jobs: list, drop_empty: bool = False
):
    """Decode each ``(sid, parts)`` survivor in order; queue its face pairs.

    Returns ``(codes, rough)``. A code is the index of the survivor's job
    in the shared ``jobs`` list, ``_DEGRADED`` (undecodable — or, with
    ``drop_empty``, a decodable-but-empty mesh, which can never be
    confirmed) or ``_MISS`` (no faces to evaluate: an empty mesh or
    partition mask). ``rough`` flags the survivors whose distance can
    only be an upper bound: the decode failed outright or was served
    degraded (LOD fallback or salvaged geometry). A flag depends only on
    its own decode, never on what other targets decoded earlier, which
    keeps NN exactness identical between serial and parallel execution.
    """
    codes: list[int] = []
    rough: list[bool] = []
    for sid, parts in pairs:
        dec_s = ctx._decode_source_or_none(sid, lod)
        if dec_s is None:
            codes.append(_DEGRADED)
            rough.append(True)
            continue
        rough.append(bool(dec_s.degraded))
        if drop_empty and dec_s.num_faces == 0:
            ctx.note_degraded("source", sid)
            codes.append(_DEGRADED)
            continue
        tris_s = ctx.source_faces(dec_s, sid, parts)
        if len(tris_s) == 0:
            codes.append(_MISS)
        else:
            codes.append(len(jobs))
            jobs.append((dec_t.triangles, tris_s))
    return codes, rough


def _distances(ctx: RefineContext, tid: int, sids, codes, dists) -> list[float]:
    """Per survivor: its job's distance, ``inf`` with no faces to measure,
    or the MBB upper bound ("LOD -1") when it could not be decoded."""
    return [
        dists[code] if code >= 0
        else math.inf if code == _MISS
        else ctx.box_upper_bound(tid, sid)
        for sid, code in zip(sids, codes)
    ]


def _gather_probes(ctx: RefineContext, sids, lod: int, probes: list, probes_for, where: str):
    """Decode each survivor in order; queue its ray-cast probes.

    ``probes_for(sid, dec_s)`` gives the survivor's ``(point, triangles)``
    probes, or None when its geometry cannot settle it. Returns ``(sids,
    codes)``: per survivor the range of its probes in the shared
    ``probes`` list, or None (undecodable or unsettleable: dropped).
    """
    codes = []
    for sid in sids:
        ctx.checkpoint(where)
        dec_s = ctx._decode_source_or_none(sid, lod)
        found = None if dec_s is None else probes_for(sid, dec_s)
        if found is None:
            codes.append(None)
            continue
        codes.append(range(len(probes), len(probes) + len(found)))
        probes.extend(found)
    return sids, codes


def _settle_probes(
    ctx: RefineContext, s: GroupState, payload, contained, lod: int, top_lod: int
) -> int:
    """A survivor with any probe inside is confirmed (inside a subset is
    inside); below ``top_lod`` the others survive, at it they are
    rejected. Dropped survivors settle degraded."""
    sids, codes = payload
    remaining = []
    confirmed = []
    degraded = 0
    for sid, code in zip(sids, codes):
        if code is None:
            degraded += 1
        elif any(contained[i] for i in code):
            confirmed.append(sid)
        elif lod < top_lod:
            remaining.append(sid)
    ctx.ledger_settled(
        lod,
        confirmed=len(confirmed),
        degraded=degraded,
        rejected=len(sids) - len(remaining) - len(confirmed) - degraded,
    )
    _confirm(ctx, s, lod, confirmed)
    s.survivors = remaining
    return len(sids) - len(remaining)


# -- Algorithm 1: intersection -------------------------------------------------


def refine_intersection(ctx: RefineContext, target_id: int, candidates: dict) -> list[int]:
    """Source ids that truly intersect the target (Algorithm 1).

    A group of one over :func:`refine_intersection_group`. MBB overlap
    cannot *confirm* a mesh intersection, so degraded mode only ever
    shrinks this answer: an undecodable candidate is dropped, and an
    undecodable target returns the pairs already confirmed at the LODs
    that did decode (a correct subset, by property 1).

    A deadline interrupt carries the confirmed-so-far ids out on the
    exception (``exc.partial``) — each is final the moment it is
    appended (property 1 again), so the partial answer is sound.
    """
    return _group_of_one(
        ctx, target_id,
        lambda: refine_intersection_group(ctx, [(target_id, candidates)]),
    )


def refine_intersection_group(ctx: RefineContext, items) -> list[GroupState]:
    """Refine many targets' intersection candidates as one group.

    ``items`` is ``[(target_id, candidates), ...]`` in execution order.
    Rounds run LOD-major (see :func:`_refine`), so per-pair
    classifications, each target's results order, funnel, and ledger do
    not depend on the grouping. An undecodable target stops with the
    pairs it already confirmed. The survivors of the top LOD then go
    through the containment stage — one follow-up round of batched ray
    casts. Confirmations stream through the progress hook per target
    and round.
    """
    top_lod = ctx.lods[-1]

    def settle(s, _dec_t, payload, hits, lod):
        codes, _rough = payload
        remaining = []
        confirmed = []
        degraded = 0
        for pair, code in zip(s.survivors, codes):
            if code == _DEGRADED:
                degraded += 1
            elif code >= 0 and hits[code]:
                confirmed.append(pair[0])
            else:
                remaining.append(pair)
        s.survivors = remaining
        ctx.ledger_settled(lod, confirmed=len(confirmed), degraded=degraded)
        _confirm(ctx, s, lod, confirmed)
        return len(confirmed) + degraded

    def finish(running):
        _round(
            ctx, [s for s in running if s.survivors], top_lod,
            _containment_stage(ctx, top_lod), charge=False,
        )
        for s in running:
            s.done = True

    return _refine(ctx, [
        GroupState(tid, list(candidates.items())) for tid, candidates in items
    ], ctx.lods, _Kind(
        query="intersection",
        gather=lambda s, dec_t, lod, jobs: _gather_face_pairs(
            ctx, dec_t, s.survivors, lod, jobs, drop_empty=lod == top_lod
        ),
        evaluate=ctx.any_intersect,
        settle=settle,
        target_failed=lambda s, lod: _mark_done(s),
        finish=finish,
    ))


def _containment_stage(ctx: RefineContext, top_lod: int) -> _Kind:
    """Algorithm 1 steps 8-12: no face pair intersects, but one object
    may contain the other entirely — probe each with a vertex of the
    other wherever the face boxes allow it."""

    def gather(s, dec_t, _lod, probes):
        sids = [sid for sid, _parts in s.survivors]
        if dec_t.num_faces == 0:
            # Salvage loading can yield a decodable-but-empty mesh; there
            # is no bounding box (and no probe vertex) to test, so
            # containment is unprovable and the survivors are dropped —
            # the answer stays a correct subset.
            ctx.note_degraded("target", s.tid)
            return sids, [None] * len(sids)
        t_box = ctx.faces_aabb("target", s.tid, dec_t)

        def probes_for(sid, dec_s):
            if dec_s.num_faces == 0:
                ctx.note_degraded("source", sid)
                return None
            s_box = ctx.faces_aabb("source", sid, dec_s)
            # Both directions are queued when the boxes allow them:
            # probing the second after the first already confirmed has
            # no observable effect beyond time.
            found = []
            if _box_contains(t_box, s_box):
                found.append((dec_s.triangles[0, 0], dec_t.triangles))
            if _box_contains(s_box, t_box):
                found.append((dec_t.triangles[0, 0], dec_s.triangles))
            return found

        return _gather_probes(
            ctx, sids, top_lod, probes, probes_for, "intersection_containment_pair"
        )

    return _Kind(
        query="intersection_containment",
        gather=gather,
        evaluate=ctx.points_inside,
        settle=lambda s, _dec_t, payload, contained, lod: _settle_probes(
            ctx, s, payload, contained, lod, top_lod
        ),
        target_failed=lambda s, lod: None,  # keep the confirmed pairs
    )


def _faces_aabb(dec) -> tuple[np.ndarray, np.ndarray]:
    tris = dec.triangles
    return tris.min(axis=(0, 1)), tris.max(axis=(0, 1))


def _box_contains(outer, inner) -> bool:
    return bool((outer[0] <= inner[0]).all() and (inner[1] <= outer[1]).all())


# -- Algorithm 2: within ---------------------------------------------------------


def refine_within(
    ctx: RefineContext, target_id: int, candidates: dict, distance: float
) -> list[int]:
    """Source ids truly within ``distance`` of the target (Algorithm 2).

    A group of one over :func:`refine_within_group`, with no filter-level
    definite matches. In degraded mode a measured distance is replaced
    by the MBB MAXDIST upper bound ("LOD -1"): ``MAXDIST <= distance``
    still soundly confirms a pair, and anything unconfirmable is
    excluded — the answer stays a correct subset.

    A deadline interrupt carries the confirmed-so-far ids out on the
    exception (``exc.partial``): a distance ≤ D at any LOD settles the
    pair for good (property 2), so the partial answer is sound.
    """
    return _group_of_one(
        ctx, target_id,
        lambda: refine_within_group(ctx, [(target_id, ((), candidates))], distance),
    )


def refine_within_group(
    ctx: RefineContext, items, distance: float
) -> list[GroupState]:
    """Refine many targets' within candidates as one group.

    ``items`` is ``[(target_id, (definite, open_candidates)), ...]`` —
    the filter's split, exactly as :meth:`WithinStrategy.filter` returns
    it. The definite matches are booked on the funnel and streamed here;
    the executor folds them into each committed value. An undecodable
    target settles all its survivors from MBB upper bounds. See
    :func:`_refine` for the round structure and interrupt contract.
    """
    states = []
    for tid, (definite, open_candidates) in items:
        # The filter's definite matches are confirmed without any
        # refinement; the funnel books them at the query level so
        # confirmed_total still reconciles with the result count, and
        # they stream at pseudo-LOD -1, matching that bucket.
        ctx.stats.funnel.filter_confirmed += len(definite)
        ctx.progress_target = tid
        ctx.emit_confirmed(-1, sorted(definite))
        states.append(GroupState(tid, list(open_candidates.items())))
    top_lod = ctx.lods[-1]

    def settle(s, dec_t, payload, dists, lod):
        # Exact distances exclude at the top LOD; a rough distance
        # (degraded decode on either side, or MBB fallback) is only an
        # upper bound, so its exclusion is a degraded-mode drop.
        codes, rough = payload
        measured = _distances(ctx, s.tid, (sid for sid, _parts in s.survivors), codes, dists)
        remaining = []
        confirmed = []
        rejected = degraded = 0
        for pair, dist, inexact in zip(s.survivors, measured, rough):
            if dist <= distance:
                confirmed.append(pair[0])
            elif lod == top_lod:
                if inexact or dec_t.degraded:
                    degraded += 1
                else:
                    rejected += 1
            else:
                remaining.append(pair)
        s.survivors = remaining
        ctx.ledger_settled(
            lod, confirmed=len(confirmed), rejected=rejected, degraded=degraded
        )
        _confirm(ctx, s, lod, confirmed)
        return len(confirmed) + rejected + degraded

    return _refine(ctx, states, ctx.lods, _Kind(
        query="within",
        gather=lambda s, dec_t, lod, jobs: _gather_face_pairs(
            ctx, dec_t, s.survivors, lod, jobs
        ),
        evaluate=lambda jobs, lod: ctx.min_distances(jobs, lod, stop_below=distance),
        settle=settle,
        target_failed=lambda s, lod: _within_mbb_fallback(ctx, s, lod, distance),
    ))


def _within_mbb_fallback(ctx: RefineContext, s: GroupState, lod: int, distance: float) -> None:
    """Undecodable target: settle its whole state from box upper bounds.

    MBB-only: confirm what the box upper bound alone can prove. These
    fallback evaluations stay on the pairs ledger — charged to the LOD
    whose decode failed — and every survivor settles here (confirmed or
    excluded), so pruned ≤ evaluated holds per LOD in degraded runs too.
    """
    ctx.ledger_evaluated(lod, len(s.survivors))
    confirmed = [
        sid for sid, _parts in s.survivors
        if ctx.box_upper_bound(s.tid, sid) <= distance
    ]
    ctx.ledger_settled(
        lod, confirmed=len(confirmed), degraded=len(s.survivors) - len(confirmed)
    )
    _confirm(ctx, s, lod, confirmed)
    s.survivors = []
    s.done = True


# -- Algorithm 3: nearest neighbor ----------------------------------------------


def refine_nn(ctx: RefineContext, items, k: int = 1) -> list[GroupState]:
    """The ``k`` nearest candidates of many targets, as one group (Algorithm 3).

    ``items`` is ``[(target_id, candidates), ...]``, each candidate an
    :class:`NNCandidate` entering with its MBB-based [MINDIST, MAXDIST]
    range. Each LOD's measured distance replaces MAXDIST (a valid upper
    bound, by property 2) and a target's pruning bound is its k-th
    smallest MAXDIST. At the top LOD ranges collapse and the result is
    exact; a target whose pruning leaves only ``k`` candidates earlier
    leaves the rounds with its ranges still open (``exact=False``) — the
    early return that gives FPR its nearest-neighbor speedups. So does a
    target that fails to decode: its candidates keep the ranges already
    established.

    A state finishes the moment it leaves the rounds (after the
    ``exact_nn_distances`` round, when that is on): its ``results``
    become the ``(source_id, distance, exact)`` triples of its top-k,
    booked as final-selection confirmations and streamed at pseudo-LOD
    -2. See :func:`_refine` for the round structure and interrupt
    contract; an interrupted target's partial is empty, since a top-k
    exists only once elimination finishes.
    """
    states = [
        GroupState(tid, _mbb_prune(ctx, candidates, k)) for tid, candidates in items
    ]
    top_lod = ctx.lods[-1]

    def leave(s):
        # Without the exact round, leaving the rounds is finishing.
        if not ctx.exact_nn_distances:
            _finish_nn(ctx, s, k)

    def settle(s, dec_t, payload, dists, lod):
        _tighten(ctx, s, dec_t, payload, dists, collapse=lod == top_lod)
        # Prune with the ranges this LOD just tightened, crediting the
        # prune to this LOD (Section 4.4's "pairs pruned by refining at
        # LOD i" — the quantity the schedule profiling feeds on).
        minmax = _kth_smallest((c.maxdist for c in s.survivors), k)
        kept = [c for c in s.survivors if c.mindist <= minmax]
        pruned = len(s.survivors) - len(kept)
        ctx.ledger_settled(lod, rejected=pruned)
        s.survivors = kept
        return pruned

    def finish(running):
        if not ctx.exact_nn_distances:
            for s in running:
                leave(s)
            return
        # One more round at the top LOD over every open range; it
        # re-measures what the schedule charged, so it is not charged.
        _round(
            ctx, [s for s in states if any(not c.exact for c in s.survivors)],
            top_lod, _exact_nn_round(ctx), charge=False,
        )
        for s in states:
            _finish_nn(ctx, s, k)

    return _refine(ctx, states, ctx.lods, _Kind(
        query="nn",
        gather=lambda s, dec_t, lod, jobs: (s.survivors, *_gather_face_pairs(
            ctx, dec_t, [(c.sid, c.parts) for c in s.survivors], lod, jobs
        )),
        evaluate=ctx.min_distances,
        settle=settle,
        target_failed=lambda s, lod: leave(s),
        # Early NN determination without decoding further LODs.
        stays=lambda s, lod: len(s.survivors) > k or lod == top_lod,
        leave=leave,
        finish=finish,
        skip_empty=True,
    ))


def _exact_nn_round(ctx: RefineContext) -> _Kind:
    """``exact_nn_distances``: measure every open range at the top LOD."""

    def gather(s, dec_t, lod, jobs):
        pending = [c for c in s.survivors if not c.exact]
        return (pending, *_gather_face_pairs(
            ctx, dec_t, [(c.sid, c.parts) for c in pending], lod, jobs
        ))

    return _Kind(
        query="nn_exact",
        gather=gather,
        evaluate=ctx.min_distances,
        settle=lambda s, dec_t, payload, dists, lod: _tighten(
            ctx, s, dec_t, payload, dists, collapse=True
        ),
        target_failed=lambda s, lod: None,  # the ranges stay open
        skip_empty=True,
    )


def _tighten(ctx: RefineContext, s: GroupState, dec_t, payload, dists, collapse: bool) -> int:
    """Tighten each gathered candidate's range with its measured distance.

    With ``collapse`` (the top LOD) an exact measurement collapses the
    range to the distance. Do NOT keep a previously-tightened MAXDIST
    there: kernel summation order differs between LODs, so an earlier
    bound can sit an ulp *below* the exact value, leaving mindist >
    maxdist and pruning the true nearest neighbor away. Anything else —
    a pre-top LOD, a degraded decode on either side (the measured
    distance is only an upper bound then), or an undecodable candidate
    whose "distance" is the MBB upper bound — tightens, never collapses
    or marks exact.
    """
    cands, codes, rough = payload
    measured = _distances(ctx, s.tid, (c.sid for c in cands), codes, dists)
    for cand, dist, inexact in zip(cands, measured, rough):
        if collapse and not dec_t.degraded and not inexact:
            cand.maxdist = cand.mindist = float(dist)
            cand.exact = True
        else:
            cand.maxdist = min(cand.maxdist, float(dist))
    return 0  # tightening settles no pair


def _mbb_prune(ctx: RefineContext, candidates, k: int) -> list[NNCandidate]:
    """Initial prune from the MBB-based ranges alone (before any decoding)."""
    survivors = sorted(candidates, key=lambda c: c.mindist)
    minmax = _kth_smallest((c.maxdist for c in survivors), k)
    kept = [c for c in survivors if c.mindist <= minmax]
    ctx.stats.funnel.mbb_pruned += len(survivors) - len(kept)
    return kept


def _finish_nn(ctx: RefineContext, s: GroupState, k: int) -> None:
    """Select a state's top-k and confirm it.

    NN confirmation is by elimination: the survivors that end up in the
    top-k were never "settled" per LOD, so they are booked as
    query-level final confirmations for funnel reconciliation.
    """
    s.survivors.sort(key=lambda c: (c.maxdist, c.sid))
    nearest = s.survivors[:k]
    ctx.stats.funnel.confirmed_final += len(nearest)
    _confirm(ctx, s, -2, [(c.sid, c.maxdist, c.exact) for c in nearest])
    s.done = True


def _kth_smallest(values, k: int) -> float:
    """The k-th smallest value (ties counted), the max when ``k > len``.

    ``heapq.nsmallest`` is O(n log k) against the old full sort's
    O(n log n) — this runs once per NN round per target, over every
    surviving MAXDIST.
    """
    smallest = heapq.nsmallest(k, values)
    if not smallest:
        return math.inf
    return smallest[-1]


# -- point containment (Section 4.1 remark) --------------------------------------


def refine_containment(
    ctx: RefineContext, target_id: int, point, candidates: list[int],
    lods: tuple[int, ...],
) -> list[GroupState]:
    """Source ids whose mesh contains ``point``, with progressive early accept.

    A point inside a lower-LOD mesh is inside the original (the LOD is a
    spatial subset), so containment is often confirmed without decoding
    further; only the top LOD can *exclude* a candidate. An undecodable
    candidate is dropped — MBB containment proves nothing about the mesh,
    so the answer stays a correct subset.

    The query point is the one target (``target_id``) and has nothing to
    decode, so this is a group of one under the :func:`_refine` interrupt
    contract: each early accept is final, so the partial is sound.
    """
    top_lod = lods[-1]
    return _refine(ctx, [GroupState(target_id, list(candidates))], lods, _Kind(
        query="containment",
        gather=lambda s, _dec_t, lod, probes: _gather_probes(
            ctx, s.survivors, lod, probes,
            lambda sid, dec: [(point, dec.triangles)], "containment_pair",
        ),
        evaluate=ctx.points_inside,
        settle=lambda s, _dec_t, payload, contained, lod: _settle_probes(
            ctx, s, payload, contained, lod, top_lod
        ),
        target_failed=None,
        count_settled=False,
    ))
