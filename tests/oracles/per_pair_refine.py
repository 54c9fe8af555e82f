"""Reference oracle: Algorithms 1-3 and point containment, one pair at a time.

These are the per-target, per-pair refinement loops the engine shipped
before 2.0 (``batched_refine=False``) and, for nearest neighbors, the
per-target ``refine_nn`` it shipped until group NN — kept as the
reference the production group rounds of :mod:`repro.core.refine` are
compared against. Each candidate pair is decoded and evaluated by its
own ``GeometryComputer`` call, one target at a time, with no gather step
and no fused kernels — the simplest thing that implements the paper's
pseudo-code, built only on public
:class:`~repro.core.refine.RefineContext` methods,
``GeometryComputer.intersects`` / ``min_distance`` and
``point_in_polyhedron``.

:func:`installed` swaps the oracle into the query strategies of
:mod:`repro.core.plan` for the duration of a ``with`` block. The swap
is in-process only: it cannot reach spawned worker processes, so oracle
runs are serial (``query_workers=1``). ``installed(tree=True)`` runs
each pair kernel as one dual-tree traversal over an AABB-tree
(:class:`~tests.oracles.aabbtree.TriangleAABBTree`) of each whole
decode instead of a blocked loop — the paper's AABB-tree acceleration,
a second algorithm to check the waves against. Trees index whole
decodes: on a partitioned source, tree mode evaluates every part of a
candidate rather than only its candidate parts, which leaves the answer
unchanged but not the face-pair counts.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from repro.core import plan
from repro.core.errors import DeadlineExceededError, DecodeFailureError
from repro.core.refine import GroupState, _attach_group_partial, _kth_smallest
from repro.geometry.raycast import point_in_polyhedron
from tests.oracles.aabbtree import TriangleAABBTree

__all__ = [
    "refine_intersection",
    "refine_within",
    "refine_nn",
    "refine_containment",
    "batch_min_distances",
    "installed",
]


def _with_partial(results: list[int], run) -> list[int]:
    """Run a loop that appends to ``results``; a deadline carries them out."""
    try:
        run()
    except DeadlineExceededError as exc:
        exc.partial = list(results)
        raise
    return results


# -- pair kernels ------------------------------------------------------------------

# Tree mode: ``id(dec) -> (dec, tree)`` while ``installed(tree=True)`` is
# active, else None. Holding the decode keeps its id from being reused.
_trees: dict | None = None


def _tree(dec) -> TriangleAABBTree:
    entry = _trees.get(id(dec))
    if entry is None:
        entry = _trees[id(dec)] = (dec, TriangleAABBTree(dec.triangles))
    return entry[1]


def _pair_intersects(ctx, dec_t, dec_s, sid, parts, lod) -> bool:
    kernel_stats: dict = {}
    tris_s = ctx.source_faces(dec_s, sid, parts)
    if not (len(tris_s) and dec_t.num_faces):
        hit = False
    elif _trees is not None:
        hit = _tree(dec_t).intersects(_tree(dec_s), stats=kernel_stats)
    else:
        hit = ctx.computer.intersects(dec_t.triangles, tris_s, stats=kernel_stats)
    ctx.stats.face_pairs_by_lod[lod] += kernel_stats.get("pairs", 0)
    return hit


def _pair_min_distance(ctx, dec_t, dec_s, sid, parts, lod, stop_below) -> float:
    kernel_stats: dict = {}
    tris_s = ctx.source_faces(dec_s, sid, parts)
    if not (len(tris_s) and dec_t.num_faces):
        dist = math.inf
    elif _trees is not None:
        dist = _tree(dec_t).min_distance(
            _tree(dec_s), stop_below=stop_below, stats=kernel_stats
        )
    else:
        dist = ctx.computer.min_distance(
            dec_t.triangles, tris_s, stop_below=stop_below, stats=kernel_stats
        )
    ctx.stats.face_pairs_by_lod[lod] += kernel_stats.get("pairs", 0)
    return dist


def batch_min_distances(ctx, dec_t, survivors, lod, stop_below=0.0, target_id=None):
    """Distances from the target to many candidates at one LOD, per pair.

    Returns ``(distances, inexact)``: an undecodable candidate reports
    the MBB upper bound and is flagged inexact, as is a degraded decode.
    """
    dists: list[float] = []
    inexact: list[bool] = []
    for sid, parts in survivors:
        try:
            dec_s = ctx.decode_source(sid, lod)
        except DecodeFailureError:
            dists.append(ctx.box_upper_bound(target_id, sid))
            inexact.append(True)
            continue
        inexact.append(bool(dec_s.degraded))
        dists.append(_pair_min_distance(ctx, dec_t, dec_s, sid, parts, lod, stop_below))
    return dists, inexact


# -- Algorithm 1: intersection -------------------------------------------------------


def refine_intersection(ctx, target_id: int, candidates: dict) -> list[int]:
    results: list[int] = []
    return _with_partial(
        results, lambda: _intersection(ctx, target_id, candidates, results)
    )


def _intersection(ctx, target_id, candidates, results) -> None:
    survivors = dict(candidates)
    top_lod = ctx.lods[-1]
    for lod in ctx.lods:
        if not survivors:
            break
        ctx.checkpoint("intersection_round")
        with ctx.tracer.span("refine", query="intersection", lod=lod,
                             survivors=len(survivors)) as round_span:
            try:
                dec_t = ctx.decode_target(target_id, lod)
            except DecodeFailureError:
                return
            ctx.ledger_evaluated(lod, len(survivors))
            mark = len(results)
            settled = []
            degraded = 0
            for sid, parts in survivors.items():
                ctx.checkpoint("intersection_pair")
                try:
                    dec_s = ctx.decode_source(sid, lod)
                except DecodeFailureError:
                    settled.append(sid)  # unconfirmable candidate: drop
                    degraded += 1
                    continue
                if dec_s.num_faces == 0 and lod == top_lod:
                    # An empty mesh can never be confirmed: settle it here.
                    ctx.note_degraded("source", sid)
                    settled.append(sid)
                    degraded += 1
                    continue
                if _pair_intersects(ctx, dec_t, dec_s, sid, parts, lod):
                    results.append(sid)
                    settled.append(sid)
            for sid in settled:
                del survivors[sid]
            ctx.ledger_settled(lod, confirmed=len(results) - mark, degraded=degraded)
            ctx.emit_confirmed(lod, results[mark:])
            round_span.set(settled=len(settled))
    if survivors:
        _containment_stage(ctx, target_id, survivors, results)


def _box_contains(outer, inner) -> bool:
    return bool((outer[0] <= inner[0]).all() and (inner[1] <= outer[1]).all())


def _containment_stage(ctx, target_id, survivors, results) -> None:
    """Algorithm 1 steps 8-12: one object may contain the other entirely."""
    top_lod = ctx.lods[-1]
    try:
        dec_t = ctx.decode_target(target_id, top_lod)
    except DecodeFailureError:
        return
    if dec_t.num_faces == 0:
        ctx.note_degraded("target", target_id)
        ctx.ledger_settled(top_lod, degraded=len(survivors))
        return
    t_box = ctx.faces_aabb("target", target_id, dec_t)
    mark = len(results)
    degraded = 0
    for sid in survivors:
        ctx.checkpoint("intersection_containment_pair")
        try:
            dec_s = ctx.decode_source(sid, top_lod)
        except DecodeFailureError:
            degraded += 1
            continue
        if dec_s.num_faces == 0:
            ctx.note_degraded("source", sid)
            degraded += 1
            continue
        s_box = ctx.faces_aabb("source", sid, dec_s)
        if _box_contains(t_box, s_box) and point_in_polyhedron(
            dec_s.triangles[0, 0], dec_t.triangles
        ):
            results.append(sid)
        elif _box_contains(s_box, t_box) and point_in_polyhedron(
            dec_t.triangles[0, 0], dec_s.triangles
        ):
            results.append(sid)
    confirmed = len(results) - mark
    ctx.ledger_settled(
        top_lod,
        confirmed=confirmed,
        degraded=degraded,
        rejected=len(survivors) - confirmed - degraded,
    )
    ctx.emit_confirmed(top_lod, results[mark:])


# -- Algorithm 2: within -------------------------------------------------------------


def refine_within(ctx, target_id: int, candidates: dict, distance: float) -> list[int]:
    results: list[int] = []
    return _with_partial(
        results, lambda: _within(ctx, target_id, candidates, distance, results)
    )


def _within(ctx, target_id, candidates, distance, results) -> None:
    survivors = list(candidates.items())
    top_lod = ctx.lods[-1]
    for lod in ctx.lods:
        if not survivors:
            break
        ctx.checkpoint("within_round")
        with ctx.tracer.span("refine", query="within", lod=lod,
                             survivors=len(survivors)) as round_span:
            mark = len(results)
            try:
                dec_t = ctx.decode_target(target_id, lod)
            except DecodeFailureError:
                # MBB-only: confirm what the box upper bound alone proves;
                # every survivor is evaluated and settles at the LOD whose
                # decode failed.
                ctx.ledger_evaluated(lod, len(survivors))
                results.extend(
                    sid for sid, _parts in survivors
                    if ctx.box_upper_bound(target_id, sid) <= distance
                )
                confirmed = len(results) - mark
                ctx.ledger_settled(
                    lod, confirmed=confirmed, degraded=len(survivors) - confirmed
                )
                ctx.emit_confirmed(lod, results[mark:])
                return
            ctx.ledger_evaluated(lod, len(survivors))
            dists, inexact = batch_min_distances(
                ctx, dec_t, survivors, lod, stop_below=distance, target_id=target_id
            )
            remaining = []
            rejected = degraded = 0
            for (sid, parts), dist, rough in zip(survivors, dists, inexact):
                if dist <= distance:
                    results.append(sid)
                elif lod < top_lod:
                    remaining.append((sid, parts))
                elif rough or dec_t.degraded:
                    degraded += 1  # only an upper bound: a degraded-mode drop
                else:
                    rejected += 1
            survivors = remaining
            confirmed = len(results) - mark
            ctx.ledger_settled(
                lod, confirmed=confirmed, rejected=rejected, degraded=degraded
            )
            ctx.emit_confirmed(lod, results[mark:])
            round_span.set(settled=confirmed + rejected + degraded)


# -- point containment ---------------------------------------------------------------


def refine_containment(ctx, point, candidates: list[int], lods) -> list[int]:
    matches: list[int] = []
    return _with_partial(
        matches, lambda: _containment(ctx, point, candidates, lods, matches)
    )


def _containment(ctx, point, candidates, lods, matches) -> None:
    survivors = list(candidates)
    for lod in lods:
        if not survivors:
            break
        ctx.checkpoint("containment_round")
        with ctx.tracer.span(
            "refine", query="containment", lod=lod, survivors=len(survivors)
        ):
            ctx.ledger_evaluated(lod, len(survivors))
            remaining = []
            degraded = 0
            mark = len(matches)
            for sid in survivors:
                ctx.checkpoint("containment_pair")
                try:
                    dec = ctx.decode_source(sid, lod)
                except DecodeFailureError:
                    degraded += 1  # unverifiable candidate: drop
                    continue
                if point_in_polyhedron(point, dec.triangles):
                    matches.append(sid)  # inside a subset => inside
                elif lod < lods[-1]:
                    remaining.append(sid)
            confirmed = len(matches) - mark
            ctx.ledger_settled(
                lod,
                confirmed=confirmed,
                degraded=degraded,
                rejected=len(survivors) - len(remaining) - confirmed - degraded,
            )
            ctx.emit_confirmed(lod, matches[mark:])
            survivors = remaining


# -- Algorithm 3: nearest neighbor ---------------------------------------------------


def refine_nn(ctx, target_id: int, candidates, k: int = 1):
    """The ``k`` nearest candidates with tightened ranges, one target at a time."""
    if not candidates:
        return []
    survivors = sorted(candidates, key=lambda c: c.mindist)
    top_lod = ctx.lods[-1]

    # Initial prune from the MBB-based ranges alone (before any decoding).
    minmax = _kth_smallest((c.maxdist for c in survivors), k)
    before = len(survivors)
    survivors = [c for c in survivors if c.mindist <= minmax]
    ctx.stats.funnel.mbb_pruned += before - len(survivors)

    for lod in ctx.lods:
        if len(survivors) <= k and lod != top_lod:
            # Early NN determination without decoding further LODs.
            break

        ctx.checkpoint("nn_round")
        with ctx.tracer.span("refine", query="nn", lod=lod,
                             survivors=len(survivors)) as round_span:
            try:
                dec_t = ctx.decode_target(target_id, lod)
            except DecodeFailureError:
                # MBB-only: candidates keep whatever ranges are already
                # established; none of them can be called exact.
                break
            ctx.ledger_evaluated(lod, len(survivors))
            dists, inexact = batch_min_distances(
                ctx, dec_t, [(c.sid, c.parts) for c in survivors], lod,
                target_id=target_id,
            )
            for cand, dist, rough in zip(survivors, dists, inexact):
                if lod == top_lod and not dec_t.degraded and not rough:
                    # Collapse to the exact distance; never keep an
                    # earlier bound, which may sit an ulp below it.
                    cand.maxdist = float(dist)
                    cand.mindist = float(dist)
                    cand.exact = True
                else:
                    cand.maxdist = min(cand.maxdist, float(dist))

            minmax = _kth_smallest((c.maxdist for c in survivors), k)
            kept = [c for c in survivors if c.mindist <= minmax]
            ctx.ledger_settled(lod, rejected=len(survivors) - len(kept))
            round_span.set(settled=len(survivors) - len(kept))
            survivors = kept

    if ctx.exact_nn_distances:
        pending = [c for c in survivors if not c.exact]
        if pending:
            try:
                dec_t = ctx.decode_target(target_id, top_lod)
            except DecodeFailureError:
                pending = []
        if pending:
            dists, inexact = batch_min_distances(
                ctx, dec_t, [(c.sid, c.parts) for c in pending], top_lod,
                target_id=target_id,
            )
            for cand, dist, rough in zip(pending, dists, inexact):
                if dec_t.degraded or rough:
                    cand.maxdist = min(cand.maxdist, float(dist))
                    continue
                cand.maxdist = cand.mindist = float(dist)
                cand.exact = True

    survivors.sort(key=lambda c: (c.maxdist, c.sid))
    return survivors[:k]


# -- installation ----------------------------------------------------------------------
#
# One function per kind refines one target the way the per-target
# executor loop and the strategies' ``refine`` methods did before 2.0:
# within books and streams its filter-definite matches first, NN books
# and streams its final top-k after elimination.


def _intersection_target(query_plan, ctx, tid, candidates):
    return refine_intersection(ctx, tid, candidates)


def _within_target(query_plan, ctx, tid, candidates):
    definite, open_candidates = candidates
    ctx.stats.funnel.filter_confirmed += len(definite)
    ctx.emit_confirmed(-1, sorted(definite))
    return refine_within(ctx, tid, open_candidates, query_plan.spec.distance)


def _nn_target(query_plan, ctx, tid, candidates):
    nearest = refine_nn(ctx, tid, candidates, k=query_plan.spec.k)
    ctx.stats.funnel.confirmed_final += len(nearest)
    matches = [(c.sid, c.maxdist, c.exact) for c in nearest]
    ctx.emit_confirmed(-2, matches)
    return matches


def _containment_target(query_plan, ctx, tid, candidates):
    provider = query_plan.source.provider
    top = max((provider.max_lod(sid) for sid in candidates), default=0)
    lods = (top,) if query_plan.config.paradigm == "fr" else tuple(range(top + 1))
    return refine_containment(ctx, query_plan.spec.point, candidates, lods)


def _per_target(refine_target):
    """A ``group_refine`` that walks its group one target at a time."""

    def group_refine(self, query_plan, ctx, items):
        states = [GroupState(tid, candidates) for tid, candidates in items]
        try:
            for state in states:
                ctx.progress_target = state.tid
                ctx.touched_degraded = False
                try:
                    state.results = refine_target(
                        query_plan, ctx, state.tid, state.survivors
                    )
                except DeadlineExceededError as exc:
                    state.results = list(getattr(exc, "partial", None) or ())
                    raise
                finally:
                    state.touched = ctx.touched_degraded
                state.done = True
        except DeadlineExceededError as exc:
            _attach_group_partial(exc, states)
            raise
        return states

    return group_refine


@contextmanager
def installed(tree: bool = False):
    """Route every query kind through the oracle for the enclosed block.

    Each strategy's ``group_refine`` becomes a per-target loop over the
    oracle functions above, so production and reference share nothing
    below the executor but the context's decode and ledger methods.
    ``tree`` selects the AABB-tree pair kernels.
    """
    global _trees
    swaps = [
        (plan.IntersectionStrategy, _per_target(_intersection_target)),
        (plan.WithinStrategy, _per_target(_within_target)),
        (plan.KnnStrategy, _per_target(_nn_target)),
        (plan.ContainmentStrategy, _per_target(_containment_target)),
    ]
    originals = [(owner, owner.__dict__["group_refine"]) for owner, _new in swaps]
    for owner, new in swaps:
        owner.group_refine = new
    _trees = {} if tree else None
    try:
        yield
    finally:
        _trees = None
        for owner, original in originals:
            owner.group_refine = original
