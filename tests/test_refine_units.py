"""Unit tests for the refinement helpers, isolated from the engine."""

import collections
import math

import numpy as np
import pytest

from repro.compression import PPVPEncoder
from repro.core.refine import (
    NNCandidate,
    RefineContext,
    _kth_smallest,
    refine_intersection_group,
    refine_nn,
    refine_within_group,
)
from repro.core.stats import QueryStats
from repro.faults import FaultInjector
from repro.mesh import icosphere
from repro.parallel import GeometryComputer
from repro.storage import DecodeCache, DecodedObjectProvider


class TestKthSmallest:
    def test_basic(self):
        assert _kth_smallest([3.0, 1.0, 2.0], 1) == 1.0
        assert _kth_smallest([3.0, 1.0, 2.0], 2) == 2.0

    def test_k_beyond_length(self):
        assert _kth_smallest([5.0, 4.0], 10) == 5.0

    def test_empty(self):
        assert _kth_smallest([], 3) == math.inf


def make_context(sources, targets, target_faults=None):
    cache = DecodeCache()
    encoder = PPVPEncoder(max_lods=4)
    src_objs = [encoder.encode(m) for m in sources]
    tgt_objs = [encoder.encode(m) for m in targets]
    source_provider = DecodedObjectProvider("s", src_objs, cache)
    target_provider = DecodedObjectProvider(
        "t", tgt_objs, cache, fault_injector=target_faults
    )
    top = max(o.max_lod for o in src_objs + tgt_objs)
    ctx = RefineContext(
        computer=GeometryComputer(),
        stats=QueryStats(),
        target_provider=target_provider,
        source_provider=source_provider,
        lods=tuple(range(top + 1)),
    )
    return ctx


def _nearest(ctx, candidates, k):
    """A group of one (target 0): its state's (sid, distance, exact) top-k."""
    (state,) = refine_nn(ctx, [(0, candidates)], k=k)
    assert state.done
    return state.results


class TestRefineNNUnits:
    @pytest.fixture(scope="class")
    def ctx(self):
        targets = [icosphere(1, center=(0, 0, 0))]
        sources = [
            icosphere(1, center=(3.0, 0, 0)),   # nearest
            icosphere(1, center=(5.0, 0, 0)),
            icosphere(1, center=(40.0, 0, 0)),  # hopeless
        ]
        return make_context(sources, targets)

    def _candidates(self):
        # Generous hand-built ranges (sound but loose).
        return [
            NNCandidate(0, 0.5, 4.0),
            NNCandidate(1, 2.5, 7.0),
            NNCandidate(2, 37.0, 45.0),
        ]

    def test_empty_candidates(self, ctx):
        assert _nearest(ctx, [], k=1) == []

    def test_nearest_found(self, ctx):
        out = _nearest(ctx, self._candidates(), k=1)
        assert len(out) == 1
        sid, dist, _exact = out[0]
        assert sid == 0
        # True gap between unit spheres at distance 3 is ~1 (faceted: a
        # bit more); an early return reports a coarse-LOD upper bound,
        # which for LOD0 geometry can sit noticeably above the true gap.
        assert 0.9 <= dist <= 2.5

    def test_hopeless_candidate_pruned_without_evaluation(self, ctx):
        stats_before = dict(ctx.stats.pairs_evaluated_by_lod)
        out = _nearest(ctx, self._candidates(), k=1)
        assert out[0][0] == 0
        # Candidate 2 (mindist 37) must never survive past the first prune;
        # total evaluations stay small.
        total_new = sum(ctx.stats.pairs_evaluated_by_lod.values()) - sum(
            stats_before.values()
        )
        assert total_new <= 2 * len(ctx.lods)

    def test_k2_returns_both_near_spheres(self, ctx):
        out = _nearest(ctx, self._candidates(), k=2)
        assert {sid for sid, _d, _e in out} == {0, 1}

    def test_k_larger_than_candidates(self, ctx):
        out = _nearest(ctx, self._candidates(), k=10)
        assert len(out) == 3


class _OneTargetFaults(FaultInjector):
    """Fails every decode of one target object, at every LOD."""

    def __init__(self, obj_id):
        super().__init__(decode_error_rate=1.0)
        self.obj_id = obj_id

    def before_decode(self, dataset, obj_id, lod):
        if dataset == "t" and obj_id == self.obj_id:
            super().before_decode(dataset, obj_id, lod)


class TestRefineNNGroup:
    """A group's states settle independently: each equals its own
    group-of-one run, and the group's ledgers add up to theirs.

    For NN, one target leaves the rounds early (``len(survivors) <= k``
    below the top LOD) while another runs to the top LOD. With faults,
    target 2 cannot be decoded at all, so each kind's target-failure
    policy runs inside a multi-target group: intersection stops with
    what it confirmed, within settles from MBB upper bounds, and NN
    leaves with its ranges still open.
    """

    TARGETS = [
        icosphere(1, center=(0, 0, 0)),
        icosphere(1, center=(0, 0, 20.0)),
        icosphere(1, center=(0, 0, -20.0)),
    ]
    SOURCES = [
        icosphere(1, center=(3.0, 0, 0)),
        icosphere(1, center=(5.0, 0, 0)),
        icosphere(1, center=(40.0, 0, 0)),
        icosphere(1, center=(0, 0, 23.0)),
        icosphere(1, center=(0, 0, 26.0)),
        icosphere(1, center=(1.0, 0, 0)),     # overlaps target 0
        icosphere(1, center=(0, 0, 20.5)),    # overlaps target 1
        icosphere(1, center=(0, 0, -21.0)),   # overlaps target 2
        icosphere(1, center=(0, 0, -22.5)),   # near target 2
    ]

    @staticmethod
    def _items(kind):
        if kind == "nn":
            return [
                # Target 0: loose ranges; LOD 0 prunes candidate 1, then
                # the lone survivor settles without decoding further.
                (0, [NNCandidate(0, 0.5, 4.0), NNCandidate(1, 2.5, 7.0),
                     NNCandidate(2, 37.0, 45.0)]),
                # Target 1: MINDIST 0 keeps both candidates until the top
                # LOD collapses their ranges.
                (1, [NNCandidate(3, 0.0, 50.0), NNCandidate(4, 0.0, 50.0)]),
                (2, [NNCandidate(7, 0.0, 50.0), NNCandidate(8, 0.0, 50.0)]),
            ]
        candidates = [
            {0: None, 1: None, 2: None, 5: None},
            {3: None, 4: None, 6: None},
            {7: None, 8: None},
        ]
        if kind == "within":
            return [(tid, ((), c)) for tid, c in enumerate(candidates)]
        return list(enumerate(candidates))

    @staticmethod
    def _refine(kind, ctx, items):
        if kind == "nn":
            return refine_nn(ctx, items, k=1)
        if kind == "within":
            return refine_within_group(ctx, items, distance=4.5)
        return refine_intersection_group(ctx, items)

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("kind", ["nn", "intersection", "within"])
    def test_states_equal_their_groups_of_one(self, kind, faulted):
        def context():
            faults = _OneTargetFaults(2) if faulted else None
            return make_context(self.SOURCES, self.TARGETS, target_faults=faults)

        group_ctx = context()
        states = self._refine(kind, group_ctx, self._items(kind))
        top = group_ctx.lods[-1]
        ledgers = [collections.Counter() for _ in range(3)]
        for state, item in zip(states, self._items(kind)):
            ctx = context()
            (alone,) = self._refine(kind, ctx, [item])
            assert state.done and alone.done
            assert state.results == alone.results
            assert state.touched == alone.touched == (faulted and state.tid == 2)
            for total, ledger in zip(ledgers, (
                ctx.stats.pairs_evaluated_by_lod,
                ctx.stats.pairs_pruned_by_lod,
                ctx.stats.face_pairs_by_lod,
            )):
                total.update(ledger)
            if kind != "nn" or state.tid == 2:
                continue
            lods = set(ctx.stats.pairs_evaluated_by_lod)
            if state.tid == 0:
                assert max(lods) < top, "target 0 should settle early"
                assert not state.results[0][2]
            else:
                assert top in lods, "target 1 should reach the top LOD"
                assert state.results[0][2]
        if faulted:
            # Target 2's policy: intersection and NN give up on it (NN's
            # lone pick keeps its open MBB range), within confirms what
            # the MBB upper bound alone proves (source 7, not source 8).
            expected = {"intersection": [], "within": [7],
                        "nn": [(7, 50.0, False)]}[kind]
            assert states[2].results == expected
        # Shared rounds evaluate exactly what the separate runs did.
        for total, ledger in zip(ledgers, (
            group_ctx.stats.pairs_evaluated_by_lod,
            group_ctx.stats.pairs_pruned_by_lod,
            group_ctx.stats.face_pairs_by_lod,
        )):
            assert dict(ledger) == dict(total)


class _StubDecode:
    """Minimal stand-in for a DecodedLOD (triangles + flags only)."""

    def __init__(self, triangles):
        self.triangles = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
        self.degraded = False

    @property
    def num_faces(self):
        return len(self.triangles)


class _StubProvider:
    """Provider serving pre-built decodes (no compression involved)."""

    def __init__(self, decs):
        import types

        self._decs = decs
        self.objects = [
            types.SimpleNamespace(
                aabb=(
                    d.triangles.min(axis=(0, 1))
                    if len(d.triangles)
                    else np.zeros(3),
                    d.triangles.max(axis=(0, 1))
                    if len(d.triangles)
                    else np.zeros(3),
                )
            )
            for d in decs
        ]

    def max_lod(self, obj_id):
        return 0

    def get(self, obj_id, lod, deadline=None, stats=None):
        return self._decs[obj_id]


def _stub_ctx(target_decs, source_decs):
    return RefineContext(
        computer=GeometryComputer(),
        stats=QueryStats(),
        target_provider=_StubProvider(target_decs),
        source_provider=_StubProvider(source_decs),
        lods=(0,),
    )


class TestEmptyMeshContainmentStage:
    """Salvage loading can hand refinement a decodable-but-empty mesh;
    the containment stage used to crash on it (``triangles[0, 0]`` and a
    reduction over zero faces)."""

    def test_empty_target_is_degraded_not_crash(self):
        from repro.core.refine import refine_intersection

        ctx = _stub_ctx(
            target_decs=[_StubDecode(np.zeros((0, 3, 3)))],
            source_decs=[_StubDecode(icosphere(1).triangles)],
        )
        out = refine_intersection(ctx, 0, {0: None})
        assert out == []
        assert ("target", 0) in ctx.degraded_keys
        assert dict(ctx.stats.pairs_pruned_by_lod) == {0: 1}

    def test_empty_source_is_degraded_not_crash(self):
        from repro.core.refine import refine_intersection

        # Two disjoint real spheres would reach the containment stage;
        # here the candidate decodes to zero faces at the top LOD.
        ctx = _stub_ctx(
            target_decs=[_StubDecode(icosphere(1).triangles)],
            source_decs=[_StubDecode(np.zeros((0, 3, 3)))],
        )
        out = refine_intersection(ctx, 0, {0: None})
        assert out == []
        assert ("source", 0) in ctx.degraded_keys
        assert dict(ctx.stats.pairs_pruned_by_lod) == {0: 1}


class TestWithinFallbackLedger:
    """The undecodable-target MBB fallback confirms pairs via
    ``box_upper_bound``; those evaluations must land on the pairs ledger
    (they used to be invisible: results without evaluations)."""

    def test_fallback_accounts_evaluated_and_pruned(self):
        from repro.core.refine import refine_within
        from repro.faults import FaultInjector

        cache = DecodeCache()
        encoder = PPVPEncoder(max_lods=4)
        targets = [encoder.encode(icosphere(1, center=(0, 0, 0)))]
        sources = [
            encoder.encode(icosphere(1, center=(3.0, 0, 0))),   # MAXDIST ~5.7
            encoder.encode(icosphere(1, center=(50.0, 0, 0))),  # hopeless
        ]
        ctx = RefineContext(
            computer=GeometryComputer(),
            stats=QueryStats(),
            target_provider=DecodedObjectProvider(
                "t", targets, cache,
                fault_injector=FaultInjector(seed=1, decode_error_rate=1.0),
            ),
            source_provider=DecodedObjectProvider("s", sources, cache),
            lods=(0, 1),
        )
        out = refine_within(ctx, 0, {0: None, 1: None}, distance=10.0)
        assert out == [0]  # the near pair is confirmable from MBBs alone
        assert ("target", 0) in ctx.degraded_keys
        # Both survivors were evaluated at the failing LOD and both
        # settled there (one confirmed, one excluded): the per-LOD
        # pruned <= evaluated invariant holds with equality.
        assert dict(ctx.stats.pairs_evaluated_by_lod) == {0: 2}
        assert dict(ctx.stats.pairs_pruned_by_lod) == {0: 2}
