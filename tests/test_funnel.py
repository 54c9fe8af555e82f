"""The refinement funnel: units, invariants, and engine integration.

The unit half exercises :class:`~repro.obs.funnel.QueryFunnel` directly
(merge, pickling, the violation checks); the integration half runs real
queries and asserts the funnel reconciles with the query stats and the
result count — the property the ``check_observability`` [7/7] gate
enforces in CI.
"""

import pickle

import pytest

from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.core.stats import QueryStats
from repro.obs.funnel import FunnelStage, QueryFunnel
from repro.obs.metrics import MetricsRegistry


def _consistent_funnel() -> QueryFunnel:
    funnel = QueryFunnel(candidates=10, mbb_pruned=2)
    stage = funnel.stage(0)
    stage.evaluated = 8
    stage.settled = 5
    stage.confirmed = 2
    stage.rejected = 2
    stage.degraded = 1
    top = funnel.stage(3)
    top.evaluated = 3
    top.settled = 3
    top.rejected = 3
    return funnel


class TestFunnelStage:
    def test_merge_adds_every_counter(self):
        a = FunnelStage(evaluated=2, settled=1, confirmed=1, cache_hits=3,
                        decoded_bytes=100)
        b = FunnelStage(evaluated=5, settled=2, rejected=2, cache_misses=1,
                        decoded_bytes=50, decode_failures=1)
        a.merge(b)
        assert a.evaluated == 7
        assert a.settled == 3
        assert a.confirmed == 1
        assert a.rejected == 2
        assert a.cache_hits == 3
        assert a.cache_misses == 1
        assert a.decoded_bytes == 150
        assert a.decode_failures == 1

    def test_as_dict_is_complete(self):
        keys = set(FunnelStage().as_dict())
        assert keys == {
            "evaluated", "settled", "confirmed", "rejected", "degraded",
            "cache_hits", "cache_misses", "decoded_objects", "decoded_bytes",
            "decode_failures",
        }


class TestQueryFunnel:
    def test_stage_is_created_on_demand_and_cached(self):
        funnel = QueryFunnel()
        stage = funnel.stage(2)
        stage.evaluated += 1
        assert funnel.stage(2) is stage
        assert funnel.stages == {2: stage}

    def test_confirmed_total_spans_all_paths(self):
        funnel = QueryFunnel(filter_confirmed=3, confirmed_final=2)
        funnel.stage(0).confirmed = 4
        funnel.stage(1).confirmed = 1
        assert funnel.confirmed_total == 10

    def test_merge(self):
        a = _consistent_funnel()
        b = _consistent_funnel()
        a.merge(b)
        assert a.candidates == 20
        assert a.mbb_pruned == 4
        assert a.stage(0).evaluated == 16
        assert a.stage(3).settled == 6
        assert a.violations() == []

    def test_pickle_roundtrip(self):
        funnel = _consistent_funnel()
        clone = pickle.loads(pickle.dumps(funnel))
        assert clone.as_dict() == funnel.as_dict()

    def test_summary_mentions_key_counts(self):
        text = _consistent_funnel().summary()
        assert "candidates=10" in text
        assert "evaluated=11" in text
        assert "confirmed=2" in text


class TestViolations:
    def test_consistent_funnel_is_clean(self):
        assert _consistent_funnel().violations() == []

    def test_settled_over_evaluated_flagged(self):
        funnel = QueryFunnel(candidates=5)
        stage = funnel.stage(0)
        stage.evaluated = 1
        stage.settled = 2
        stage.rejected = 2
        assert any("settled 2 > evaluated 1" in v for v in funnel.violations())

    def test_split_must_sum_to_settled(self):
        funnel = QueryFunnel(candidates=5)
        stage = funnel.stage(0)
        stage.evaluated = 3
        stage.settled = 3
        stage.confirmed = 1  # rejected/degraded missing
        assert any("!= settled" in v for v in funnel.violations())

    def test_mbb_pruned_bounded_by_candidates(self):
        funnel = QueryFunnel(candidates=1, mbb_pruned=2)
        assert any("mbb_pruned" in v for v in funnel.violations())

    def test_evaluated_bounded_by_surviving_candidates(self):
        funnel = QueryFunnel(candidates=3, mbb_pruned=1)
        funnel.stage(0).evaluated = 5
        assert any("surviving" in v for v in funnel.violations())

    def test_ledger_agreement(self):
        """The pairs ledger is a read-only view of the funnel: it cannot
        drift, and a write to it fails instead of forking a second copy."""
        stats = QueryStats(query="q", candidates=10)
        stats.funnel = _consistent_funnel()
        stats.funnel.stage(1).cache_hits = 4  # decode traffic only
        assert dict(stats.pairs_evaluated_by_lod) == {0: 8, 3: 3}
        assert dict(stats.pairs_pruned_by_lod) == {0: 5, 3: 3}
        stats.funnel.stage(3).evaluated = 4
        assert stats.pairs_evaluated_by_lod[3] == 4
        with pytest.raises(TypeError):
            stats.pairs_evaluated_by_lod[0] = 7
        with pytest.raises(AttributeError):
            stats.pairs_pruned_by_lod = {}
        assert stats.funnel.violations(stats) == []
        stats.candidates = 11  # the one stats-side write the funnel checks
        assert any("candidates" in v for v in stats.funnel.violations(stats))

    def test_strict_requires_results_accounted(self):
        funnel = _consistent_funnel()
        stats = QueryStats(query="q")
        stats.candidates = 10
        stats.results = 2
        assert funnel.violations(stats, strict=True) == []
        stats.results = 7
        assert any(
            "confirmed_total" in v for v in funnel.violations(stats, strict=True)
        )


class TestStatsIntegration:
    def test_stats_merge_merges_funnel(self):
        a = QueryStats(query="q")
        b = QueryStats(query="q")
        a.funnel.candidates = 2
        b.funnel.candidates = 3
        b.funnel.stage(1).evaluated = 4
        a.merge(b)
        assert a.funnel.candidates == 5
        assert a.funnel.stage(1).evaluated == 4

    def test_stats_as_dict_embeds_funnel(self):
        stats = QueryStats(query="q")
        stats.funnel.candidates = 2
        assert stats.as_dict()["funnel"]["candidates"] == 2


@pytest.fixture(scope="module")
def engine(datasets):
    engine = ThreeDPro(EngineConfig(metrics=MetricsRegistry()))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


class TestEngineIntegration:
    @pytest.mark.parametrize(
        "spec",
        [
            QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
            QuerySpec(kind="within", source="nuclei_b", target="nuclei_a",
                      distance=1.0),
            QuerySpec(kind="nn", source="vessels", target="nuclei_a"),
            QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
        ],
        ids=lambda spec: spec.normalized().label,
    )
    def test_funnel_reconciles(self, engine, spec):
        result = engine.execute(spec)
        assert result.funnel is result.stats.funnel
        assert result.funnel.violations(result.stats, strict=True) == []

    def test_funnel_counters_emitted_once(self, datasets):
        registry = MetricsRegistry()
        engine = ThreeDPro(EngineConfig(metrics=registry))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        result = engine.nn_join("nuclei_a", "vessels")
        pairs = registry.counter("repro_funnel_pairs_total")
        confirmed = sum(
            value for key, value in pairs.series().items()
            if ("stage", "confirmed") in key
        )
        assert confirmed == result.funnel.confirmed_total
        candidates = registry.counter("repro_funnel_candidates_total")
        assert sum(candidates.series().values()) == result.funnel.candidates

    def test_funnel_attached_to_root_span(self, datasets):
        engine = ThreeDPro(EngineConfig(metrics=MetricsRegistry(), tracing=True))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        engine.nn_join("nuclei_a", "vessels")
        [root] = engine.tracer.roots
        assert "candidates=" in root.attrs["funnel"]
