"""The unified declarative query API: QuerySpec -> execute() -> QueryResult.

Covers spec validation/normalization, wrapper equivalence, the
single-object (probe / point) query forms, result-shape behavior, cache
eviction, and query-worker resolution.
"""

import pytest

from repro.core import EngineConfig, QueryResult, QuerySpec, ThreeDPro
from repro.core.errors import EngineConfigError
from repro.mesh import icosphere


@pytest.fixture()
def engine(datasets):
    engine = ThreeDPro(EngineConfig(paradigm="fpr"))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="overlap", source="b", target="a").normalized()

    def test_join_requires_target_or_probe(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="intersection", source="b").normalized()

    def test_join_rejects_both_target_and_probe(self):
        probe = icosphere(0)
        with pytest.raises(EngineConfigError):
            QuerySpec(
                kind="intersection", source="b", target="a", probe=probe
            ).normalized()

    def test_within_requires_distance(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="within", source="b", target="a").normalized()

    def test_within_rejects_negative_distance(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(
                kind="within", source="b", target="a", distance=-1.0
            ).normalized()

    def test_distance_only_for_within(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(
                kind="intersection", source="b", target="a", distance=1.0
            ).normalized()

    def test_knn_requires_positive_k(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="knn", source="b", target="a", k=0).normalized()

    def test_k_only_for_knn(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="nn", source="b", target="a", k=2).normalized()

    def test_containment_requires_point(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(kind="containment", source="b").normalized()

    def test_containment_rejects_target(self):
        with pytest.raises(EngineConfigError):
            QuerySpec(
                kind="containment", source="b", target="a", point=(0, 0, 0)
            ).normalized()

    def test_nn_normalizes_to_knn(self):
        spec = QuerySpec(kind="nn", source="b", target="a").normalized()
        assert spec.kind == "knn"
        assert spec.k == 1
        assert spec.label == "nn_join"

    def test_labels(self):
        assert (
            QuerySpec(kind="knn", source="b", target="a", k=3).normalized().label
            == "knn_join(k=3)"
        )
        assert (
            QuerySpec(kind="within", source="b", target="a", distance=1.0)
            .normalized()
            .label
            == "within_join"
        )
        assert (
            QuerySpec(kind="containment", source="b", point=(0, 0, 0))
            .normalized()
            .label
            == "containment_query"
        )


class TestExecuteEquivalence:
    def test_intersection(self, engine):
        via_wrapper = engine.intersection_join("nuclei_a", "nuclei_b")
        via_spec = engine.execute(
            QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")
        )
        assert isinstance(via_spec, QueryResult)
        assert via_spec.pairs == via_wrapper.pairs
        assert via_spec.stats.query == "intersection_join"

    def test_within(self, engine):
        via_wrapper = engine.within_join("nuclei_a", "nuclei_b", 1.0)
        via_spec = engine.execute(
            QuerySpec(
                kind="within", source="nuclei_b", target="nuclei_a", distance=1.0
            )
        )
        assert via_spec.pairs == via_wrapper.pairs

    def test_nn(self, engine):
        via_wrapper = engine.nn_join("nuclei_a", "vessels")
        via_spec = engine.execute(
            QuerySpec(kind="nn", source="vessels", target="nuclei_a")
        )
        assert via_spec.pairs == via_wrapper.pairs
        assert via_spec.stats.query == "nn_join"

    def test_result_records_spec(self, engine):
        spec = QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")
        result = engine.execute(spec)
        assert result.spec is not None
        assert result.spec.kind == "intersection"

    def test_tuple_unpacking_compatibility(self, engine):
        pairs, stats = engine.intersection_join("nuclei_a", "nuclei_b")
        assert isinstance(pairs, dict)
        assert stats.query == "intersection_join"


class TestSingleObjectForms:
    """The bare ``*_query`` wrappers are gone in 2.0; a probe spec must
    answer as the same object joined from a one-object dataset does."""

    @staticmethod
    def _as_join(engine, probe, **spec_kwargs):
        from repro.storage import Dataset

        engine.load_dataset(Dataset.from_polyhedra("one_probe", [probe]))
        return engine.execute(QuerySpec(target="one_probe", **spec_kwargs))

    def test_intersection_probe_matches_join_form(self, engine, small_scene):
        probe = small_scene.nuclei_a[0]
        full = engine.execute(
            QuerySpec(kind="intersection", source="nuclei_b", probe=probe)
        )
        joined = self._as_join(engine, probe, kind="intersection", source="nuclei_b")
        assert full.matches == joined.pairs.get(0, [])

    def test_within_probe_matches_join_form(self, engine, small_scene):
        probe = small_scene.nuclei_a[1]
        full = engine.execute(
            QuerySpec(kind="within", source="nuclei_b", probe=probe, distance=1.0)
        )
        joined = self._as_join(
            engine, probe, kind="within", source="nuclei_b", distance=1.0
        )
        assert full.matches == joined.pairs.get(0, [])

    def test_nn_probe_matches_join_form(self, engine, small_scene):
        probe = small_scene.nuclei_a[2]
        full = engine.execute(
            QuerySpec(kind="nn", source="vessels", probe=probe)
        )
        joined = self._as_join(engine, probe, kind="nn", source="vessels")
        assert full.matches == joined.pairs.get(0, [])
        assert len(full.matches) == 1

    def test_containment_point_form(self, engine, small_scene):
        point = tuple(float(x) for x in small_scene.nuclei_b[0].vertices.mean(axis=0))
        full = engine.execute(
            QuerySpec(kind="containment", source="nuclei_b", point=point)
        )
        assert 0 in full.matches
        assert full.stats.results == len(full.matches)

    def test_bare_forms_are_removed(self, engine):
        for name in ("intersection_query", "within_query", "nn_query",
                     "containment_query"):
            assert not hasattr(engine, name)

    def test_probe_spec_returns_stats(self, engine, small_scene):
        """The replacement form keeps the stats the bare form drops."""
        probe = small_scene.nuclei_a[0]
        result = engine.execute(
            QuerySpec(kind="intersection", source="nuclei_b", probe=probe)
        )
        assert result.stats.targets == 1
        assert result.stats.total_seconds > 0


class TestCacheEviction:
    @pytest.fixture
    def engine(self, datasets):
        # The parent's decode cache is what these inspect: run in-process.
        engine = ThreeDPro(EngineConfig(paradigm="fpr", query_workers=1))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        return engine

    def test_evict_dataset_removes_entries(self, engine):
        engine.intersection_join("nuclei_a", "nuclei_b")
        assert any(key[0] == "nuclei_b" for key in engine.cache._entries)
        engine.cache.evict_dataset("nuclei_b")
        assert not any(key[0] == "nuclei_b" for key in engine.cache._entries)
        assert any(key[0] == "nuclei_a" for key in engine.cache._entries)

    def test_purge_dataset_alias(self, engine):
        engine.intersection_join("nuclei_a", "nuclei_b")
        engine.cache.purge_dataset("nuclei_a")
        assert not any(key[0] == "nuclei_a" for key in engine.cache._entries)


class TestQueryWorkerResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUERY_WORKERS", raising=False)
        assert EngineConfig().resolve_query_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "4")
        assert EngineConfig().resolve_query_workers() == 4

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "4")
        assert EngineConfig(query_workers=2).resolve_query_workers() == 2

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "many")
        with pytest.raises(EngineConfigError):
            EngineConfig().resolve_query_workers()

    def test_nonpositive_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "0")
        with pytest.raises(EngineConfigError):
            EngineConfig().resolve_query_workers()

    def test_nonpositive_config_raises(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(query_workers=0)
