"""Tests for engine configuration and statistics accounting."""

import time

import pytest

import repro
import repro.core
from repro.core import EngineConfig, QueryStats
from repro.core.errors import EngineConfigError


class TestAccel:
    """Table 1's acceleration columns are not switches: the object's
    size decides partitioning, and the fused waves always run."""

    def test_labels(self):
        assert EngineConfig(paradigm="fr").label == "FR"
        assert EngineConfig(paradigm="fpr").label == "FPR"

    def test_aabbtree_is_gone(self):
        # The AABB-tree evaluator is a test oracle now, and the `Accel`
        # switch set that held it is gone with its partition flag.
        for module in (repro, repro.core):
            assert not hasattr(module, "Accel")
        with pytest.raises(TypeError):
            EngineConfig(accel=object())


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.paradigm == "fpr"
        assert config.label == "FPR"
        assert config.partition_min_faces == 400

    def test_bad_paradigm(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(paradigm="progressive")

    def test_bad_lod_list(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(lod_list=())
        with pytest.raises(EngineConfigError):
            EngineConfig(lod_list=(2, 1))
        with pytest.raises(EngineConfigError):
            EngineConfig(lod_list=(1, 1, 2))
        with pytest.raises(EngineConfigError):
            EngineConfig(lod_list=(-1, 2))

    def test_with_paradigm(self):
        config = EngineConfig(paradigm="fpr", lod_list=(0, 3))
        flipped = config.with_paradigm("fr")
        assert flipped.paradigm == "fr"
        assert flipped.lod_list == (0, 3)

    def test_bad_partition_parts(self):
        # The part count is a constant (repro.partition.PARTS), not a field.
        with pytest.raises(TypeError):
            EngineConfig(partition_parts=0)


class TestQueryStats:
    def test_clock_accumulates(self):
        stats = QueryStats()
        with stats.clock("filter"):
            time.sleep(0.01)
        with stats.clock("filter"):
            time.sleep(0.01)
        assert stats.filter_seconds >= 0.02

    def test_clock_rejects_unknown_phase(self):
        with pytest.raises(AttributeError):
            with QueryStats().clock("nonsense"):
                pass

    def test_pruned_fraction(self):
        stats = QueryStats()
        stats.funnel.stage(0).evaluated = 10
        stats.funnel.stage(0).settled = 4
        assert stats.pruned_fraction(0) == pytest.approx(0.4)
        assert stats.pruned_fraction(3) == 0.0

    def test_other_seconds_never_negative(self):
        stats = QueryStats(total_seconds=1.0, compute_seconds=2.0)
        assert stats.other_seconds == 0.0

    def test_merge(self):
        a = QueryStats(targets=2, results=1, total_seconds=1.0)
        a.funnel.stage(0).evaluated = 5
        b = QueryStats(targets=3, results=4, total_seconds=0.5)
        b.funnel.stage(0).evaluated = 7
        b.face_pairs_by_lod[2] = 100
        a.merge(b)
        assert a.targets == 5
        assert a.results == 5
        assert a.total_seconds == pytest.approx(1.5)
        assert a.pairs_evaluated_by_lod[0] == 12
        assert a.face_pairs_total == 100

    def test_merge_preserves_per_lod_dicts(self):
        a = QueryStats()
        a.funnel.stage(0).evaluated = 3
        a.funnel.stage(0).settled = 1
        a.face_pairs_by_lod[0] = 10
        b = QueryStats()
        b.funnel.stage(0).evaluated = 2
        b.funnel.stage(2).evaluated = 4
        b.funnel.stage(2).settled = 4
        b.face_pairs_by_lod[2] = 50
        a.merge(b)
        assert dict(a.pairs_evaluated_by_lod) == {0: 5, 2: 4}
        assert dict(a.pairs_pruned_by_lod) == {0: 1, 2: 4}
        assert dict(a.face_pairs_by_lod) == {0: 10, 2: 50}
        # merging must not alias the source dicts
        a.face_pairs_by_lod[2] += 1
        assert b.face_pairs_by_lod[2] == 50

    def test_merge_accumulates_degraded_counters(self):
        a = QueryStats(degraded_objects=1, decode_failures=2)
        b = QueryStats(degraded_objects=3, decode_failures=5)
        a.merge(b)
        assert a.degraded_objects == 4
        assert a.decode_failures == 7

    def test_as_dict_and_summary(self):
        stats = QueryStats(query="nn_join", config_label="FPR", total_seconds=0.5)
        payload = stats.as_dict()
        assert payload["query"] == "nn_join"
        assert "nn_join" in stats.summary()
        assert "[FPR]" in stats.summary()

    def test_as_dict_includes_face_pairs_by_lod(self):
        stats = QueryStats()
        stats.face_pairs_by_lod[1] = 8
        stats.face_pairs_by_lod[3] = 24
        payload = stats.as_dict()
        assert payload["face_pairs_by_lod"] == {1: 8, 3: 24}
        assert payload["face_pairs_total"] == 32
        # a plain dict, safe to serialize and detached from the stats object
        assert type(payload["face_pairs_by_lod"]) is dict


class TestResolveSetting:
    """The one shared precedence chain: spec > override > config > env > default."""

    def test_default_when_nothing_set(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        assert resolve_setting("serve_port") == 8030
        monkeypatch.delenv("REPRO_DEADLINE_MS", raising=False)
        assert resolve_setting("deadline_ms") is None

    def test_env_beats_default(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "9")
        assert resolve_setting("serve_max_inflight") == 9

    def test_config_beats_env(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.setenv("REPRO_DEADLINE_MS", "500")
        assert resolve_setting("deadline_ms", config=EngineConfig(deadline_ms=50)) == 50

    def test_override_beats_config(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.setenv("REPRO_QUERY_WORKERS", "8")
        config = EngineConfig(query_workers=4)
        assert resolve_setting("query_workers", override=2, config=config) == 2

    def test_spec_beats_everything(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.setenv("REPRO_DEADLINE_MS", "500")
        config = EngineConfig(deadline_ms=50)
        assert resolve_setting("deadline_ms", spec=5, override=25, config=config) == 5

    def test_plain_value_config_layer(self):
        from repro.core.config import resolve_setting

        # Settings with no EngineConfig field accept a plain value.
        assert resolve_setting("serve_max_queue", config=3) == 3

    def test_malformed_env_raises_loudly(self, monkeypatch):
        from repro.core.config import resolve_setting

        monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
        with pytest.raises(EngineConfigError, match="REPRO_SERVE_PORT"):
            resolve_setting("serve_port")

    def test_out_of_range_rejected_whatever_the_layer(self, monkeypatch):
        from repro.core.config import resolve_setting

        with pytest.raises(EngineConfigError, match="query_workers"):
            resolve_setting("query_workers", override=0)
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "-1")
        with pytest.raises(EngineConfigError, match="query_workers"):
            resolve_setting("query_workers")

    def test_engine_config_wrappers_route_through_resolver(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "3")
        config = EngineConfig()
        assert config.resolve_query_workers() == 3
        assert EngineConfig(query_workers=2).resolve_query_workers() == 2
