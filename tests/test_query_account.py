"""One query, one account: decode and cache traffic belong to the query
that caused it.

The decode provider records each call on the asking query's
``QueryStats``; nothing is derived from engine-wide counters. So a
query's cache counters equal its own funnel even while another query
shares the engine, and ``decoded_vertices`` is a pure function of the
(object, served LOD) pairs the query missed on.
"""

import sys
import threading

import pytest

from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.core.schedule import full_ladder
from repro.obs.metrics import MetricsRegistry
from repro.storage import DecodedObjectProvider

NN = QuerySpec(kind="nn", source="vessels", target="nuclei_a")
WITHIN = QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0)
INTERSECTION = QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")


def _engine(datasets, **config):
    # Every LOD, on every query: the accounts compared here are those of
    # repeated queries, which would otherwise run the learned schedule.
    config.setdefault("lod_list", full_ladder(*datasets.values()))
    engine = ThreeDPro(EngineConfig(metrics=MetricsRegistry(), **config))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


def _funnel_traffic(stats):
    stages = stats.funnel.stages.values()
    return (
        sum(stage.cache_hits for stage in stages),
        sum(stage.cache_misses for stage in stages),
    )


def _account(result):
    stats = result.stats
    return {
        "pairs": list(result.pairs.items()),
        "funnel": stats.funnel.as_dict(),
        "decoded_vertices": stats.decoded_vertices,
        "decode_failures": stats.decode_failures,
    }


def test_concurrent_queries_keep_their_own_account(datasets):
    """More query threads than cores, switching often, over one engine."""
    specs = (NN, WITHIN, INTERSECTION)
    engine = _engine(datasets, query_workers=1, cache_bytes=0)
    alone = {spec: engine.execute(spec) for spec in specs}
    results = {}
    errors = []
    start = threading.Barrier(len(specs), timeout=30)

    def run(spec):
        try:
            start.wait()
            results[spec] = engine.execute(spec)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(spec,)) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert set(results) == set(specs)
    for spec, result in results.items():
        stats = result.stats
        assert (stats.cache_hits, stats.cache_misses) == _funnel_traffic(stats)
        assert stats.cache_misses > 0
        assert _account(result) == _account(alone[spec])
        assert result.funnel.violations(stats, strict=True) == []


@pytest.fixture
def served_misses(monkeypatch):
    """Every (object, served LOD) a provider call returned, in call order."""
    served = []
    original = DecodedObjectProvider.get

    def get(self, obj_id, lod, *args, **kwargs):
        decoded = original(self, obj_id, lod, *args, **kwargs)
        served.append((self.objects[obj_id], decoded.lod))
        return decoded

    monkeypatch.setattr(DecodedObjectProvider, "get", get)
    return served


def test_decoded_vertices_is_per_query_per_miss(datasets, served_misses):
    engine = _engine(datasets, query_workers=1, cache_bytes=0)
    first = engine.execute(WITHIN).stats
    charged = sum(
        obj.lod_table.records_through_step(obj.rounds_reinserted_at(lod))
        for obj, lod in served_misses
    )
    assert first.cache_misses == len(served_misses) > 0
    assert first.decoded_vertices == charged > 0
    again = engine.execute(WITHIN).stats
    assert again.decoded_vertices == first.decoded_vertices
    parallel = _engine(datasets, query_workers=2, cache_bytes=0)
    assert parallel.execute(WITHIN).stats.decoded_vertices == first.decoded_vertices


def test_warm_query_decodes_nothing(datasets):
    engine = _engine(datasets, query_workers=1)
    cold = engine.execute(WITHIN).stats
    warm = engine.execute(WITHIN).stats
    assert cold.decoded_vertices > 0 and cold.cache_misses > 0
    assert (warm.cache_misses, warm.decoded_vertices, warm.decode_seconds) == (0, 0, 0.0)
    assert warm.cache_hits == cold.cache_hits + cold.cache_misses
