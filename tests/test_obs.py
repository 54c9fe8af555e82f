"""Tests for the observability layer: tracing, metrics, structured logs.

Unit tests cover the span tree (nesting, exception exits, the no-op
fast path), the metrics registry (counters/gauges/histograms and the
Prometheus text format), and the JSON event log. Integration tests run
real joins with ``EngineConfig(tracing=True)`` and assert the acceptance
property: the trace's phase totals match ``QueryStats`` within rounding.
"""

import io
import json
import logging
import sys

import pytest

from repro.core import EngineConfig, QueryStats, ThreeDPro
from repro.obs.logs import JsonFormatter, configure_json_logging, get_logger, log_event
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    DISABLED_TRACER,
    NOOP_SPAN,
    TimedPhase,
    Tracer,
    phase_totals,
)
from repro.storage.cache import DecodeCache


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", kind="nn") as root:
            with tracer.span("filter"):
                pass
            with tracer.span("compute") as compute:
                with tracer.span("refine", lod=0):
                    pass
                with tracer.span("refine", lod=2):
                    pass
        assert len(tracer.roots) == 1
        assert tracer.roots[0] is root
        assert [c.name for c in root.children] == ["filter", "compute"]
        assert [c.attrs["lod"] for c in compute.children] == [0, 2]
        for span in tracer.walk():
            assert span.wall_seconds is not None
            assert span.wall_seconds >= 0.0
            assert span.cpu_seconds is not None

    def test_exception_exit_closes_span_and_records_error(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("query") as root:
                with tracer.span("compute"):
                    raise RuntimeError("boom")
        assert root.wall_seconds is not None
        assert len(tracer.roots) == 1
        compute = root.children[0]
        assert compute.attrs["error"] == "RuntimeError: boom"
        assert root.attrs["error"] == "RuntimeError: boom"
        # the stack unwound fully: a new span becomes a fresh root
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["query", "after"]

    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", lod=3)
        assert span is NOOP_SPAN
        assert tracer.span("other") is NOOP_SPAN
        with span as inner:
            inner.set(foo=1)
        assert span.wall_seconds is None
        assert tracer.roots == []
        assert DISABLED_TRACER.span("x") is NOOP_SPAN

    def test_record_attaches_premeasured_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("compute") as compute:
            tracer.record("decode", 0.125, dataset="a", object=7, lod=2)
        assert len(compute.children) == 1
        decode = compute.children[0]
        assert decode.wall_seconds == 0.125
        assert decode.attrs == {"dataset": "a", "object": 7, "lod": 2}
        # disabled: record is a no-op
        off = Tracer(enabled=False)
        off.record("decode", 1.0)
        assert off.roots == []

    def test_set_updates_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("refine", lod=1) as span:
            span.set(settled=4)
        assert span.attrs == {"lod": 1, "settled": 4}

    def test_clear_drops_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.roots == []

    def test_to_dict_and_json_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", kind="nn"):
            with tracer.span("filter"):
                pass
        payload = json.loads(tracer.to_json())
        assert payload["enabled"] is True
        (root,) = payload["spans"]
        assert root["name"] == "query"
        assert root["attrs"] == {"kind": "nn"}
        assert [c["name"] for c in root["children"]] == ["filter"]
        assert root["wall_seconds"] >= root["children"][0]["wall_seconds"]


class TestChromeTrace:
    def test_complete_events_in_microseconds(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query"):
            tracer.record("decode", 0.002, lod=1)
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["query", "decode"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        decode = events[1]
        assert decode["dur"] == pytest.approx(2000.0)
        assert decode["args"] == {"lod": 1}
        json.dumps(doc)  # must be serializable as-is

    def test_non_jsonable_attrs_become_strings(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", target=("a", "b")):
            pass
        (event,) = tracer.to_chrome_trace()["traceEvents"]
        assert event["args"]["target"] == "('a', 'b')"


class TestTimedPhase:
    def test_unknown_phase_raises(self):
        with pytest.raises(AttributeError):
            TimedPhase(Tracer(enabled=True), QueryStats(), "nonsense")
        with pytest.raises(AttributeError):
            TimedPhase(DISABLED_TRACER, QueryStats(), "nonsense")

    def test_accumulates_into_stats_when_disabled(self):
        stats = QueryStats()
        with TimedPhase(DISABLED_TRACER, stats, "filter"):
            pass
        with TimedPhase(DISABLED_TRACER, stats, "filter"):
            pass
        assert stats.filter_seconds > 0.0
        assert DISABLED_TRACER.roots == []

    def test_span_and_stats_carry_the_same_duration(self):
        tracer = Tracer(enabled=True)
        stats = QueryStats()
        with TimedPhase(tracer, stats, "compute", target=3):
            pass
        (span,) = tracer.roots
        assert span.name == "compute"
        assert span.attrs == {"target": 3}
        assert stats.compute_seconds == span.wall_seconds

    def test_exception_still_accumulates(self):
        tracer = Tracer(enabled=True)
        stats = QueryStats()
        with pytest.raises(ValueError):
            with TimedPhase(tracer, stats, "filter"):
                raise ValueError("nope")
        assert stats.filter_seconds == tracer.roots[0].wall_seconds
        assert tracer.roots[0].attrs["error"] == "ValueError: nope"


class TestPhaseTotals:
    def test_decode_under_compute_is_reattributed(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query"):
            tracer.record("filter", 0.1)
            with tracer.span("compute") as compute:
                tracer.record("decode", 0.25)
            compute.wall_seconds = 1.0  # pin for exact arithmetic
        totals = phase_totals(tracer)
        assert totals["filter"] == pytest.approx(0.1)
        assert totals["decode"] == pytest.approx(0.25)
        # decode happened inside compute: subtracted from the compute total
        assert totals["compute"] == pytest.approx(0.75)

    def test_top_level_decode_not_subtracted(self):
        tracer = Tracer(enabled=True)
        tracer.record("decode", 0.2)
        with tracer.span("compute") as compute:
            pass
        compute.wall_seconds = 0.5
        totals = phase_totals(tracer.roots)
        assert totals["decode"] == pytest.approx(0.2)
        assert totals["compute"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_labels(self):
        c = Counter("repro_things_total", "things")
        c.inc()
        c.inc(2.0)
        c.inc(kind="decode")
        assert c.value() == 3.0
        assert c.value(kind="decode") == 1.0
        assert c.value(kind="other") == 0.0

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("repro_resident_bytes")
        g.set(100.0)
        g.inc(5.0)
        g.dec(25.0)
        assert g.value() == 80.0


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        h = Histogram("repro_lat_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(5.605)
        assert h.bucket_counts() == {0.01: 1, 0.1: 3, 1.0: 4}

    def test_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "x")
        b = registry.counter("repro_x_total")
        assert a is b
        assert registry.get("repro_x_total") is a
        assert registry.names() == ["repro_x_total"]

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError):
            registry.histogram("repro_x_total")

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Cache hits").inc(3, dataset="a")
        registry.gauge("repro_bytes", "Resident").set(42)
        registry.histogram("repro_lat_seconds", "Latency", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.to_prometheus()
        assert "# HELP repro_hits_total Cache hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{dataset="a"} 3' in text
        assert "# TYPE repro_bytes gauge" in text
        assert "repro_bytes 42" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_sum 0.05" in text
        assert "repro_lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_to_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", "Cache hits").inc(2)
        registry.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        snap = registry.to_dict()
        assert snap["repro_hits_total"] == {
            "type": "counter",
            "help": "Cache hits",
            "value": 2.0,
        }
        hist = snap["repro_lat_seconds"]["value"]
        assert hist["count"] == 1
        assert hist["sum"] == 0.5
        json.dumps(snap)  # JSON-ready as promised

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(reason='say "hi"\nbye')
        text = registry.to_prometheus()
        assert 'reason="say \\"hi\\"\\nbye"' in text


# ---------------------------------------------------------------------------
# Structured logs
# ---------------------------------------------------------------------------


class TestStructuredLogs:
    def test_json_formatter_merges_event_fields(self):
        stream = io.StringIO()
        handler = configure_json_logging(stream)
        try:
            log_event(get_logger("test"), "decode_fallback", lod=2, dataset="a")
        finally:
            logging.getLogger("repro").removeHandler(handler)
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "decode_fallback"
        assert payload["logger"] == "repro.test"
        assert payload["level"] == "info"
        assert payload["lod"] == 2
        assert payload["dataset"] == "a"
        assert isinstance(payload["ts"], float)

    def test_log_event_respects_level(self):
        stream = io.StringIO()
        handler = configure_json_logging(stream, level=logging.ERROR)
        try:
            log_event(get_logger("test"), "quiet", level=logging.INFO)
            log_event(get_logger("test"), "loud", level=logging.ERROR, code=1)
        finally:
            logging.getLogger("repro").removeHandler(handler)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["event"] for line in lines] == ["loud"]

    def test_formatter_includes_exception(self):
        formatter = JsonFormatter()
        try:
            raise KeyError("gone")
        except KeyError:
            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "boom", None,
                exc_info=sys.exc_info(),
            )
        payload = json.loads(formatter.format(record))
        assert "KeyError" in payload["exception"]


# ---------------------------------------------------------------------------
# Cache counter semantics (satellite: evictions + coherence)
# ---------------------------------------------------------------------------


class _Blob:
    """Stand-in cache entry with a fixed byte size."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes


class TestCacheCounters:
    def test_evictions_count_entries_and_bytes(self):
        registry = MetricsRegistry()
        cache = DecodeCache(capacity_bytes=250, metrics=registry)
        cache.put(("a", 1, 0), _Blob(100))
        cache.put(("a", 2, 0), _Blob(100))
        cache.put(("a", 3, 0), _Blob(100))  # evicts the LRU entry
        assert cache.evictions == 1
        assert cache.evicted_bytes == 100
        assert cache.bytes_used == 200
        assert registry.get("repro_cache_evictions_total").value() == 1
        assert registry.get("repro_cache_evicted_bytes_total").value() == 100
        assert registry.get("repro_cache_resident_bytes").value() == 200
        assert registry.get("repro_cache_entries").value() == 2

    def test_purge_and_clear_keep_lifetime_counters(self):
        registry = MetricsRegistry()
        cache = DecodeCache(capacity_bytes=1000, metrics=registry)
        cache.put(("a", 1, 0), _Blob(100))
        cache.put(("b", 1, 0), _Blob(100))
        assert cache.get(("a", 1, 0)) is not None
        assert cache.get(("a", 9, 0)) is None
        hits, misses = cache.hits, cache.misses
        assert cache.purge_dataset("a") == 1
        assert (cache.hits, cache.misses) == (hits, misses)
        assert cache.evictions == 0  # purges are not evictions
        cache.clear()
        assert (cache.hits, cache.misses) == (hits, misses)
        assert cache.bytes_used == 0
        assert registry.get("repro_cache_resident_bytes").value() == 0
        assert registry.get("repro_cache_entries").value() == 0

    def test_reset_counters(self):
        cache = DecodeCache(capacity_bytes=1000, metrics=MetricsRegistry())
        cache.put(("a", 1, 0), _Blob(10))
        cache.get(("a", 1, 0))
        cache.get(("a", 2, 0))
        cache.reset_counters()
        assert (cache.hits, cache.misses, cache.evictions, cache.evicted_bytes) == (
            0, 0, 0, 0,
        )
        assert len(cache) == 1  # entries survive a counter reset

    def test_required_series_present_at_zero(self):
        registry = MetricsRegistry()
        DecodeCache(metrics=registry)
        text = registry.to_prometheus()
        for series in (
            "repro_cache_hits_total 0",
            "repro_cache_misses_total 0",
            "repro_cache_evictions_total 0",
            "repro_cache_evicted_bytes_total 0",
        ):
            assert series in text


# ---------------------------------------------------------------------------
# Engine integration: the trace agrees with QueryStats
# ---------------------------------------------------------------------------


def _traced_engine(datasets, **config_kwargs):
    config = EngineConfig(tracing=True, metrics=MetricsRegistry(), **config_kwargs)
    engine = ThreeDPro(config)
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


class TestEngineTracing:
    def test_nn_join_trace_matches_stats(self, datasets):
        engine = _traced_engine(datasets)
        result = engine.nn_join("nuclei_a", "vessels")
        stats = result.stats
        roots = engine.tracer.roots
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "query"
        assert root.attrs["query"] == "nn_join"
        assert root.attrs["results"] == stats.results
        totals = phase_totals(engine.tracer)
        assert totals["filter"] == pytest.approx(stats.filter_seconds, abs=1e-6)
        assert totals["decode"] == pytest.approx(stats.decode_seconds, abs=1e-6)
        assert totals["compute"] == pytest.approx(stats.compute_seconds, abs=1e-6)
        assert root.wall_seconds == pytest.approx(stats.total_seconds, abs=1e-6)
        names = {span.name for span in engine.tracer.walk()}
        assert {"query", "filter", "compute"} <= names

    def test_intersection_join_trace_matches_stats(self, datasets):
        engine = _traced_engine(datasets)
        stats = engine.intersection_join("nuclei_a", "nuclei_b").stats
        totals = phase_totals(engine.tracer)
        assert totals["filter"] == pytest.approx(stats.filter_seconds, abs=1e-6)
        assert totals["decode"] == pytest.approx(stats.decode_seconds, abs=1e-6)
        assert totals["compute"] == pytest.approx(stats.compute_seconds, abs=1e-6)
        # refine rounds show up as compute children with LOD attributes
        lods = [
            span.attrs["lod"]
            for span in engine.tracer.walk()
            if span.name == "refine"
        ]
        assert lods, "expected refine spans under compute"

    def test_metrics_registry_sees_the_query(self, datasets):
        engine = _traced_engine(datasets)
        engine.nn_join("nuclei_a", "vessels")
        registry = engine.metrics
        assert registry.get("repro_queries_total").value(query="nn_join") == 1
        assert registry.get("repro_query_seconds").count() == 1
        cache_activity = (
            registry.get("repro_cache_hits_total").value()
            + registry.get("repro_cache_misses_total").value()
        )
        assert cache_activity > 0
        text = registry.to_prometheus()
        for series in (
            "repro_cache_hits_total",
            "repro_decode_failures_total",
            "repro_worker_restarts_total",
        ):
            assert series in text

    def test_chrome_trace_export_is_loadable(self, datasets):
        engine = _traced_engine(datasets)
        engine.nn_join("nuclei_a", "vessels")
        doc = json.loads(json.dumps(engine.tracer.to_chrome_trace()))
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert set(event) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_disabled_tracing_uses_noop_spans_and_collects_nothing(self, datasets):
        config = EngineConfig(metrics=MetricsRegistry())
        engine = ThreeDPro(config)
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        assert engine.tracer.enabled is False
        assert engine.tracer.span("anything") is NOOP_SPAN
        stats = engine.nn_join("nuclei_a", "vessels").stats
        assert engine.tracer.roots == []
        # QueryStats is still fully populated without the tracer
        assert stats.total_seconds > 0.0
        assert stats.filter_seconds > 0.0
        assert stats.compute_seconds > 0.0
