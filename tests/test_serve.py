"""The query service: wire parity, coalescing, streaming, admission.

The acceptance properties pinned here:

* a served query returns byte-identical pairs to in-process
  ``engine.execute(spec)``;
* two identical concurrent requests coalesce into ONE execution (one
  decode fan-out, verified via the decode-cache miss counter);
* streaming frames concatenate to exactly the buffered result;
* overload returns 429 while the in-flight query completes unharmed.

Coalescing and admission tests drive :class:`QueryService` directly
with a gated ``_execute`` so overlap is deterministic, not timing-luck;
wire parity and error mapping go over real HTTP.
"""

import json
import socket
import threading
import time

import pytest

from repro.core import EngineConfig, ThreeDPro
from repro.core.plan import QuerySpec
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController, OverloadedError
from repro.serve.app import QueryService, make_server
from repro.serve.client import RemoteEngine, RemoteError
from repro.serve.stream import FrameEmitter, assemble_frames
from repro.serve.wire import spec_key


def _engine(datasets, **config_kwargs):
    config_kwargs.setdefault("metrics", MetricsRegistry())
    engine = ThreeDPro(EngineConfig(**config_kwargs))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


@pytest.fixture(scope="module")
def served(datasets):
    """One HTTP server over the shared datasets, plus a local twin engine.

    The server refines in-process whatever ``REPRO_QUERY_WORKERS`` says:
    its live-hook stream test needs that. Process-backend serving is
    covered by TestProcessBackendStreaming and ``scripts/serve_smoke.py``.
    """
    engine = _engine(datasets, query_workers=1)
    server = make_server(engine, port=0, max_inflight=4, max_queue=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    remote = RemoteEngine(f"http://127.0.0.1:{port}")
    local = _engine(datasets)
    yield remote, local, engine
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=2.0),
    QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
]


class TestWireParity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_remote_pairs_identical_to_local(self, served, spec):
        remote, local, _ = served
        assert remote.execute(spec).pairs == local.execute(spec).pairs

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_streamed_result_equals_buffered(self, served, spec):
        remote, local, _ = served
        frames = list(remote.stream(spec))
        kinds = [f["frame"] for f in frames]
        assert kinds[0] == "hello"
        assert kinds[-1] == "summary"
        assembled = assemble_frames(frames)
        buffered = local.execute(spec)
        assert assembled.pairs == buffered.pairs
        assert assembled.stats.results == buffered.stats.results
        assert assembled.completeness.complete

    def test_healthz_and_datasets(self, served):
        remote, _, engine = served
        assert remote.healthz()["ok"] is True
        assert remote.datasets() == engine.dataset_names

    def test_metrics_exposes_query_latency(self, served):
        remote, _, _ = served
        text = remote.metrics_text()
        assert "repro_query_latency_seconds" in text
        assert "repro_server_inflight" in text

    def test_unknown_dataset_maps_404(self, served):
        remote, _, _ = served
        spec = QuerySpec(kind="intersection", source="nope", target="nuclei_a")
        with pytest.raises(RemoteError) as err:
            remote.execute(spec)
        assert err.value.status == 404

    @pytest.mark.parametrize("fields,message", [
        pytest.param({"kind": "intersection", "bogus": True}, "bogus", id="unknown-field"),
        pytest.param({"kind": "knn", "k": 2.5}, "k must be an integer", id="fractional-k"),
        pytest.param({"kind": "within", "distance": float("nan")}, "distance",
                     id="nan-distance"),
        pytest.param({"kind": "intersection", "target_ids": [1.7]}, "target_ids",
                     id="fractional-target-id"),
        pytest.param({"kind": "containment", "target": None, "point": [1, 2]}, "point",
                     id="two-coordinate-point"),
    ])
    def test_malformed_payload_maps_400(self, served, fields, message):
        remote, _, _ = served
        payload = {
            "schema_version": 1, "source": "nuclei_b", "target": "nuclei_a", **fields,
        }
        with pytest.raises(RemoteError) as err:
            remote.execute_raw({k: v for k, v in payload.items() if v is not None})
        assert err.value.status == 400
        assert message in err.value.message

    def test_bad_content_length_maps_400(self, served):
        remote, _, _ = served
        host, port = remote.base_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: twelve\r\n\r\n"
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert status_line.split()[1:2] == [b"400"], response
        assert b"Content-Length" in response


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_execution(self, datasets):
        engine = _engine(datasets)
        service = QueryService(engine, max_inflight=4, max_queue=8)
        spec = QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a")
        payload = spec.to_wire()

        started = threading.Event()
        release = threading.Event()
        calls = []
        real = service._execute

        def gated(s):
            calls.append(s)
            started.set()
            assert release.wait(timeout=30)
            return real(s)

        service._execute = gated
        results = {}

        def request(name):
            results[name] = service.query(payload)

        leader = threading.Thread(target=request, args=("leader",))
        leader.start()
        assert started.wait(timeout=30)
        follower = threading.Thread(target=request, args=("follower",))
        follower.start()
        # The follower registers in the single-flight map (and bumps the
        # coalesced counter) before blocking on the leader's event.
        coalesced = engine.metrics.counter("repro_server_coalesced_total")
        deadline = time.monotonic() + 30
        while coalesced.value() < 1:
            assert time.monotonic() < deadline, "follower never coalesced"
            time.sleep(0.005)
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)

        assert len(calls) == 1  # exactly one execution
        leader_wire, leader_coalesced = results["leader"]
        follower_wire, follower_coalesced = results["follower"]
        assert leader_wire == follower_wire
        assert {leader_coalesced, follower_coalesced} == {False, True}

    def test_coalesced_pair_costs_one_decode_fanout(self, datasets):
        """Decode-cache misses for a coalesced pair == one cold run's misses."""
        # The parent's decode cache is what this counts: run in-process.
        solo = _engine(datasets, query_workers=1)
        spec = QuerySpec(kind="within", source="nuclei_b", target="nuclei_a",
                         distance=2.0)
        solo.execute(spec)
        solo_misses = solo.cache.misses
        assert solo_misses > 0

        engine = _engine(datasets, query_workers=1)
        service = QueryService(engine, max_inflight=4, max_queue=8)
        payload = spec.to_wire()
        started = threading.Event()
        release = threading.Event()
        real = service._execute

        def gated(s):
            started.set()
            assert release.wait(timeout=30)
            return real(s)

        service._execute = gated
        threads = [
            threading.Thread(target=service.query, args=(payload,))
            for _ in range(2)
        ]
        threads[0].start()
        assert started.wait(timeout=30)
        threads[1].start()
        coalesced = engine.metrics.counter("repro_server_coalesced_total")
        deadline = time.monotonic() + 30
        while coalesced.value() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert engine.cache.misses == solo_misses

    def test_sequential_requests_do_not_coalesce(self, datasets):
        engine = _engine(datasets)
        service = QueryService(engine)
        payload = QuerySpec(
            kind="intersection", source="nuclei_b", target="nuclei_a"
        ).to_wire()
        _, first_coalesced = service.query(payload)
        _, second_coalesced = service.query(payload)
        assert first_coalesced is False
        assert second_coalesced is False

    def test_spec_key_normalizes_spelling(self):
        nn = QuerySpec(kind="nn", source="b", target="a")
        knn1 = QuerySpec(kind="knn", source="b", target="a", k=1)
        knn2 = QuerySpec(kind="knn", source="b", target="a", k=2)
        assert spec_key(nn) == spec_key(knn1)
        assert spec_key(nn) != spec_key(knn2)

    def test_different_deadlines_do_not_coalesce(self):
        a = QuerySpec(kind="intersection", source="b", target="a",
                      deadline_ms=100)
        b = QuerySpec(kind="intersection", source="b", target="a")
        assert spec_key(a) != spec_key(b)


class TestAdmission:
    def test_overload_rejects_429_without_disturbing_inflight(self, datasets):
        engine = _engine(datasets)
        service = QueryService(engine, max_inflight=1, max_queue=0)
        slow_started = threading.Event()
        release = threading.Event()
        real = service._execute

        def gated(s):
            slow_started.set()
            assert release.wait(timeout=30)
            return real(s)

        service._execute = gated
        payload_a = QuerySpec(
            kind="intersection", source="nuclei_b", target="nuclei_a"
        ).to_wire()
        payload_b = QuerySpec(
            kind="within", source="nuclei_b", target="nuclei_a", distance=1.0
        ).to_wire()

        outcome = {}

        def first():
            outcome["first"] = service.query(payload_a)

        t = threading.Thread(target=first)
        t.start()
        assert slow_started.wait(timeout=30)
        # Different spec (no coalescing), no free slot, no queue: 429.
        with pytest.raises(OverloadedError) as err:
            service.query(payload_b)
        assert err.value.status == 429
        rejected = engine.metrics.counter("repro_server_rejected_total")
        assert rejected.value(reason="queue_full") == 1
        release.set()
        t.join(timeout=60)
        # The in-flight query finished unharmed.
        wire, _ = outcome["first"]
        assert wire["total_matches"] >= 0
        assert wire["completeness"]["complete"] is True

    def test_queue_timeout_maps_503(self):
        controller = AdmissionController(
            1, 1, queue_timeout_seconds=0.05, metrics=MetricsRegistry()
        )
        release = threading.Event()

        def hold():
            with controller.slot():
                release.wait(timeout=30)

        t = threading.Thread(target=hold)
        t.start()
        deadline = time.monotonic() + 30
        while controller.inflight < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pytest.raises(OverloadedError) as err:
            with controller.slot():
                pass
        assert err.value.status == 503
        assert err.value.reason == "queue_timeout"
        release.set()
        t.join(timeout=10)
        assert controller.inflight == 0

    def test_gauges_track_inflight(self):
        registry = MetricsRegistry()
        controller = AdmissionController(2, 2, metrics=registry)
        gauge = registry.gauge("repro_server_inflight")
        with controller.slot():
            assert gauge.value() == 1
        assert gauge.value() == 0


class TestStreamingUnits:
    def test_emitter_deduplicates_and_flushes(self, datasets):
        engine = _engine(datasets)
        spec = QuerySpec(kind="within", source="nuclei_b", target="nuclei_a",
                         distance=2.0)
        chunks = []
        emitter = FrameEmitter(chunks.append)
        emitter.emit_hello(spec)
        result = engine.execute(spec)
        # No live hook ran (buffered execution) — the catch-up flush must
        # carry the entire answer.
        emitter.flush_missing(result)
        emitter.emit_summary(result)
        frames = [json.loads(line) for line in b"".join(chunks).splitlines()]
        assembled = assemble_frames(frames)
        assert assembled.pairs == result.pairs
        # Flushing again adds nothing: every match was already emitted.
        before = len(chunks)
        emitter.flush_missing(result)
        assert len(chunks) == before

    def test_stream_with_live_hook_has_no_catchup_frames(self, served):
        """Serial refinement emits everything live; lod=null only
        appears when process workers strip the in-process hook."""
        remote, _, _ = served
        spec = QuerySpec(kind="within", source="nuclei_b", target="nuclei_a",
                         distance=2.0)
        frames = list(remote.stream(spec))
        pair_frames = [f for f in frames if f["frame"] == "pairs"]
        assert pair_frames, "expected at least one pairs frame"
        assert all(f["lod"] is not None for f in pair_frames)

    def test_error_frame_raises_on_assembly(self):
        with pytest.raises(RuntimeError, match="boom"):
            assemble_frames([
                {"frame": "hello", "schema_version": 1, "spec": {}},
                {"frame": "error", "status": 500, "error": "boom"},
            ])


class TestProcessBackendStreaming:
    def test_process_backend_streams_via_catchup(self, datasets, tmp_path):
        """Workers cannot call back across the process boundary — the
        catch-up flush must still deliver frame-concat == buffered."""
        from repro.storage.store import save_dataset

        for name, dataset in datasets.items():
            save_dataset(dataset, tmp_path / name)
        engine = ThreeDPro(EngineConfig(
            query_workers=2, query_backend="process",
            metrics=MetricsRegistry(),
        ))
        from repro.storage.store import load_dataset
        for name in datasets:
            engine.load_dataset(load_dataset(tmp_path / name))
        service = QueryService(engine, max_inflight=2, max_queue=2)
        spec = QuerySpec(kind="intersection", source="nuclei_b",
                         target="nuclei_a")
        chunks = []
        service.run_stream(spec, FrameEmitter(chunks.append))
        frames = [json.loads(line) for line in b"".join(chunks).splitlines()]
        assembled = assemble_frames(frames)
        buffered = engine.execute(spec)
        assert assembled.pairs == buffered.pairs
