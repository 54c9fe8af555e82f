"""Inter-target parallel execution is an invisible optimization.

The property: for every query kind, running with ``query_workers`` > 1
(worker processes) produces byte-identical pairs (including dict
insertion order), identical degraded-target sets, and identical merged
per-LOD counters to the serial run — with and without injected decode
faults. The chaos suite at the bottom extends the property to
supervised workers: SIGKILLed and hung workers are detected, the pool
is respawned, and the query still answers correctly (fully, or as a
sound partial with a ``completeness`` record) — never by silently
falling back to a serial run.
"""

import multiprocessing
import os

import pytest

from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.faults import FaultInjector

#: CI varies this (chaos matrix axis); the default seed provably fires
#: at least one worker kill for the nn join below at rate 0.4.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2"))

SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0),
    QuerySpec(kind="nn", source="vessels", target="nuclei_a"),
    QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
]

SPEC_IDS = [spec.normalized().label for spec in SPECS]

# Faulted variants join the 40-object nuclei datasets: the injector is
# key-based (seed|dataset:obj:lod), and seed 11 at rate 0.3 provably
# fires there (the fuzz suite relies on the same pair); the two-object
# vessels dataset offers too few keys to guarantee a hit.
FAULT_SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0),
    QuerySpec(kind="nn", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="knn", source="nuclei_b", target="nuclei_a", k=2),
]

FAULT_SPEC_IDS = [spec.normalized().label for spec in FAULT_SPECS]


def _build(datasets, **config_kwargs):
    engine = ThreeDPro(EngineConfig(paradigm="fpr", **config_kwargs))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


def _run(datasets, spec, workers, injector_seed=None, backend=None):
    kwargs = {"query_workers": workers}
    if backend is not None:
        kwargs["query_backend"] = backend
    injector = None
    if injector_seed is not None:
        injector = FaultInjector(seed=injector_seed, decode_error_rate=0.3)
        kwargs["fault_injector"] = injector
    engine = _build(datasets, **kwargs)
    result = engine.execute(spec)
    return result, injector


def _comparable_counters(stats):
    """The merged counters that must not depend on execution order."""
    return {
        "targets": stats.targets,
        "candidates": stats.candidates,
        "results": stats.results,
        "degraded_objects": stats.degraded_objects,
        "pairs_evaluated_by_lod": dict(stats.pairs_evaluated_by_lod),
        "pairs_pruned_by_lod": dict(stats.pairs_pruned_by_lod),
        "face_pairs_by_lod": dict(stats.face_pairs_by_lod),
    }


class TestParallelMatchesSerial:
    """Two workers; TestProcessBackendMatchesSerial below runs four."""

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_clean_run_identical(self, datasets, spec):
        serial, _ = _run(datasets, spec, workers=1)
        parallel, _ = _run(datasets, spec, workers=2)
        assert list(parallel.pairs.items()) == list(serial.pairs.items())
        assert parallel.degraded_targets == serial.degraded_targets
        assert _comparable_counters(parallel.stats) == _comparable_counters(
            serial.stats
        )

    @pytest.mark.parametrize("spec", FAULT_SPECS, ids=FAULT_SPEC_IDS)
    def test_faulted_run_identical(self, datasets, spec):
        serial, serial_inj = _run(datasets, spec, workers=1, injector_seed=11)
        parallel, _ = _run(datasets, spec, workers=2, injector_seed=11)
        assert serial_inj.counts.get("decode", 0) > 0, "no faults fired"
        assert list(parallel.pairs.items()) == list(serial.pairs.items())
        assert parallel.degraded_targets == serial.degraded_targets
        assert _comparable_counters(parallel.stats) == _comparable_counters(
            serial.stats
        )

    def test_containment_identical(self, datasets, small_scene):
        point = tuple(small_scene.nuclei_a[0].vertices.mean(axis=0))
        spec = QuerySpec(kind="containment", source="nuclei_a", point=point)
        serial, _ = _run(datasets, spec, workers=1)
        parallel, _ = _run(datasets, spec, workers=4)
        assert parallel.pairs == serial.pairs
        assert parallel.matches == serial.matches

    def test_more_workers_than_targets(self, datasets):
        # Workers spawn on demand, one per chunk at most: three targets
        # under four workers start three interpreters, not one per worker.
        spec = QuerySpec(
            kind="intersection", source="nuclei_b", target="nuclei_a",
            target_ids=(0, 1, 2),
        )
        serial, _ = _run(datasets, spec, workers=1)
        wide, _ = _run(datasets, spec, workers=4)
        assert list(wide.pairs.items()) == list(serial.pairs.items())


class TestParallelObservability:
    def test_worker_spans_nest_under_query_root(self, datasets):
        engine = _build(datasets, query_workers=4, tracing=True)
        result = engine.intersection_join("nuclei_a", "nuclei_b")
        [root] = engine.tracer.roots
        assert root.name == "query"
        workers = [child for child in root.children if child.name == "worker"]
        assert workers, "no worker spans attached to the query root"
        # every target was fanned out exactly once
        fanned = sum(span.attrs["targets"] for span in workers)
        assert fanned == result.stats.targets

    def test_parallel_query_event_logged(self, datasets, caplog):
        import logging

        engine = _build(datasets, query_workers=4)
        with caplog.at_level(logging.INFO, logger="repro"):
            engine.intersection_join("nuclei_a", "nuclei_b")
        assert any(
            record.getMessage() == "parallel_query" for record in caplog.records
        )

    def test_serial_run_has_no_worker_spans(self, datasets):
        engine = _build(datasets, query_workers=1, tracing=True)
        engine.intersection_join("nuclei_a", "nuclei_b")
        [root] = engine.tracer.roots
        assert all(child.name != "worker" for child in root.children)


class TestProcessBackendMatchesSerial:
    """serial == process, for every kind, clean and faulted.

    Worker processes re-derive decode faults from the injector key
    (``seed|dataset:obj:lod``), so fault injection is preserved across
    the process boundary — but the *parent's* injector counts stay 0 in
    process mode (faults fire in the workers), so only the serial run's
    counts are asserted.
    """

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_clean_run_identical(self, datasets, spec):
        serial, _ = _run(datasets, spec, workers=1)
        procs, _ = _run(datasets, spec, workers=4, backend="process")
        assert list(procs.pairs.items()) == list(serial.pairs.items())
        assert procs.degraded_targets == serial.degraded_targets
        assert procs.degraded_keys == serial.degraded_keys
        assert _comparable_counters(procs.stats) == _comparable_counters(
            serial.stats
        )

    @pytest.mark.parametrize("spec", FAULT_SPECS, ids=FAULT_SPEC_IDS)
    def test_faulted_run_identical(self, datasets, spec):
        serial, serial_inj = _run(datasets, spec, workers=1, injector_seed=11)
        procs, _ = _run(
            datasets, spec, workers=4, injector_seed=11, backend="process"
        )
        assert serial_inj.counts.get("decode", 0) > 0, "no faults fired"
        assert list(procs.pairs.items()) == list(serial.pairs.items())
        assert procs.degraded_targets == serial.degraded_targets
        assert procs.degraded_keys == serial.degraded_keys
        assert _comparable_counters(procs.stats) == _comparable_counters(
            serial.stats
        )

    def test_error_budget_aborts_process_run(self, datasets):
        # The budget error is raised inside a worker process and must
        # survive pickling back to the parent (custom __reduce__).
        from repro.core.errors import ErrorBudgetExceededError

        engine = _build(
            datasets,
            query_workers=4,
            query_backend="process",
            fault_injector=FaultInjector(seed=11, decode_error_rate=0.3),
            max_decode_failures=0,
        )
        with pytest.raises(ErrorBudgetExceededError):
            engine.execute(FAULT_SPECS[0])

    def test_containment_runs_serially(self, datasets, small_scene, caplog):
        # Containment has one pseudo-target, so any worker count clamps
        # to one: no pool, no worker spans, the serial answer.
        import logging

        point = tuple(small_scene.nuclei_a[0].vertices.mean(axis=0))
        spec = QuerySpec(kind="containment", source="nuclei_a", point=point)
        serial, _ = _run(datasets, spec, workers=1)
        engine = _build(
            datasets, query_workers=4, query_backend="process", tracing=True
        )
        with caplog.at_level(logging.INFO, logger="repro"):
            procs = engine.execute(spec)
        assert procs.pairs == serial.pairs
        assert procs.matches == serial.matches
        [root] = engine.tracer.roots
        assert all(child.name != "worker" for child in root.children)
        assert not any(
            record.getMessage() == "parallel_query" for record in caplog.records
        )

    def test_unavailable_pool_runs_serially(self, datasets, monkeypatch, caplog):
        # A pool or transport failure reruns the whole query through the
        # serial body: every count, the funnel included, is the serial one.
        import logging

        from repro.parallel import procpool

        def unavailable(*args, **kwargs):
            raise procpool.ProcessBackendUnavailable("no pool")

        spec = FAULT_SPECS[1]
        serial, _ = _run(datasets, spec, workers=1, injector_seed=11)
        monkeypatch.setattr(procpool, "execute_chunks", unavailable)
        with caplog.at_level(logging.WARNING, logger="repro"):
            fallback, _ = _run(
                datasets, spec, workers=4, injector_seed=11, backend="process"
            )
        assert serial.degraded_targets, "no faults fired"
        assert list(fallback.pairs.items()) == list(serial.pairs.items())
        assert fallback.degraded_targets == serial.degraded_targets
        assert fallback.stats.funnel.as_dict() == serial.stats.funnel.as_dict()
        assert dict(fallback.stats.face_pairs_by_lod) == dict(
            serial.stats.face_pairs_by_lod
        )
        assert any(
            record.getMessage() == "process_backend_fallback"
            for record in caplog.records
        )

    def test_probe_query_identical(self, datasets, small_scene):
        probe = small_scene.nuclei_a[0]
        spec = QuerySpec(kind="within", source="nuclei_b", probe=probe, distance=2.0)
        serial, _ = _run(datasets, spec, workers=1)
        procs, _ = _run(datasets, spec, workers=4, backend="process")
        assert procs.matches == serial.matches


class TestProcessBackendObservability:
    def test_worker_spans_rebased_under_query_root(self, datasets):
        engine = _build(
            datasets, query_workers=4, query_backend="process", tracing=True
        )
        result = engine.intersection_join("nuclei_a", "nuclei_b")
        [root] = engine.tracer.roots
        workers = [child for child in root.children if child.name == "worker"]
        assert workers, "no worker spans shipped back from the processes"
        assert all(span.attrs.get("backend") == "process" for span in workers)
        assert sum(span.attrs["targets"] for span in workers) == result.stats.targets
        # durations survive the pickle round-trip; offsets are rebased
        # onto the parent's timeline (non-negative relative to the root)
        for span in workers:
            assert span.wall_seconds is not None
            assert span.start_offset >= root.start_offset

    def test_worker_metrics_merged_into_parent_registry(self, datasets):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = _build(
            datasets, query_workers=4, query_backend="process", metrics=registry
        )
        engine.intersection_join("nuclei_a", "nuclei_b")
        text = registry.to_prometheus()
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_face_pairs_total") and not line.startswith("#")
        ]
        assert lines, "worker face-pair counters did not merge into the parent"
        assert sum(float(line.rsplit(" ", 1)[1]) for line in lines) > 0

    def test_stats_carry_worker_decode_costs(self, datasets):
        engine = _build(datasets, query_workers=4, query_backend="process")
        result = engine.intersection_join("nuclei_a", "nuclei_b")
        assert result.stats.decode_seconds > 0
        assert result.stats.decoded_vertices > 0

    def test_shutdown_reaps_workers(self, datasets):
        from repro.parallel import procpool

        engine = _build(datasets, query_workers=2, query_backend="process")
        engine.intersection_join("nuclei_a", "nuclei_b")
        assert multiprocessing.active_children(), "no pool workers to reap"
        procpool.shutdown()
        # No extra join: the workers are gone when shutdown() returns.
        assert multiprocessing.active_children() == []


class TestBackendResolution:
    def test_config_validation(self):
        from repro.core import EngineConfig
        from repro.core.errors import EngineConfigError

        with pytest.raises(EngineConfigError):
            EngineConfig(query_backend="fork")

    def test_thread_with_workers_rejected(self):
        from repro.core.errors import EngineConfigError

        with pytest.raises(EngineConfigError, match="thread backend was removed"):
            EngineConfig(query_backend="thread", query_workers=4)

    @pytest.mark.parametrize("workers", [1, None])
    def test_thread_keyword_still_constructs(self, workers):
        config = EngineConfig(query_backend="thread", query_workers=workers)
        assert config.query_backend == "thread"
        assert EngineConfig(query_backend="process", query_workers=4)

    def test_no_setting_and_no_environment_switch(self, monkeypatch):
        from repro.core.config import SETTINGS

        assert "query_backend" not in SETTINGS
        monkeypatch.setenv("REPRO_QUERY_BACKEND", "fork")
        monkeypatch.setenv("REPRO_QUERY_WORKERS", "4")
        assert ThreeDPro(EngineConfig()).query_workers == 4


def _chunk_count(datasets, spec, workers):
    """How many chunks the executor cuts ``spec``'s targets into."""
    engine = _build(datasets)
    plan = engine._compile(spec.normalized())
    tids = plan.strategy.target_ids(plan)
    return len(plan.strategy.target_chunks(plan, tids, workers))


def _expected_first_attempt_kills(injector, label, n_chunks):
    """Which chunks the seed kills on attempt 0 (pure roll, no firing)."""
    return [
        i
        for i in range(n_chunks)
        if injector._roll("worker_kill", f"{label}:{i}:0")
        < injector.worker_kill_rate
    ]


def _counter_value(registry, name):
    entry = registry.to_dict().get(name) or {}
    if "value" in entry:
        return entry["value"]
    return sum(series.get("value", 0.0) for series in entry.get("series", []))


def _assert_no_orphans():
    # shutdown() terminates and reaps the pool's workers itself.
    from repro.parallel import procpool

    procpool.shutdown()
    assert multiprocessing.active_children() == []


class TestChaosSupervision:
    """Killed and hung workers must not corrupt, hang, or degrade queries."""

    SPEC = QuerySpec(kind="nn", source="vessels", target="nuclei_a")

    def _run_chaos(self, datasets, injector, caplog=None, **config_kwargs):
        import logging

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = _build(
            datasets,
            query_workers=2,
            query_backend="process",
            fault_injector=injector,
            metrics=registry,
            **config_kwargs,
        )
        if caplog is not None:
            with caplog.at_level(logging.WARNING, logger="repro"):
                result = engine.execute(self.SPEC)
        else:
            result = engine.execute(self.SPEC)
        return result, registry

    def test_sigkilled_worker_recovers(self, datasets, caplog):
        serial, _ = _run(datasets, self.SPEC, workers=1)
        injector = FaultInjector(seed=CHAOS_SEED, worker_kill_rate=0.4)
        n_chunks = _chunk_count(datasets, self.SPEC, workers=2)
        kills = _expected_first_attempt_kills(
            injector, self.SPEC.normalized().label, n_chunks
        )
        result, registry = self._run_chaos(datasets, injector, caplog=caplog)
        # The answer is correct and complete — retries and quarantine
        # absorbed the crashes without a whole-query serial fallback.
        assert list(result.pairs.items()) == list(serial.pairs.items())
        assert result.complete
        assert not any(
            record.getMessage() == "process_backend_fallback"
            for record in caplog.records
        ), "supervision must not fall back to a serial run"
        if kills:
            assert _counter_value(registry, "repro_worker_restarts_total") >= 1
            assert any(
                record.getMessage() == "worker_pool_restart"
                for record in caplog.records
            )
        _assert_no_orphans()

    def test_always_killed_chunks_are_quarantined(self, datasets, caplog):
        # rate 1.0: every attempt of every chunk dies, so the supervisor
        # must burn chunk_max_attempts (2) rounds — one restart each —
        # and then answer entirely from quarantined serial execution.
        serial, _ = _run(datasets, self.SPEC, workers=1)
        injector = FaultInjector(seed=CHAOS_SEED, worker_kill_rate=1.0)
        result, registry = self._run_chaos(datasets, injector, caplog=caplog)
        assert list(result.pairs.items()) == list(serial.pairs.items())
        assert result.complete
        n_chunks = _chunk_count(datasets, self.SPEC, workers=2)
        assert _counter_value(registry, "repro_chunks_quarantined_total") == n_chunks
        assert _counter_value(registry, "repro_worker_restarts_total") == 2
        assert any(
            record.getMessage() == "chunk_quarantined" for record in caplog.records
        )
        _assert_no_orphans()

    def test_hung_worker_detected_and_recovered(self, datasets, caplog):
        serial, _ = _run(datasets, self.SPEC, workers=1)
        injector = FaultInjector(
            seed=1, task_hang_rate=0.3, task_hang_seconds=30.0
        )
        result, registry = self._run_chaos(
            datasets, injector, caplog=caplog, worker_hang_timeout_seconds=2.0
        )
        assert list(result.pairs.items()) == list(serial.pairs.items())
        assert result.complete
        assert _counter_value(registry, "repro_worker_restarts_total") >= 1
        assert any(
            record.getMessage() == "worker_pool_restart"
            for record in caplog.records
        )
        _assert_no_orphans()

    def test_kill_chaos_with_deadline_stays_sound(self, datasets):
        from dataclasses import replace as dc_replace

        serial, _ = _run(datasets, self.SPEC, workers=1)
        injector = FaultInjector(seed=CHAOS_SEED, worker_kill_rate=0.4)
        from repro.obs.metrics import MetricsRegistry

        engine = _build(
            datasets,
            query_workers=2,
            query_backend="process",
            fault_injector=injector,
            metrics=MetricsRegistry(),
        )
        result = engine.execute(dc_replace(self.SPEC, deadline_ms=60_000))
        # Under a generous deadline the chaos run still finishes; under
        # any deadline the pairs must be a subset of the clean answer.
        assert set(result.pairs) <= set(serial.pairs)
        for tid, value in result.pairs.items():
            assert value == serial.pairs[tid]
        comp = result.completeness
        assert comp.targets_total == (
            comp.targets_finished + comp.targets_inflight + comp.targets_unstarted
        )
        _assert_no_orphans()

    def test_supervision_spans_recorded(self, datasets):
        injector = FaultInjector(seed=CHAOS_SEED, worker_kill_rate=1.0)
        engine = _build(
            datasets,
            query_workers=2,
            query_backend="process",
            fault_injector=injector,
            tracing=True,
        )
        engine.execute(self.SPEC)
        [root] = engine.tracer.roots
        events = [
            span.attrs.get("event")
            for span in root.children
            if span.name == "supervision"
        ]
        assert "pool_restart" in events
        assert "chunk_quarantined" in events
        _assert_no_orphans()
