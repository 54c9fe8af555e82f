"""Deadline-bounded queries return sound, anytime partial results.

The FPR contract makes partiality cheap to reason about: a pair is only
ever emitted once it is *confirmed*, so whatever a deadline-bounded run
has accumulated is a subset of the undeadlined run's answer — never a
wrong pair, never a retracted pair. These tests pin that property across
all three backends plus the bookkeeping around it (the
``QueryResult.completeness`` record and config/env resolution).

Determinism note: wall-clock deadlines stop at a timing-dependent
checkpoint, so cross-backend tests assert the *subset property* and the
completeness arithmetic, never "where it stopped". Fully deterministic
stop points use a counting cancellation token instead (cancellation and
deadline expiry share every checkpoint).
"""

import threading
from dataclasses import replace

import pytest

from repro.core import (
    CancellationToken,
    Deadline,
    DeadlineExceededError,
    EngineConfig,
    QuerySpec,
    ThreeDPro,
)
from repro.core.errors import EngineConfigError

SPECS = [
    QuerySpec(kind="intersection", source="nuclei_b", target="nuclei_a"),
    QuerySpec(kind="within", source="nuclei_b", target="nuclei_a", distance=1.0),
    QuerySpec(kind="nn", source="vessels", target="nuclei_a"),
    QuerySpec(kind="knn", source="vessels", target="nuclei_a", k=2),
]

SPEC_IDS = [spec.normalized().label for spec in SPECS]


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class CountingToken:
    """Cancels itself after ``limit`` checkpoint reads — deterministic."""

    def __init__(self, limit):
        self.limit = limit
        self.checks = 0
        self._lock = threading.Lock()

    @property
    def cancelled(self):
        with self._lock:
            self.checks += 1
            return self.checks > self.limit

    @property
    def reason(self):
        return "cancelled"


def _build(datasets, **config_kwargs):
    # Pin the execution shape: these tests pick their worker count per
    # case, so a REPRO_QUERY_WORKERS environment (the CI chaos matrix)
    # must not silently rewire the "serial" engines.
    config_kwargs.setdefault("query_workers", 1)
    engine = ThreeDPro(EngineConfig(paradigm="fpr", **config_kwargs))
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


def _assert_sound_subset(partial, full):
    """Every pair in ``partial`` appears, confirmed, in ``full``."""
    assert set(partial.pairs) <= set(full.pairs)
    for tid, value in partial.pairs.items():
        reference = full.pairs[tid]
        if isinstance(value, list):
            assert set(value) <= set(reference), (tid, value, reference)
        else:
            assert value == reference, (tid, value, reference)


def _assert_completeness_arithmetic(result):
    comp = result.completeness
    assert comp.targets_total == (
        comp.targets_finished + comp.targets_inflight + comp.targets_unstarted
    )
    assert result.complete == comp.complete


class TestDeadlinePrimitive:
    def test_expires_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(seconds=5.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(5.0)
        deadline.check("here")  # within budget: no raise
        clock.now = 5.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check("target_loop")
        assert err.value.reason == "deadline"
        assert err.value.where == "target_loop"
        assert err.value.deadline_ms == 5000

    def test_no_budget_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(token=CancellationToken(), clock=clock)
        clock.now = 1e9
        assert not deadline.expired
        assert deadline.remaining() is None
        deadline.check()

    def test_cancellation_wins_over_expiry_reason(self):
        clock = FakeClock()
        token = CancellationToken()
        deadline = Deadline(seconds=1.0, token=token, clock=clock)
        clock.now = 2.0
        token.cancel()
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check()
        assert err.value.reason == "cancelled"

    def test_token_latches_first_reason(self):
        token = CancellationToken()
        token.cancel("user hit ^C")
        token.cancel("later")
        assert token.cancelled
        assert token.reason == "user hit ^C"

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(seconds=0)
        with pytest.raises(ValueError):
            Deadline(seconds=-1)

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250, clock=clock)
        assert deadline.deadline_ms == 250
        assert deadline.remaining() == pytest.approx(0.25)
        assert Deadline.after_ms(None).remaining() is None

    def test_error_pickles(self):
        import pickle

        err = DeadlineExceededError("deadline", "decode", 42)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == "deadline"
        assert clone.where == "decode"
        assert clone.deadline_ms == 42


class TestResolution:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(
                kind="nn", source="a", target="b", deadline_ms=0
            ).normalized()

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "100")
        assert EngineConfig(deadline_ms=50).resolve_deadline_ms() == 50
        assert EngineConfig().resolve_deadline_ms() == 100

    def test_env_validation_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_MS", "soon")
        with pytest.raises(EngineConfigError):
            EngineConfig().resolve_deadline_ms()
        monkeypatch.setenv("REPRO_DEADLINE_MS", "0")
        with pytest.raises(EngineConfigError):
            EngineConfig().resolve_deadline_ms()

    def test_config_validation(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(deadline_ms=0)
        with pytest.raises(EngineConfigError):
            EngineConfig(worker_hang_timeout_seconds=0)
        with pytest.raises(EngineConfigError):
            EngineConfig(chunk_max_attempts=0)
        with pytest.raises(EngineConfigError):
            EngineConfig(pool_failure_threshold=0)


class TestPartialResults:
    """Deterministic stop points via a counting cancellation token."""

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_serial_partial_is_sound_subset(self, datasets, spec):
        engine = _build(datasets)
        full = engine.execute(spec)
        assert full.complete
        seen_partial = False
        for limit in (0, 3, 25, 200):
            partial = engine.execute(
                replace(spec, cancellation=CountingToken(limit))
            )
            _assert_sound_subset(partial, full)
            _assert_completeness_arithmetic(partial)
            if not partial.complete:
                seen_partial = True
                assert partial.completeness.reason == "cancelled"
        assert seen_partial, "no limit interrupted the query"

    def test_serial_partial_is_deterministic(self, datasets):
        # Two *fresh* engines: checkpoint counts include the decode
        # ladder, so identical stop points require identical (cold)
        # cache state — determinism is per engine-state, by design.
        spec = SPECS[0]
        first = _build(datasets).execute(replace(spec, cancellation=CountingToken(25)))
        second = _build(datasets).execute(replace(spec, cancellation=CountingToken(25)))
        assert list(first.pairs.items()) == list(second.pairs.items())
        assert first.completeness.as_dict() == second.completeness.as_dict()

    def test_immediate_cancel_returns_empty_partial(self, datasets):
        token = CancellationToken()
        token.cancel("caller gave up")
        engine = _build(datasets)
        result = engine.execute(replace(SPECS[0], cancellation=token))
        assert result.pairs == {}
        assert not result.complete
        comp = result.completeness
        assert comp.reason == "cancelled"
        assert comp.targets_finished == 0
        assert comp.targets_unstarted == comp.targets_total

    def test_process_cancel_returns_partial(self, datasets):
        # The supervisor reads the token: a cancelled query quarantines
        # its pending chunks, whose parent-side runs stop at their first
        # checkpoint — the serial path's partial shape.
        full = _build(datasets).execute(SPECS[0])
        token = CancellationToken()
        token.cancel()
        engine = _build(datasets, query_workers=2)
        result = engine.execute(replace(SPECS[0], cancellation=token))
        _assert_sound_subset(result, full)
        _assert_completeness_arithmetic(result)
        comp = result.completeness
        assert not comp.complete
        assert comp.reason == "cancelled"
        assert result.pairs == {}
        assert comp.targets_finished == 0

    def test_process_cancel_in_flight_is_sound_subset(self, datasets):
        spec = SPECS[3]
        full = _build(datasets).execute(spec)
        token = CancellationToken()
        engine = _build(datasets, query_workers=2)
        timer = threading.Timer(0.2, token.cancel)
        timer.start()
        try:
            result = engine.execute(replace(spec, cancellation=token))
        finally:
            timer.cancel()
        _assert_sound_subset(result, full)
        _assert_completeness_arithmetic(result)
        if not result.complete:
            assert result.completeness.reason == "cancelled"

    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    def test_process_partial_is_sound_subset(self, datasets, spec):
        serial = _build(datasets)
        full = serial.execute(spec)
        engine = _build(datasets, query_workers=2, query_backend="process")
        partial = engine.execute(replace(spec, deadline_ms=1))
        _assert_sound_subset(partial, full)
        _assert_completeness_arithmetic(partial)
        assert partial.completeness.deadline_ms == 1

    @pytest.mark.parametrize("workers,backend", [(1, None), (2, "process")])
    def test_generous_deadline_is_invisible(self, datasets, workers, backend):
        kwargs = {"query_workers": workers}
        if backend is not None:
            kwargs["query_backend"] = backend
        serial = _build(datasets)
        full = serial.execute(SPECS[0])
        engine = _build(datasets, **kwargs)
        result = engine.execute(replace(SPECS[0], deadline_ms=600_000))
        assert result.complete
        assert list(result.pairs.items()) == list(full.pairs.items())
        comp = result.completeness
        assert comp.targets_finished == comp.targets_total
        assert comp.targets_unstarted == 0

    def test_partial_metric_and_log(self, datasets, caplog):
        import logging

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = _build(datasets, metrics=registry)
        token = CancellationToken()
        token.cancel()
        with caplog.at_level(logging.WARNING, logger="repro"):
            engine.execute(replace(SPECS[0], cancellation=token))
        assert any(
            record.getMessage() == "partial_result" for record in caplog.records
        )
        text = registry.to_prometheus()
        assert 'repro_deadline_exceeded_total{reason="cancelled"} 1' in text

    def test_probe_query_carries_completeness(self, datasets, small_scene):
        token = CancellationToken()
        token.cancel()
        engine = _build(datasets)
        spec = QuerySpec(
            kind="within", source="nuclei_b", probe=small_scene.nuclei_a[0],
            distance=2.0, cancellation=token,
        )
        result = engine.execute(spec)
        assert not result.complete
        assert result.completeness.reason == "cancelled"
