"""The sampling profiler: phase stack, reports, sampler, engine wiring."""

import pickle
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import EngineConfig, ThreeDPro
from repro.core.errors import EngineConfigError
from repro.obs import profile as profile_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    ProfileReport,
    SamplingProfiler,
    current_phase,
    phase_scope,
    pop_phase,
    push_phase,
)


class TestPhaseStack:
    def test_push_pop_nesting(self):
        assert current_phase() is None
        push_phase("outer")
        assert current_phase() == "outer"
        push_phase("inner")
        assert current_phase() == "inner"
        pop_phase()
        assert current_phase() == "outer"
        pop_phase()
        assert current_phase() is None

    def test_pop_on_empty_stack_is_harmless(self):
        pop_phase()
        assert current_phase() is None

    def test_phase_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with phase_scope("doomed"):
                assert current_phase() == "doomed"
                raise RuntimeError("boom")
        assert current_phase() is None

    def test_stacks_are_per_thread(self):
        seen = {}

        def worker():
            push_phase("worker-phase")
            seen["inner"] = current_phase()
            pop_phase()

        with phase_scope("main-phase"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert current_phase() == "main-phase"
        assert seen["inner"] == "worker-phase"


class TestProfileReport:
    def test_add_and_merge(self):
        a = ProfileReport()
        a.add("compute", ("f", "g"))
        a.add("compute", ("f", "g"), 2)
        b = ProfileReport()
        b.add("compute", ("f", "g"))
        b.add("decode", ("h",))
        a.merge(b)
        assert a.samples[("compute", ("f", "g"))] == 4
        assert a.samples[("decode", ("h",))] == 1
        assert a.total_samples == 5

    def test_phase_counts_and_shares(self):
        report = ProfileReport()
        report.add("compute", ("f",), 3)
        report.add("decode", ("g",), 1)
        assert report.phase_counts() == {"compute": 3, "decode": 1}
        assert report.phase_shares() == {"compute": 0.75, "decode": 0.25}
        assert ProfileReport().phase_shares() == {}

    def test_pickle_roundtrip(self):
        report = ProfileReport(interval_seconds=0.001)
        report.add("compute", ("mod.f", "mod.g"), 5)
        clone = pickle.loads(pickle.dumps(report))
        assert clone.samples == report.samples
        assert clone.interval_seconds == 0.001

    def test_collapsed_format(self):
        report = ProfileReport()
        report.add("compute", ("a.f", "b.g"), 2)
        report.add("decode", ("c.h",), 1)
        text = report.to_collapsed()
        assert "compute;a.f;b.g 2\n" in text
        assert "decode;c.h 1\n" in text
        # sorted for determinism
        assert text == "".join(sorted(text.splitlines(keepends=True)))

    def test_empty_collapsed_is_empty_string(self):
        assert ProfileReport().to_collapsed() == ""

    def test_top_self_ranks_by_leaf(self):
        report = ProfileReport()
        report.add("compute", ("a.f", "b.leaf"), 3)
        report.add("compute", ("c.g", "b.leaf"), 2)  # same leaf, other path
        report.add("decode", ("d.other",), 4)
        top = report.top_self(2)
        assert top[0] == ("b.leaf", "compute", 5)
        assert top[1] == ("d.other", "decode", 4)

    def test_format_table(self):
        report = ProfileReport()
        report.add("compute", ("a.f",), 1)
        table = report.format_table(5)
        assert "a.f" in table
        assert "100.0%" in table
        assert ProfileReport().format_table() == "no samples collected"


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(200))


class TestSamplingProfiler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_seconds=0)

    def test_samples_phased_work(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        try:
            with phase_scope("compute"):
                _busy(0.1)
        finally:
            profiler.stop()
        report = profiler.take()
        counts = report.phase_counts()
        assert counts.get("compute", 0) > 0
        assert set(counts) == {"compute"}

    def test_ignores_unphased_threads(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        try:
            _busy(0.05)  # no phase pushed
        finally:
            profiler.stop()
        assert profiler.take().total_samples == 0

    def test_nested_start_stop_keeps_sampler_alive(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        profiler.start()
        profiler.stop()
        assert profiler.running
        profiler.stop()
        assert not profiler.running

    def test_take_swaps_report(self):
        profiler = SamplingProfiler()
        profiler.absorb(None)  # no-op
        shipped = ProfileReport()
        shipped.add("decode", ("x.f",), 2)
        profiler.absorb(shipped)
        first = profiler.take()
        assert first.total_samples == 2
        assert profiler.take().total_samples == 0

    def test_torn_frame_chain_drops_one_sample(self, monkeypatch):
        """A frame chain torn down mid-walk (``f_back`` no longer a
        frame) costs that one sample, never the sampler thread."""
        tid = -4242  # no real thread has this id
        monkeypatch.setitem(profile_module._STACKS, tid, ["compute"])
        code = _busy.__code__
        torn = SimpleNamespace(f_code=code, f_back=7)
        whole = SimpleNamespace(f_code=code, f_back=None)
        chains = iter([{tid: torn}, {tid: whole}])
        monkeypatch.setattr(profile_module.sys, "_current_frames", lambda: next(chains))
        profiler = SamplingProfiler()
        profiler._sample(me=0)  # must not raise
        assert profiler.report.total_samples == 0
        profiler._sample(me=0)
        report = profiler.take()
        assert report.samples == {("compute", ("test_profile._busy",)): 1}

    def test_switch_interval_restored(self):
        before = sys.getswitchinterval()
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        assert sys.getswitchinterval() <= 0.001
        profiler.stop()
        assert sys.getswitchinterval() == before


class TestEngineWiring:
    def test_profiling_off_by_default(self):
        engine = ThreeDPro(EngineConfig(metrics=MetricsRegistry()))
        assert engine.profiler is None
        assert engine.take_profile() is None

    def test_config_validates_interval(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(profile_interval_ms=0)

    def test_profiled_query_buckets_by_phase(self, datasets):
        engine = ThreeDPro(
            EngineConfig(
                metrics=MetricsRegistry(), profiling=True, profile_interval_ms=0.5
            )
        )
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        for _ in range(3):
            engine.within_join("nuclei_a", "nuclei_b", 1.0)
        assert not engine.profiler.running  # stopped between queries
        report = engine.take_profile()
        counts = report.phase_counts()
        assert report.total_samples > 0
        known = {"filter", "decode", "compute", "other"}
        assert set(counts) <= known
        assert report.to_collapsed()  # non-empty export

    def test_profile_ships_from_process_workers(self, datasets):
        engine = ThreeDPro(
            EngineConfig(
                metrics=MetricsRegistry(),
                profiling=True,
                profile_interval_ms=0.5,
                query_workers=2,
                query_backend="process",
            )
        )
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        for _ in range(2):
            engine.within_join("nuclei_a", "nuclei_b", 1.0)
        report = engine.take_profile()
        # Parent plus shipped worker samples land in one report; the
        # scene is small, so only assert the plumbing produced samples.
        assert report.total_samples > 0
