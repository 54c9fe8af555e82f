"""Tests for the benchmark harness (workloads, runner, reporting)."""

import pytest

from repro.bench.reporting import PAPER_TABLE1, format_breakdown, format_table, speedup
from repro.bench.runner import ACCEL_VARIANTS, TESTS, TestSpec, make_engine, run_test
from repro.bench.workloads import SCALES, Workload, bench_scale
from repro.core import QueryStats


class TestScales:
    def test_default_scale_is_tiny(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale().name == "tiny"

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert bench_scale().name == "small"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            bench_scale()

    def test_scales_grow(self):
        assert (
            SCALES["tiny"].n_nuclei
            < SCALES["small"].n_nuclei
            < SCALES["medium"].n_nuclei
        )


class TestSpecs:
    def test_five_paper_tests(self):
        assert set(TESTS) == {"INT-NN", "WN-NN", "WN-NV", "NN-NN", "NN-NV"}

    def test_distance_only_for_within(self, datasets):
        workload = Workload(
            scale=SCALES["tiny"],
            datasets=datasets,
            raw={},
            within_nn=1.5,
            within_nv=9.0,
        )
        assert TESTS["INT-NN"].distance_for(workload) is None
        assert TESTS["WN-NN"].distance_for(workload) == 1.5
        assert TESTS["WN-NV"].distance_for(workload) == 9.0

    def test_accel_variants_match_paper_columns(self):
        # Fused batching (the paper's G) is always on, so it is no column.
        # The AABB-tree column (A) is a test oracle, not a variant. B and
        # P are partition thresholds: none, and the engine's default.
        assert set(ACCEL_VARIANTS) == {"B", "P"}
        assert ACCEL_VARIANTS["B"]["partition_min_faces"] == float("inf")
        assert ACCEL_VARIANTS["P"] == {}

    def test_paper_table_covers_all_base_cells(self):
        for test_id in TESTS:
            for paradigm in ("fr", "fpr"):
                for accel in ACCEL_VARIANTS:
                    assert (test_id, paradigm, accel) in PAPER_TABLE1


class TestRunner:
    @pytest.fixture(scope="class")
    def workload(self, datasets):
        return Workload(
            scale=SCALES["tiny"],
            datasets=datasets,
            raw={},
            within_nn=1.0,
            within_nv=8.0,
        )

    def test_run_each_test(self, workload):
        # profile_lods=False: this exercises the runner plumbing, not the
        # (expensive) Section 6.5 profiling pass.
        for test_id in TESTS:
            result = run_test(test_id, workload, "fpr", "B", profile_lods=False)
            assert result.stats.query == test_id
            assert result.stats.targets == len(workload.datasets["nuclei_a"])

    def test_results_agree_across_paradigms(self, workload):
        fr = run_test("INT-NN", workload, "fr", "B")
        fpr = run_test("INT-NN", workload, "fpr", "B", profile_lods=False)
        assert fr.pairs == fpr.pairs

    def test_profiled_lod_list_cached(self, workload):
        from repro.bench.runner import profiled_lod_list

        first = profiled_lod_list("INT-NN", workload, sample_size=4)
        second = profiled_lod_list("INT-NN", workload, sample_size=4)
        assert first == second
        assert first[-1] == max(first)

    def test_make_engine_with_named_accel(self, workload):
        # P partitions the conftest's 420-face vessels, B nothing.
        for accel, partitioned in (("B", False), ("P", True)):
            engine = make_engine("fpr", accel, workload=workload)
            assert engine.config.label == "FPR"
            _rtree, partitions = engine._get("vessels").index()
            assert bool(partitions) is partitioned


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 123456.0]], title="t"
        )
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "alpha" in out and "123456" in out
        assert len({len(line) for line in lines[1:]}) <= 2  # consistent width

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out

    def test_format_breakdown_percentages(self):
        stats = QueryStats(
            total_seconds=2.0,
            filter_seconds=0.2,
            decode_seconds=0.8,
            compute_seconds=1.0,
        )
        out = format_breakdown(stats)
        assert "10.0%" in out and "40.0%" in out and "50.0%" in out

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(1.0, 0.0) == float("inf")


class TestExport:
    def test_table1_matrix_and_render(self, tmp_path):
        import json

        from repro.bench.export import (
            load_benchmark_json,
            render_table1,
            table1_matrix,
        )

        payload = {
            "benchmarks": [
                {
                    "extra_info": {
                        "test": "NN-NV",
                        "paradigm": "fpr",
                        "accel": "P",
                        "seconds": 0.25,
                        "face_pairs": 1234,
                        "matches": 32,
                    }
                },
                {"extra_info": {"unrelated": True}},
            ]
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        records = load_benchmark_json(path)
        matrix = table1_matrix(records)
        assert ("NN-NV", "fpr", "P") in matrix
        assert matrix[("NN-NV", "fpr", "P")]["paper_seconds"] == 422.2
        text = render_table1(matrix)
        assert "FPR/P" in text and "422" in text
