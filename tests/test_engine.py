"""Integration tests: every engine configuration against ground truth.

The naive engine (exhaustive full-resolution evaluation, with provably
safe MBB skipping) defines correct answers; every paradigm/acceleration
cell of the paper's Table 1 must return exactly the same joins. The
AABB-tree cells (``A``) run the per-pair oracle's tree mode
(``tests/oracles/per_pair_refine.py``), which checks that oracle
against ground truth too; the swap is in-process, so they run serially.
"""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import pytest

from repro.baselines import NaiveEngine
from repro.core import EngineConfig, QuerySpec, ThreeDPro
from repro.core import engine as engine_module
from repro.core.errors import DatasetNotLoadedError, EngineConfigError
from repro.geometry import AABB
from repro.mesh import icosphere
from repro.storage import Dataset, load_dataset, save_dataset
from tests.oracles import per_pair_refine

WITHIN_DISTANCE = 1.0

# (config, tree): ``tree`` refines through the AABB-tree oracle, whose
# trees index whole objects. B and A legs partition nothing (the 420-face
# vessels sit above the default threshold of 400); P partitions them.
UNPARTITIONED = {"partition_min_faces": math.inf}
CONFIGS = [
    pytest.param(EngineConfig(paradigm="fr", **UNPARTITIONED), False, id="FR/B"),
    pytest.param(EngineConfig(paradigm="fpr", **UNPARTITIONED), False, id="FPR/B"),
    pytest.param(
        EngineConfig(paradigm="fr", query_workers=1, **UNPARTITIONED), True, id="FR/A",
    ),
    pytest.param(
        EngineConfig(paradigm="fpr", query_workers=1, **UNPARTITIONED), True, id="FPR/A",
    ),
    pytest.param(EngineConfig(paradigm="fpr", partition_min_faces=200), False, id="FPR/P"),
]


def refining(tree):
    return per_pair_refine.installed(tree=True) if tree else nullcontext()


@pytest.fixture(scope="module")
def truth_int(small_scene):
    return NaiveEngine(small_scene.nuclei_a, small_scene.nuclei_b, prefilter=True).intersection_join().pairs


@pytest.fixture(scope="module")
def truth_wn(small_scene):
    return NaiveEngine(small_scene.nuclei_a, small_scene.nuclei_b, prefilter=True).within_join(WITHIN_DISTANCE).pairs


@pytest.fixture(scope="module")
def truth_nn(naive_nn_vessels):
    return naive_nn_vessels


def build_engine(config, datasets):
    engine = ThreeDPro(config)
    for dataset in datasets.values():
        engine.load_dataset(dataset)
    return engine


class TestJoinCorrectness:
    @pytest.mark.parametrize("config,tree", CONFIGS)
    def test_intersection_join_matches_truth(self, config, tree, datasets, truth_int):
        engine = build_engine(config, datasets)
        with refining(tree):
            result = engine.intersection_join("nuclei_a", "nuclei_b")
        assert result.pairs == truth_int

    @pytest.mark.parametrize("config,tree", CONFIGS)
    def test_within_join_matches_truth(self, config, tree, datasets, truth_wn):
        engine = build_engine(config, datasets)
        with refining(tree):
            result = engine.within_join("nuclei_a", "nuclei_b", WITHIN_DISTANCE)
        assert result.pairs == truth_wn

    @pytest.mark.parametrize("config,tree", CONFIGS)
    def test_nn_join_matches_truth(self, config, tree, datasets, truth_nn):
        engine = build_engine(config, datasets)
        with refining(tree):
            result = engine.nn_join("nuclei_a", "vessels")
        assert set(result.pairs) == set(truth_nn)
        for tid, (true_sid, true_dist) in truth_nn.items():
            matches = result.pairs[tid]
            assert len(matches) == 1
            sid, dist, exact = matches[0]
            assert sid == true_sid
            if exact:
                assert dist == pytest.approx(true_dist, abs=1e-9)
            else:
                # Early-returned NN: the reported bound upper-bounds truth.
                assert dist >= true_dist - 1e-9

    def test_knn_matches_truth(self, datasets, naive_knn2_vessels):
        truth = naive_knn2_vessels
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        result = engine.knn_join("nuclei_a", "vessels", k=2)
        for tid, expected in truth.items():
            got = result.pairs[tid]
            # The k-nearest *set* is always correct; the order is only
            # guaranteed when refinement ran to exact distances (an early
            # FPR return leaves it sorted by upper bound).
            assert {sid for sid, _d, _e in got} == {sid for sid, _d in expected}
            if all(exact for _sid, _d, exact in got):
                assert [sid for sid, _d, _e in got] == [sid for sid, _d in expected]

    def test_knn_exact_under_fr_matches_truth_order(self, datasets, naive_knn2_vessels):
        truth = naive_knn2_vessels
        engine = build_engine(EngineConfig(paradigm="fr"), datasets)
        result = engine.knn_join("nuclei_a", "vessels", k=2)
        for tid, expected in truth.items():
            got = result.pairs[tid]
            assert [sid for sid, _d, _e in got] == [sid for sid, _d in expected]
            for (_sid, dist, exact), (_tsid, tdist) in zip(got, expected):
                assert exact
                assert dist == pytest.approx(tdist, abs=1e-9)


class TestParadigmBehaviour:
    def test_fpr_evaluates_fewer_face_pairs_than_fr(self, datasets):
        fr = build_engine(EngineConfig(paradigm="fr"), datasets)
        fpr = build_engine(EngineConfig(paradigm="fpr"), datasets)
        fr_stats = fr.intersection_join("nuclei_a", "nuclei_b").stats
        fpr_stats = fpr.intersection_join("nuclei_a", "nuclei_b").stats
        assert fpr_stats.face_pairs_total < fr_stats.face_pairs_total

    def test_fr_uses_single_lod(self, datasets):
        engine = build_engine(EngineConfig(paradigm="fr"), datasets)
        stats = engine.intersection_join("nuclei_a", "nuclei_b").stats
        assert len(stats.pairs_evaluated_by_lod) == 1

    def test_fpr_touches_low_lods(self, datasets):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        stats = engine.intersection_join("nuclei_a", "nuclei_b").stats
        assert 0 in stats.pairs_evaluated_by_lod

    def test_custom_lod_list_respected(self, datasets):
        engine = build_engine(
            EngineConfig(paradigm="fpr", lod_list=(0, 2)), datasets
        )
        stats = engine.within_join("nuclei_a", "nuclei_b", WITHIN_DISTANCE).stats
        lods = set(stats.pairs_evaluated_by_lod)
        top = max(lods)
        assert lods <= {0, 2, top}

    def test_time_accounting_sums_to_total(self, datasets):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        stats = engine.within_join("nuclei_a", "nuclei_b", WITHIN_DISTANCE).stats
        accounted = (
            stats.filter_seconds + stats.decode_seconds + stats.compute_seconds
        )
        # Phase seconds are summed *busy* time across query workers, so
        # under parallel execution (e.g. REPRO_QUERY_WORKERS in CI) the
        # sum may exceed wall time by up to the worker count.
        assert accounted <= stats.total_seconds * engine.query_workers + 1e-6

    def test_cache_hits_accumulate_across_queries(self, datasets):
        # The parent's decode cache is what this counts: run in-process.
        engine = build_engine(EngineConfig(paradigm="fpr", query_workers=1), datasets)
        first = engine.within_join("nuclei_a", "nuclei_b", WITHIN_DISTANCE).stats
        second = engine.within_join("nuclei_a", "nuclei_b", WITHIN_DISTANCE).stats
        assert second.cache_hits > first.cache_hits or second.cache_misses == 0


class TestContainment:
    def test_nested_spheres_intersect(self):
        # Surfaces disjoint, small sphere strictly inside the big one:
        # Algorithm 1's containment stage must still report intersection.
        big = icosphere(2, radius=3.0)
        small = icosphere(2, radius=0.5)
        engine = ThreeDPro(EngineConfig(paradigm="fpr"))
        engine.load_dataset(Dataset("big", [__import__("repro.compression", fromlist=["PPVPEncoder"]).PPVPEncoder().encode(big)]))
        engine.load_dataset(Dataset("small", [__import__("repro.compression", fromlist=["PPVPEncoder"]).PPVPEncoder().encode(small)]))
        assert engine.intersection_join("big", "small").pairs == {0: [0]}
        assert engine.intersection_join("small", "big").pairs == {0: [0]}

    def test_disjoint_spheres_do_not_intersect(self):
        from repro.compression import PPVPEncoder

        a = icosphere(1, center=(0, 0, 0))
        b = icosphere(1, center=(5, 0, 0))
        engine = ThreeDPro(EngineConfig(paradigm="fpr"))
        engine.load_dataset(Dataset("a", [PPVPEncoder().encode(a)]))
        engine.load_dataset(Dataset("b", [PPVPEncoder().encode(b)]))
        assert engine.intersection_join("a", "b").pairs == {}


class TestProbeQueries:
    # Probe queries go through execute(QuerySpec(probe=...)).

    @staticmethod
    def _probe_matches(engine, kind, source, probe, **kwargs):
        return engine.execute(
            QuerySpec(kind=kind, source=source, probe=probe, **kwargs)
        ).matches

    def test_intersection_query(self, datasets, small_scene):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        probe = small_scene.nuclei_a[0]
        hits = self._probe_matches(engine, "intersection", "nuclei_b", probe)
        truth = NaiveEngine([probe], small_scene.nuclei_b, prefilter=True).intersection_join()
        assert sorted(hits) == truth.pairs.get(0, [])

    def test_within_query(self, datasets, small_scene):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        probe = small_scene.nuclei_a[3]
        hits = self._probe_matches(
            engine, "within", "nuclei_b", probe, distance=WITHIN_DISTANCE
        )
        truth = NaiveEngine([probe], small_scene.nuclei_b, prefilter=True).within_join(WITHIN_DISTANCE)
        assert sorted(hits) == truth.pairs.get(0, [])

    def test_nn_query(self, datasets, small_scene, naive_knn2_vessels):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        probe = small_scene.nuclei_a[5]
        matches = self._probe_matches(engine, "nn", "vessels", probe)
        truth = NaiveEngine([probe], small_scene.vessels, prefilter=True).nn_join()
        assert matches
        assert matches[0][0] == truth.pairs[0][0]
        # The shared NN truth (conftest.naive_nn_vessels) is the 2-NN
        # table's first column: the same answer nn_join gives.
        assert truth.pairs[0] == naive_knn2_vessels[5][0]

    def test_probe_dataset_cleaned_up(self, datasets, small_scene):
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        self._probe_matches(engine, "nn", "vessels", small_scene.nuclei_a[0])
        assert all("__probe__" not in name for name in engine.dataset_names)

    def test_back_to_back_probes_do_not_share_state(self, datasets, small_scene):
        """Regression: probe datasets used one fixed name, so a second
        probe query could reuse the first probe's cached decodes."""
        engine = build_engine(EngineConfig(paradigm="fpr"), datasets)
        probe_a, probe_b = small_scene.nuclei_a[0], small_scene.nuclei_a[7]
        first = self._probe_matches(engine, "intersection", "nuclei_b", probe_a)
        second = self._probe_matches(engine, "intersection", "nuclei_b", probe_b)

        fresh = build_engine(EngineConfig(paradigm="fpr"), datasets)
        assert sorted(second) == sorted(
            self._probe_matches(fresh, "intersection", "nuclei_b", probe_b)
        )
        # the first probe repeated on the warm engine still answers the same
        assert sorted(
            self._probe_matches(engine, "intersection", "nuclei_b", probe_a)
        ) == sorted(first)
        # and no probe decodes linger in the shared cache
        assert not any(
            str(key[0]).startswith("__probe__") for key in engine.cache._entries
        )


class TestErrors:
    def test_unknown_dataset(self, datasets):
        engine = build_engine(EngineConfig(), datasets)
        with pytest.raises(DatasetNotLoadedError):
            engine.intersection_join("nuclei_a", "nope")

    def test_negative_distance(self, datasets):
        engine = build_engine(EngineConfig(), datasets)
        with pytest.raises(EngineConfigError):
            engine.within_join("nuclei_a", "nuclei_b", -1.0)

    def test_bad_k(self, datasets):
        engine = build_engine(EngineConfig(), datasets)
        with pytest.raises(EngineConfigError):
            engine.knn_join("nuclei_a", "nuclei_b", k=0)


class TestSourceIndex:
    """Partitioning is decided by object size, and a dataset's index
    (R-tree plus partitions) is built once, on its first use as a source."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of ``partition_faces`` calls and R-trees built."""
        counts = {"partition_faces": 0, "rtree": 0}
        real_partition, real_rtree = engine_module.partition_faces, engine_module.RTree

        def partition_faces(*args, **kwargs):
            counts["partition_faces"] += 1
            time.sleep(0.05)  # widen the window for racing first uses
            return real_partition(*args, **kwargs)

        def rtree(*args, **kwargs):
            counts["rtree"] += 1
            return real_rtree(*args, **kwargs)

        monkeypatch.setattr(engine_module, "partition_faces", partition_faces)
        monkeypatch.setattr(engine_module, "RTree", rtree)
        return counts

    def test_default_threshold_partitions_large_objects_only(self, datasets):
        nucleus = datasets["nuclei_a"].objects[0]
        vessel = datasets["vessels"].objects[0]
        assert nucleus.face_count_at_lod(nucleus.max_lod) < 400
        assert vessel.face_count_at_lod(vessel.max_lod) >= 400
        engine = ThreeDPro(EngineConfig())
        engine.load_dataset(Dataset("mixed", [nucleus, vessel]))
        rtree, partitions = engine._get("mixed").index()
        assert set(partitions) == {1}
        everything = AABB((-1e9, -1e9, -1e9), (1e9, 1e9, 1e9))
        payloads = set(rtree.query_intersecting(everything))
        assert (0, None) in payloads
        assert {sid for sid, part in payloads if part is not None} == {1}

    def test_target_only_dataset_is_never_indexed(self, datasets, tmp_path, counted):
        # Serial: the counting wrappers cannot see into worker processes.
        engine = ThreeDPro(EngineConfig(query_workers=1))
        loaded = {}
        for name, dataset in datasets.items():
            save_dataset(dataset, tmp_path / name)
            loaded[name] = load_dataset(tmp_path / name)
            engine.load_dataset(loaded[name])
        engine.intersection_join("nuclei_a", "nuclei_b")
        engine.nn_join("nuclei_a", "nuclei_b")
        assert loaded["vessels"].materialized_count() == 0
        assert counted == {"partition_faces": 0, "rtree": 1}

    def test_concurrent_first_source_uses_build_once(self, datasets, counted):
        engine = build_engine(EngineConfig(query_workers=1), datasets)
        spec = QuerySpec(kind="intersection", source="vessels", target="nuclei_a")
        barrier = threading.Barrier(4)

        def first_use(_i):
            barrier.wait(timeout=30)
            return engine.execute(spec).pairs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(first_use, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 4
        assert all(answer == answers[0] for answer in answers)
        assert counted == {"partition_faces": len(datasets["vessels"]), "rtree": 1}
