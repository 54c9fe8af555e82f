"""Edge cases and failure injection for the engine and storage layers."""

import numpy as np
import pytest

from repro.compression import PPVPEncoder
from repro.core import EngineConfig, ThreeDPro
from repro.mesh import box_mesh, icosphere, tetrahedron
from repro.storage import Dataset


@pytest.fixture()
def engine():
    return ThreeDPro(EngineConfig(paradigm="fpr"))


def single(name, mesh):
    return Dataset(name, [PPVPEncoder().encode(mesh)])


class TestEmptyAndSingleton:
    def test_empty_source(self, engine):
        engine.load_dataset(single("a", icosphere(1)))
        engine.load_dataset(Dataset("empty", []))
        assert engine.intersection_join("a", "empty").pairs == {}
        assert engine.within_join("a", "empty", 10.0).pairs == {}
        assert engine.nn_join("a", "empty").pairs == {}

    def test_empty_target(self, engine):
        engine.load_dataset(Dataset("empty", []))
        engine.load_dataset(single("b", icosphere(1)))
        result = engine.intersection_join("empty", "b")
        assert result.pairs == {}
        assert result.stats.targets == 0

    def test_single_object_self_join(self, engine):
        engine.load_dataset(single("a", icosphere(1)))
        engine.load_dataset(single("b", icosphere(1)))  # identical copy
        assert engine.intersection_join("a", "b").pairs == {0: [0]}

    def test_tetrahedron_incompressible_but_queryable(self, engine):
        # A tetrahedron has no removable vertex: 0 rounds, single LOD.
        obj = PPVPEncoder().encode(tetrahedron())
        assert obj.num_rounds == 0
        assert obj.max_lod == 0
        engine.load_dataset(Dataset("t", [obj]))
        engine.load_dataset(single("probe", tetrahedron(scale=0.5)))
        assert engine.intersection_join("probe", "t").pairs == {0: [0]}


class TestMixedComplexity:
    def test_mixed_lod_datasets_join_correctly(self, engine):
        # One dataset mixes a deep-LOD sphere with a zero-round tetra;
        # the schedule must clamp per object without errors.
        rich = PPVPEncoder(max_lods=6).encode(icosphere(2, center=(0, 0, 0)))
        poor = PPVPEncoder().encode(tetrahedron(center=(6, 0, 0)))
        engine.load_dataset(Dataset("mixed", [rich, poor]))
        engine.load_dataset(single("probe", icosphere(1, center=(0, 0, 0))))
        result = engine.nn_join("probe", "mixed")
        assert result.pairs[0][0][0] == 0  # the co-located sphere wins

    def test_far_probe_still_finds_nn(self, engine):
        engine.load_dataset(single("a", icosphere(1, center=(1000, 1000, 1000))))
        engine.load_dataset(single("b", box_mesh((0, 0, 0), (1, 1, 1))))
        result = engine.nn_join("b", "a")
        assert result.pairs[0][0][0] == 0

    def test_zero_distance_within(self, engine):
        # Touching boxes: distance 0 qualifies for a within(0) join.
        engine.load_dataset(single("a", box_mesh((0, 0, 0), (1, 1, 1))))
        engine.load_dataset(single("b", box_mesh((1, 0, 0), (2, 1, 1))))
        assert engine.within_join("a", "b", 0.0).pairs == {0: [0]}


class TestDatasetValidation:
    def test_empty_dataset_has_no_grid(self):
        with pytest.raises(ValueError):
            Dataset("empty", []).grid

    def test_empty_dataset_batches(self):
        assert Dataset("empty", []).cuboid_batches() == []

    def test_save_load_empty_roundtrip(self, tmp_path):
        from repro.storage import load_dataset, save_dataset

        summary = save_dataset(Dataset("empty", []), tmp_path / "e")
        assert summary["total_bytes"] == 0
        loaded = load_dataset(tmp_path / "e")
        assert len(loaded) == 0


class TestDeterminism:
    def test_same_config_same_results_and_counts(self):
        meshes = [icosphere(1, center=(i * 3.0, 0, 0)) for i in range(5)]
        probes = [icosphere(1, center=(i * 3.0 + 1.1, 0, 0)) for i in range(5)]

        def run():
            engine = ThreeDPro(EngineConfig(paradigm="fpr"))
            engine.load_dataset(Dataset("s", [PPVPEncoder().encode(m) for m in meshes]))
            engine.load_dataset(Dataset("p", [PPVPEncoder().encode(m) for m in probes]))
            result = engine.intersection_join("p", "s")
            return result.pairs, result.stats.face_pairs_total

        first_pairs, first_count = run()
        second_pairs, second_count = run()
        assert first_pairs == second_pairs
        assert first_count == second_count

    def test_encoding_is_deterministic(self):
        mesh = icosphere(2)
        a = PPVPEncoder().encode(mesh)
        b = PPVPEncoder().encode(mesh)
        assert a.rounds == b.rounds
        assert np.array_equal(a.base_faces, b.base_faces)


class TestExactNNDistances:
    def test_forced_exact_distances_match_naive(self, naive_nn_vessels, datasets):
        from repro.core import EngineConfig, ThreeDPro

        truth = naive_nn_vessels
        engine = ThreeDPro(EngineConfig(paradigm="fpr", exact_nn_distances=True))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        result = engine.nn_join("nuclei_a", "vessels")
        for tid, (true_sid, true_dist) in truth.items():
            [(sid, dist, exact)] = result.pairs[tid]
            assert exact
            assert sid == true_sid
            assert dist == pytest.approx(true_dist, abs=1e-9)

    def test_default_mode_may_return_bounds(self, datasets):
        from repro.core import EngineConfig, ThreeDPro

        engine = ThreeDPro(EngineConfig(paradigm="fpr"))
        for dataset in datasets.values():
            engine.load_dataset(dataset)
        result = engine.nn_join("nuclei_a", "vessels")
        # With few vessels, at least some targets settle early (inexact).
        flags = [exact for matches in result.pairs.values() for _s, _d, exact in matches]
        assert not all(flags)


class TestNNRangeCollapseRegression:
    def test_ulp_noise_cannot_prune_the_true_neighbor(self):
        """Regression for a floating-point bug: a low-LOD MAXDIST can sit
        one ulp below the exact top-LOD distance (kernel summation order
        differs between LODs); keeping the stale bound made
        ``mindist > maxdist`` and pruned every candidate. Seed 4 of the
        equivalence property reproduced it."""
        from repro.datagen import make_nucleus

        seed = 4
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(0, 2.5, size=(8, 3))
        targets = [
            make_nucleus(np.random.default_rng(seed * 31 + i), center=(i * 3.0, 0, 0), subdivisions=1)
            for i in range(8)
        ]
        sources = [
            make_nucleus(
                np.random.default_rng(seed * 57 + i),
                center=tuple(np.array([i * 3.0, 0, 0]) + offsets[i]),
                subdivisions=1,
            )
            for i in range(8)
        ]
        encoder = PPVPEncoder(max_lods=4)
        t_set = Dataset("t", [encoder.encode(m) for m in targets])
        s_set = Dataset("s", [encoder.encode(m) for m in sources])

        answers = {}
        for paradigm in ("fr", "fpr"):
            engine = ThreeDPro(EngineConfig(paradigm=paradigm))
            engine.load_dataset(t_set)
            engine.load_dataset(s_set)
            result = engine.nn_join("t", "s")
            answers[paradigm] = {tid: m[0][0] for tid, m in result.pairs.items()}
            assert sorted(result.pairs) == list(range(8))  # no target lost
        assert answers["fr"] == answers["fpr"]
