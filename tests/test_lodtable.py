"""The columnar LOD table: slice decoding must be replay, byte for byte.

The tentpole invariant: for every object and every LOD, the table-backed
:class:`ProgressiveDecoder` produces the *same face array* — rows,
orientation, and order — as the reference :class:`ReplayDecoder` that
replays removal records through an ``EditableMesh``. Order matters:
refinement probes ``triangles[0, 0]`` and the pair kernels early-exit in
array order, so anything weaker than byte-identity would change query
results.
"""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.compression import LODTable, PPVPEncoder, compile_lod_table
from repro.compression.lodtable import ALIVE, _compile_sequential, _compile_vectorized
from repro.compression.ppvp import RemovalRecord
from repro.mesh import icosphere
from tests.oracles.replay_decoder import ReplayDecoder
from tests.test_compression_classify import dented_icosphere


@pytest.fixture(scope="module")
def sphere_obj():
    return PPVPEncoder(max_lods=6, rounds_per_lod=2).encode(icosphere(3))


@pytest.fixture(scope="module")
def dented_obj():
    mesh, _dents = dented_icosphere(subdivisions=2, seed=7)
    return PPVPEncoder(max_lods=4, rounds_per_lod=2).encode(mesh)


def assert_tables_equal(a: LODTable, b: LODTable):
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.birth, b.birth)
    assert np.array_equal(a.death, b.death)
    assert np.array_equal(a.face_counts, b.face_counts)
    assert np.array_equal(a.cum_records, b.cum_records)
    assert a.failed_step == b.failed_step


class TestCompilation:
    def test_vectorized_path_taken_on_clean_data(self, sphere_obj):
        decode_rounds = tuple(sphere_obj.rounds)[::-1]
        assert _compile_vectorized(np.asarray(sphere_obj.base_faces), decode_rounds) is not None

    def test_vectorized_equals_sequential(self, sphere_obj, dented_obj):
        for obj in (sphere_obj, dented_obj):
            decode_rounds = tuple(obj.rounds)[::-1]
            fast = _compile_vectorized(np.asarray(obj.base_faces), decode_rounds)
            slow = _compile_sequential(np.asarray(obj.base_faces), decode_rounds)
            assert_tables_equal(fast, slow)

    def test_invariants(self, sphere_obj):
        table = sphere_obj.lod_table
        # birth is non-decreasing: "birth <= s" is a true prefix.
        assert bool((np.diff(table.birth) >= 0).all())
        # every death strictly follows its birth
        finite = table.death != ALIVE
        assert bool((table.death[finite] > table.birth[finite]).all())
        assert table.num_steps == sphere_obj.num_rounds
        assert table.failed_step is None
        # arrays are locked: shared across decoders, caches, and workers
        for arr in (table.faces, table.birth, table.death):
            assert not arr.flags.writeable

    def test_zero_rounds_object(self):
        obj = PPVPEncoder().encode(icosphere(0))
        base_only = dataclasses.replace(obj, rounds=())
        table = base_only.lod_table
        assert table.num_steps == 0
        assert np.array_equal(table.faces_at_step(0), base_only.base_faces)

    def test_duplicate_base_face_raises_like_editable_mesh(self, sphere_obj):
        stacked = np.vstack([sphere_obj.base_faces, sphere_obj.base_faces[:1]])
        with pytest.raises(ValueError, match="already present"):
            compile_lod_table(stacked, sphere_obj.rounds)


class TestSliceEqualsReplay:
    @pytest.mark.parametrize("fixture", ["sphere_obj", "dented_obj"])
    def test_identical_at_every_lod(self, fixture, request):
        obj = request.getfixturevalue(fixture)
        ref, cur = ReplayDecoder(obj), obj.decoder()
        for lod in obj.lods:
            ref.advance_to(lod)
            cur.advance_to(lod)
            assert np.array_equal(ref.face_array(), cur.face_array()), f"LOD {lod}"
            assert ref.face_array().dtype == cur.face_array().dtype == np.int64
            assert ref.vertices_reinserted == cur.vertices_reinserted
            assert ref.current_lod == cur.current_lod

    def test_one_shot_equals_progressive(self, sphere_obj):
        for lod in sphere_obj.lods:
            one_shot = sphere_obj.decode(lod)
            ref = ReplayDecoder(sphere_obj)
            ref.advance_to(lod)
            assert np.array_equal(one_shot.faces, ref.face_array())
            assert one_shot.vertices is sphere_obj.positions

    def test_monotonicity_enforced(self, sphere_obj):
        decoder = sphere_obj.decoder()
        decoder.advance_to(2)
        with pytest.raises(ValueError, match="cannot go back"):
            decoder.advance_to(1)
        with pytest.raises(ValueError, match="lod must be in"):
            decoder.advance_to(sphere_obj.max_lod + 1)


class TestFaceCounts:
    def test_pinned_against_brute_force_decode(self, sphere_obj, dented_obj):
        """face_count_at_lod is O(1) now; pin it to the real face count."""
        for obj in (sphere_obj, dented_obj):
            ref = ReplayDecoder(obj)
            for lod in obj.lods:
                ref.advance_to(lod)
                brute = len(ref.face_array())
                assert obj.face_count_at_lod(lod) == brute
                assert obj.lod_table.face_count_at_step(
                    obj.rounds_reinserted_at(lod)
                ) == brute

    def test_no_table_build_needed(self, sphere_obj):
        # The load path asks for face counts before anything decodes;
        # counts must come from round sizes alone, not a table compile.
        fresh = dataclasses.replace(sphere_obj)
        fresh.face_count_at_lod(fresh.max_lod)
        assert "lod_table" not in fresh.__dict__


class TestSalvagedPrefixes:
    def test_truncated_rounds_compile_to_truncated_table(self, sphere_obj):
        """A checksum-valid round suffix (salvage) decodes identically."""
        obj = sphere_obj
        for dropped in range(1, obj.num_rounds):
            part = dataclasses.replace(obj, rounds=obj.rounds[dropped:])
            ref, cur = ReplayDecoder(part), part.decoder()
            for lod in part.lods:
                ref.advance_to(lod)
                cur.advance_to(lod)
                assert np.array_equal(ref.face_array(), cur.face_array())


def _corrupted(obj, encode_round: int):
    bogus = RemovalRecord(vertex=0, ring=(999_999, 999_998, 999_997), apex_offset=0)
    rounds = list(obj.rounds)
    rounds[encode_round] = tuple(rounds[encode_round]) + (bogus,)
    return dataclasses.replace(obj, rounds=tuple(rounds))


class TestCorruptRounds:
    def test_failure_matches_replay_step_and_error(self, sphere_obj):
        corrupt = _corrupted(sphere_obj, encode_round=1)
        table = corrupt.lod_table
        assert table.failed_step == corrupt.num_rounds - 1
        for lod in corrupt.lods:
            ref, cur = ReplayDecoder(corrupt), corrupt.decoder()
            ref_err = cur_err = None
            try:
                ref.advance_to(lod)
            except Exception as exc:  # noqa: BLE001 - parity check
                ref_err = exc
            try:
                cur.advance_to(lod)
            except Exception as exc:  # noqa: BLE001 - parity check
                cur_err = exc
            if ref_err is None:
                assert cur_err is None
                assert np.array_equal(ref.face_array(), cur.face_array())
            else:
                assert type(cur_err) is type(ref_err)
                assert str(cur_err) == str(ref_err)

    def test_valid_prefix_still_decodes_after_failed_advance(self, sphere_obj):
        corrupt = _corrupted(sphere_obj, encode_round=1)
        decoder = corrupt.decoder()
        with pytest.raises(KeyError):
            decoder.advance_to(corrupt.max_lod)
        fresh = corrupt.decoder()
        fresh.advance_to(1)
        ref = ReplayDecoder(corrupt)
        ref.advance_to(1)
        assert np.array_equal(fresh.face_array(), ref.face_array())


class TestPickle:
    def test_table_round_trips(self, sphere_obj):
        table = sphere_obj.lod_table
        clone = pickle.loads(pickle.dumps(table))
        assert_tables_equal(clone, table)
        assert not clone.faces.flags.writeable

    def test_object_ships_compiled_table(self, sphere_obj):
        # The process backend's spill transport pickles whole datasets;
        # a compiled table must ride along, not recompile worker-side.
        obj = dataclasses.replace(sphere_obj)
        obj.lod_table  # noqa: B018 - compile before pickling
        clone = pickle.loads(pickle.dumps(obj))
        assert "lod_table" in clone.__dict__
        assert_tables_equal(clone.lod_table, obj.lod_table)

    def test_failed_table_round_trips(self, sphere_obj):
        table = _corrupted(sphere_obj, encode_round=1).lod_table
        clone = pickle.loads(pickle.dumps(table))
        assert clone.failed_step == table.failed_step
        assert type(clone.failure) is type(table.failure)
        with pytest.raises(KeyError):
            clone.faces_at_step(clone.num_steps)


class TestDecodedLODRace:
    def test_groups_build_once_under_four_workers(self, sphere_obj):
        """Regression: the lazy derived-structure builds used to run
        unlocked, so four threads sharing one cache entry (concurrent
        queries over one engine) could each build the same structure."""
        import time as _time

        import repro.storage.cache as cache_mod

        builds = []

        class CountingPartition:
            def group_faces(self, triangles):
                builds.append(threading.get_ident())
                _time.sleep(0.02)  # widen the race window
                return np.zeros(len(triangles), dtype=np.int64)

        partition = CountingPartition()
        decoded = cache_mod.DecodedLOD(
            sphere_obj.positions, sphere_obj.lod_table.faces_at_step(0)
        )
        barrier = threading.Barrier(4)
        groups = []

        def worker():
            barrier.wait()
            groups.append(decoded.groups(partition))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert all(g is groups[0] for g in groups)

    def test_triangles_and_groups_build_once(self, sphere_obj):
        import repro.storage.cache as cache_mod

        decoded = cache_mod.DecodedLOD(
            sphere_obj.positions, sphere_obj.lod_table.faces_at_step(0)
        )
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(decoded.triangles)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(arr is results[0] for arr in results)


class TestDatasetPrecompile:
    def test_precompile_builds_each_table_once(self, sphere_obj):
        from repro.storage import Dataset

        dataset = Dataset("pre", [dataclasses.replace(sphere_obj) for _ in range(3)])
        assert dataset.precompile_lod_tables() == 3
        assert dataset.precompile_lod_tables() == 0
        assert all("lod_table" in obj.__dict__ for obj in dataset.objects)
