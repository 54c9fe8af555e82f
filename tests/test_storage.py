"""Tests for the decode cache, cuboid grid, file format, and dataset store."""

import numpy as np
import pytest

from repro.compression import PPVPEncoder
from repro.core.stats import QueryStats
from repro.geometry import AABB
from repro.mesh import icosphere
from repro.storage import (
    CuboidGrid,
    Dataset,
    DecodeCache,
    DecodedLOD,
    DecodedObjectProvider,
    load_dataset,
    read_cuboid_file,
    save_dataset,
)
from repro.storage.fileformat import CuboidFormatError
from tests.oracles.legacy_store import write_cuboid_file


def make_decoded(seed=0, faces=20):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(size=(faces * 3, 3))
    face_idx = np.arange(faces * 3, dtype=np.int64).reshape(faces, 3)
    return DecodedLOD(positions, face_idx)


class TestDecodedLOD:
    def test_lazy_triangles(self):
        dec = make_decoded()
        assert dec._triangles is None
        assert dec.triangles.shape == (20, 3, 3)

    def test_lazy_groups(self):
        class OnePart:
            def group_faces(self, triangles):
                return np.zeros(len(triangles), dtype=np.int64)

        dec = make_decoded()
        assert dec._groups is None
        assert dec.groups(OnePart()).shape == (20,)
        assert dec._groups is not None

    def test_nbytes_grows_with_materialization(self):
        dec = make_decoded()
        before = dec.nbytes
        _ = dec.triangles
        assert dec.nbytes > before


class TestDecodeCache:
    def test_hit_after_put(self):
        cache = DecodeCache()
        dec = make_decoded()
        cache.put(("d", 1, 0), dec)
        assert cache.get(("d", 1, 0)) is dec
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = DecodeCache()
        assert cache.get(("d", 1, 0)) is None
        assert cache.misses == 1

    def test_disabled_cache_never_hits(self):
        cache = DecodeCache(0)
        dec = make_decoded()
        cache.put(("d", 1, 0), dec)
        assert cache.get(("d", 1, 0)) is None
        assert cache.hit_rate == 0.0

    def test_zero_budget_stores_nothing(self):
        cache = DecodeCache(0)
        cache.put(("d", 1, 0), make_decoded())
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_positive_budget_keeps_the_newest_entry(self):
        cache = DecodeCache(1)
        dec = make_decoded()
        cache.put(("d", 1, 0), dec)
        assert cache.get(("d", 1, 0)) is dec

    def test_lru_eviction_by_bytes(self):
        entries = [make_decoded(seed=i) for i in range(5)]
        budget = sum(e.nbytes for e in entries[:3])
        cache = DecodeCache(capacity_bytes=budget)
        for i, entry in enumerate(entries):
            cache.put(("d", i, 0), entry)
        assert cache.get(("d", 0, 0)) is None  # oldest evicted
        assert cache.get(("d", 4, 0)) is entries[4]
        assert cache.evictions >= 1
        assert cache.bytes_used <= budget

    def test_touch_refreshes_recency(self):
        entries = [make_decoded(seed=i) for i in range(3)]
        budget = sum(e.nbytes for e in entries[:2])
        cache = DecodeCache(capacity_bytes=budget)
        cache.put(("d", 0, 0), entries[0])
        cache.put(("d", 1, 0), entries[1])
        cache.get(("d", 0, 0))  # refresh 0
        cache.put(("d", 2, 0), entries[2])  # evicts 1, not 0
        assert cache.get(("d", 0, 0)) is entries[0]
        assert cache.get(("d", 1, 0)) is None


class TestProvider:
    @pytest.fixture()
    def provider(self):
        objects = [PPVPEncoder(max_lods=4).encode(icosphere(2, center=(i * 3.0, 0, 0))) for i in range(3)]
        return DecodedObjectProvider("test", objects, DecodeCache())

    def test_decode_and_cache(self, provider):
        first = provider.get(0, 1)
        again = provider.get(0, 1)
        assert first is again  # cache hit returns the same entry
        assert provider.cache.hits == 1

    def test_forward_decoding_reuses_decoder(self, provider):
        """Each miss charges the records from the base mesh to the served
        LOD to the asking query; nothing carries over between calls."""
        obj, top = provider.objects[1], provider.max_lod(1)
        full = obj.lod_table.records_through_step(obj.rounds_reinserted_at(top))
        assert full > 0
        low, high = QueryStats(), QueryStats()
        provider.get(1, 0, stats=low)
        provider.get(1, top, stats=high)
        assert low.decoded_vertices == 0
        assert high.decoded_vertices == full
        assert (high.cache_hits, high.cache_misses) == (0, 1)
        assert high.funnel.stage(top).decoded_objects == 1
        assert high.decode_seconds > 0
        hit = QueryStats()
        provider.get(1, top, stats=hit)
        assert (hit.cache_hits, hit.cache_misses, hit.decoded_vertices) == (1, 0, 0)
        provider.cache.clear()
        again = QueryStats()
        provider.get(1, top, stats=again)
        assert again.decoded_vertices == full

    def test_backward_request_restarts_decoder(self, provider):
        top = provider.max_lod(2)
        provider.get(2, top)
        provider.cache.clear()  # evict snapshots
        low = provider.get(2, 0)  # must restart, not fail
        assert low.num_faces < provider.get(2, top).num_faces

    def test_faces_match_direct_decode(self, provider):
        top = provider.max_lod(0)
        via_provider = provider.get(0, top)
        direct = provider.objects[0].decode(top)
        assert sorted(map(tuple, via_provider.faces.tolist())) == sorted(
            map(tuple, direct.faces.tolist())
        )


class TestCuboidGrid:
    GRID = CuboidGrid(AABB((0, 0, 0), (10, 10, 10)), (2, 2, 2))

    def test_cell_of_point(self):
        assert self.GRID.cell_of_point((1, 1, 1)) == (0, 0, 0)
        assert self.GRID.cell_of_point((9, 9, 9)) == (1, 1, 1)

    def test_clamping(self):
        assert self.GRID.cell_of_point((-5, 50, 5)) == (0, 1, 1)

    def test_ids_are_unique(self):
        ids = {
            self.GRID.cuboid_id((i, j, k))
            for i in range(2)
            for j in range(2)
            for k in range(2)
        }
        assert len(ids) == 8

    def test_cuboid_bounds_roundtrip(self):
        for cid in range(8):
            bounds = self.GRID.cuboid_bounds(cid)
            assert self.GRID.cuboid_of_box(bounds) == cid

    def test_assign_groups_by_center(self):
        boxes = [AABB((1, 1, 1), (2, 2, 2)), AABB((8, 8, 8), (9, 9, 9))]
        groups = self.GRID.assign(boxes)
        assert sorted(len(v) for v in groups.values()) == [1, 1]

    def test_ordered_assignment_sorted(self):
        boxes = [AABB((8, 8, 8), (9, 9, 9)), AABB((1, 1, 1), (2, 2, 2))]
        batches = self.GRID.ordered_assignment(boxes)
        assert batches == [[1], [0]]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CuboidGrid(AABB((0, 0, 0), (1, 1, 1)), (0, 1, 1))


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.3dpc"
        blobs = [b"hello", b"", b"world" * 100]
        write_cuboid_file(path, blobs, [5, 9, 2])
        assert read_cuboid_file(path) == [(5, b"hello"), (9, b""), (2, b"world" * 100)]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.3dpc"
        path.write_bytes(b"XXXX\x01\x00")
        with pytest.raises(CuboidFormatError):
            read_cuboid_file(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "c.3dpc"
        write_cuboid_file(path, [b"abcdef"], [0])
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CuboidFormatError):
            read_cuboid_file(path)

    def test_mismatched_args(self, tmp_path):
        with pytest.raises(ValueError):
            write_cuboid_file(tmp_path / "x", [b"a"], [1, 2])


class TestDatasetStore:
    @pytest.fixture(scope="class")
    def dataset(self):
        meshes = [icosphere(1, center=(i * 4.0, 0, 0)) for i in range(6)]
        return Dataset.from_polyhedra("spheres", meshes, PPVPEncoder(max_lods=4))

    def test_len_and_boxes(self, dataset):
        assert len(dataset) == 6
        assert len(dataset.boxes) == 6

    def test_cuboid_batches_cover_all(self, dataset):
        batches = dataset.cuboid_batches()
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(6))

    def test_total_faces(self, dataset):
        assert dataset.total_faces() == 6 * 80
        assert dataset.total_faces(0) < dataset.total_faces()

    def test_save_load_roundtrip(self, dataset, tmp_path):
        summary = save_dataset(dataset, tmp_path / "out")
        assert summary["total_bytes"] > 0
        loaded = load_dataset(tmp_path / "out")
        assert loaded.name == dataset.name
        assert len(loaded) == len(dataset)
        for ours, theirs in zip(loaded.objects, dataset.objects):
            assert ours.num_rounds == theirs.num_rounds
            # Quantized positions stay within grid tolerance.
            assert np.abs(ours.positions - theirs.positions).max() < 1e-3
        # Decoded geometry matches structurally at every LOD.
        top = dataset.objects[0].max_lod
        assert (
            loaded.objects[0].decode(top).canonical_face_set()
            == dataset.objects[0].decode(top).canonical_face_set()
        )

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")


class TestProviderLocality:
    def test_cuboid_batched_access_reuses_cache(self):
        """Objects queried in cuboid order keep their decoded source hot:
        a second pass over the same cuboid must be all hits."""
        from repro.mesh import icosphere

        objects = [
            PPVPEncoder(max_lods=3).encode(icosphere(1, center=(i * 3.0, 0, 0)))
            for i in range(4)
        ]
        cache = DecodeCache()
        provider = DecodedObjectProvider("d", objects, cache)
        for obj_id in range(4):
            provider.get(obj_id, 1)
        misses_first = cache.misses
        for obj_id in range(4):
            provider.get(obj_id, 1)
        assert cache.misses == misses_first
        assert cache.hits >= 4
