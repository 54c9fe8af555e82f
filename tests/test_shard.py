"""Tests for the v3 sharded store: format, lifetime, migration, transport.

Covers the shard file format round-trip and its corruption taxonomy,
mmap lifetime safety (no segfaults, clean errors), lazy shard-backed
datasets, v1/v2/v3 cross-version loading and query answers (v1/v2
fixtures come from ``tests/oracles/legacy_store.py`` — the package only
writes v3), ``migrate_dataset`` identity, salvage-report parity with v2
containers, cuboid-aligned chunking, and the process pool's spill
transport and stale-spill sweep.
"""

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.compression import PPVPEncoder
from repro.core import EngineConfig, ThreeDPro
from repro.core.errors import (
    BlobChecksumError,
    DatasetFormatError,
    EngineConfigError,
    ShardFormatError,
    ShardLifetimeError,
)
from repro.faults import FaultInjector
from repro.mesh import icosphere
from repro.storage import (
    Dataset,
    ShardBackedObject,
    ShardReader,
    load_dataset,
    migrate_dataset,
    read_cuboid_file,
    salvage_shard_file,
    save_dataset,
    spill_dataset,
    write_shard_file,
)
from repro.storage.cache import DecodeCache, DecodedLOD, DecodedObjectProvider
from tests.oracles.legacy_store import save_legacy_dataset
from tests.test_batch import PARITY_IDS, PARITY_SPECS, _comparable

ENCODER = PPVPEncoder(max_lods=4)


def make_dataset(n=6, name="spheres"):
    meshes = [icosphere(1, center=(i * 4.0, 0, 0)) for i in range(n)]
    return Dataset.from_polyhedra(name, meshes, ENCODER)


def _meta(obj):
    box = obj.aabb
    return (
        tuple(float(c) for c in box.low),
        tuple(float(c) for c in box.high),
        obj.max_lod,
        tuple(obj.face_count_at_lod(lod) for lod in obj.lods),
    )


@pytest.fixture()
def shard_path(tmp_path):
    """One shard with three real compressed objects."""
    dataset = make_dataset(3)
    from repro.compression.serialize import serialize_object

    blobs = [serialize_object(obj) for obj in dataset.objects]
    path = tmp_path / "one.3dps"
    write_shard_file(path, blobs, [0, 1, 2], [_meta(o) for o in dataset.objects])
    return path, blobs


class TestShardFile:
    def test_roundtrip(self, shard_path):
        path, blobs = shard_path
        with ShardReader(path) as reader:
            assert reader.object_ids() == [0, 1, 2]
            assert reader.codec == "3dpr"
            for obj_id, blob in enumerate(blobs):
                view = reader.blob(obj_id)
                assert bytes(view) == blob
                view.release()

    def test_zero_copy_view(self, shard_path):
        path, blobs = shard_path
        with ShardReader(path) as reader:
            view = reader.blob(1)
            assert isinstance(view, memoryview)
            assert view.readonly
            assert view.nbytes == len(blobs[1])
            view.release()

    def test_index_carries_planning_metadata(self, shard_path):
        path, _ = shard_path
        with ShardReader(path) as reader:
            entry = reader.entries[0]
            assert entry.aabb_low < entry.aabb_high
            assert entry.max_lod == ENCODER.max_lods - 1
            assert len(entry.face_counts) == entry.max_lod + 1

    def test_blob_crc_flip_raises(self, shard_path):
        path, _ = shard_path
        with ShardReader(path) as probe:
            entry = probe.entries[1]
        data = bytearray(path.read_bytes())
        data[entry.offset + entry.length // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with ShardReader(path) as reader:
            with pytest.raises(BlobChecksumError):
                reader.blob(1)
            # Unaffected blobs still verify; verify_all isolates the fault.
            reader.blob(0).release()
            faults = reader.verify_all()
            assert [f.object_id for f in faults] == [1]
            assert faults[0].blob is not None

    def test_index_corruption_raises_on_open(self, shard_path):
        path, _ = shard_path
        data = bytearray(path.read_bytes())
        data[-6] ^= 0xFF  # inside the index CRC trailer
        path.write_bytes(bytes(data))
        with pytest.raises(ShardFormatError):
            ShardReader(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.3dps"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ShardFormatError):
            ShardReader(path)

    def test_truncated_file(self, shard_path):
        path, _ = shard_path
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ShardFormatError):
            ShardReader(path)

    def test_mismatched_args(self, tmp_path):
        with pytest.raises(ValueError):
            write_shard_file(tmp_path / "x.3dps", [b"a"], [1, 2], [])

    def test_salvage_clean_file(self, shard_path):
        path, blobs = shard_path
        pairs, faults, container_ok = salvage_shard_file(path)
        assert pairs == list(enumerate(blobs))
        assert faults == []
        assert container_ok

    def test_salvage_isolates_corrupt_blob(self, shard_path):
        path, blobs = shard_path
        with ShardReader(path) as probe:
            entry = probe.entries[0]
        data = bytearray(path.read_bytes())
        data[entry.offset] ^= 0xFF
        path.write_bytes(bytes(data))
        pairs, faults, container_ok = salvage_shard_file(path)
        assert [obj_id for obj_id, _ in pairs] == [1, 2]
        assert [f.object_id for f in faults] == [0]
        assert container_ok  # the index itself is intact


class TestMmapLifetime:
    def test_close_with_live_view_raises_cleanly(self, shard_path):
        path, blobs = shard_path
        reader = ShardReader(path)
        view = reader.blob(0)
        with pytest.raises(ShardLifetimeError):
            reader.close()
        # The reader survives the refused close and still serves reads.
        assert not reader.closed
        assert bytes(view) == blobs[0]
        view.release()
        reader.close()
        assert reader.closed

    def test_blob_after_close_raises(self, shard_path):
        path, _ = shard_path
        reader = ShardReader(path)
        reader.close()
        with pytest.raises(ValueError):
            reader.blob(0)


class TestCrossVersionLoading:
    """v1 (no checksums), v2 (containers), and v3 (shards) all load."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(8)

    def _store(self, dataset, tmp_path, version):
        directory = tmp_path / f"v{version}"
        if version == 3:
            save_dataset(dataset, directory)
        else:
            save_legacy_dataset(dataset, directory, version=version)
        return directory

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_loads_equal(self, dataset, tmp_path, version):
        reference = load_dataset(self._store(dataset, tmp_path, 2))
        loaded = load_dataset(self._store(dataset, tmp_path, version))
        assert loaded.name == dataset.name
        assert len(loaded) == len(reference)
        assert loaded.boxes == reference.boxes
        assert [o.max_lod for o in loaded.objects] == [
            o.max_lod for o in reference.objects
        ]
        assert loaded.cuboid_batches() == reference.cuboid_batches()
        top = reference.objects[0].max_lod
        assert (
            loaded.objects[0].decode(top).canonical_face_set()
            == reference.objects[0].decode(top).canonical_face_set()
        )


class TestCrossVersionAnswers:
    """A v2 directory — loaded as is, or migrated first — answers every
    query kind exactly as the v3 save of the same dataset does: same
    pairs, pairs ledger and funnel, serially and on the process backend
    (whose workers reopen a v2 directory in salvage mode)."""

    FLAVORS = ("v3", "v2", "migrated")

    @pytest.fixture(scope="class")
    def stores(self, datasets, tmp_path_factory):
        root = tmp_path_factory.mktemp("versions")
        for name, dataset in datasets.items():
            save_dataset(dataset, root / "v3" / name)
            save_legacy_dataset(dataset, root / "v2" / name)
            save_legacy_dataset(dataset, root / "migrated" / name)
            assert migrate_dataset(root / "migrated" / name)["migrated"]
        return root

    @staticmethod
    def _run(stores, flavor, spec, **config_kwargs):
        engine = ThreeDPro(EngineConfig(**config_kwargs))
        for name in sorted({spec.source, spec.target}):
            engine.load_dataset(load_dataset(stores / flavor / name))
        return engine.execute(spec)

    def test_storage_kinds(self, stores):
        kinds = {
            flavor: load_dataset(stores / flavor / "nuclei_a").storage
            for flavor in self.FLAVORS
        }
        assert kinds == {"v3": "shard", "v2": "legacy", "migrated": "shard"}

    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=PARITY_IDS)
    def test_answers_identical(self, stores, spec, caplog):
        reference = self._run(stores, "v3", spec, query_workers=1)
        assert reference.pairs, "reference answered nothing"
        for flavor in self.FLAVORS:
            serial = self._run(stores, flavor, spec, query_workers=1)
            assert _comparable(serial, True) == _comparable(reference, True), flavor
            procs = self._run(
                stores, flavor, spec, query_workers=2, query_backend="process"
            )
            assert _comparable(procs, False) == _comparable(reference, False), flavor
        assert "process_backend_fallback" not in caplog.text

    @pytest.mark.parametrize("spec", PARITY_SPECS[:2], ids=PARITY_IDS[:2])
    def test_faulted_answers_identical(self, stores, spec, caplog):
        def faulted(flavor, **config_kwargs):
            injector = FaultInjector(seed=11, decode_error_rate=0.3)
            return self._run(
                stores, flavor, spec, fault_injector=injector, **config_kwargs
            ), injector

        reference, injector = faulted("v3", query_workers=1)
        assert injector.counts.get("decode", 0) > 0, "no faults fired"
        assert reference.degraded_targets
        for flavor in self.FLAVORS:
            for backend in (
                {"query_workers": 1},
                {"query_workers": 2, "query_backend": "process"},
            ):
                result, _ = faulted(flavor, **backend)
                assert _comparable(result, False) == _comparable(reference, False), (
                    flavor, backend,
                )
        assert "process_backend_fallback" not in caplog.text

    def test_v2_store_reopens_in_salvage_mode(self, stores):
        from repro.parallel.procpool import _manifest_for

        handle = _manifest_for(load_dataset(stores / "v2" / "nuclei_a"))
        assert (handle.path, handle.mode) == (str(stores / "v2" / "nuclei_a"), "salvage")
        handle = _manifest_for(load_dataset(stores / "v3" / "nuclei_a"))
        assert handle.mode == "strict"


class TestStorageKeywordsArePinned:
    """``layout`` / ``storage_backend`` are no longer choices: the keywords
    survive so 1.x code constructs, but only with the one remaining value."""

    @pytest.mark.parametrize("value", [None, "shard"])
    def test_accepted(self, tmp_path, value):
        EngineConfig(storage_backend=value)
        save_dataset(make_dataset(2, name="two"), tmp_path / "s", layout=value)
        assert load_dataset(tmp_path / "s").storage == "shard"

    def test_legacy_is_rejected_with_the_migrate_hint(self, tmp_path):
        with pytest.raises(EngineConfigError, match="repro store migrate"):
            EngineConfig(storage_backend="legacy")
        with pytest.raises(ValueError, match="repro store migrate"):
            save_dataset(make_dataset(2, name="two"), tmp_path / "s", layout="legacy")
        assert not (tmp_path / "s").exists()

    def test_no_setting_and_no_environment_switch(self, tmp_path, monkeypatch):
        from repro.core.config import SETTINGS

        assert "storage_backend" not in SETTINGS
        monkeypatch.setenv("REPRO_STORAGE_BACKEND", "legacy")
        save_dataset(make_dataset(2, name="two"), tmp_path / "s")
        assert load_dataset(tmp_path / "s").storage == "shard"


class TestLazyShardDataset:
    def test_load_is_lazy(self, tmp_path):
        save_dataset(make_dataset(6), tmp_path / "s")
        loaded = load_dataset(tmp_path / "s")
        assert loaded.storage == "shard"
        assert loaded.materialized_count() == 0
        # Planning attributes come from the index, not the blobs.
        obj = loaded.objects[0]
        assert isinstance(obj, ShardBackedObject)
        _ = obj.aabb, obj.max_lod, obj.face_count_at_lod(obj.max_lod)
        assert loaded.materialized_count() == 0
        obj.decode(obj.max_lod)
        assert loaded.materialized_count() == 1

    def test_base_then_full_reads_the_blob_once(self, tmp_path, monkeypatch):
        save_dataset(make_dataset(2), tmp_path / "s")
        obj = load_dataset(tmp_path / "s").objects[1]
        assert obj.max_lod > 0
        reads = []
        blob = ShardReader.blob

        def counting(reader, object_id):
            reads.append(object_id)
            return blob(reader, object_id)

        monkeypatch.setattr(ShardReader, "blob", counting)
        positions, faces = obj.base_mesh()
        assert not obj.materialized
        top = obj.decode(obj.max_lod)
        assert obj.materialized
        assert reads == [obj._entry.object_id]
        # The full object serves LOD 0 as the base state did; its bytes are gone.
        assert "_blob" not in obj.__dict__
        real_positions, real_faces = obj.base_mesh()
        assert np.array_equal(real_faces, faces)
        assert np.array_equal(real_positions[np.unique(faces)], positions[np.unique(faces)])
        assert len(top.faces) == obj.face_count_at_lod(obj.max_lod)

    def test_base_then_full_parses_header_and_base_once(self, tmp_path, monkeypatch):
        from repro.compression import serialize

        save_dataset(make_dataset(2), tmp_path / "s")
        obj = load_dataset(tmp_path / "s").objects[1]
        calls = {"_parse_header": 0, "_parse_base_segment": 0, "_parse_round_segment": 0}
        for name in calls:
            original = getattr(serialize, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(serialize, name, counted)
        obj.base_mesh()
        assert calls == {"_parse_header": 1, "_parse_base_segment": 1, "_parse_round_segment": 0}
        obj.decode(obj.max_lod)
        assert obj.materialized and "_parsed" not in obj.__dict__
        assert calls["_parse_header"] == calls["_parse_base_segment"] == 1
        assert calls["_parse_round_segment"] == len(obj.rounds)

    def test_lazy_verify_defers_crc(self, tmp_path):
        directory = tmp_path / "s"
        meshes = [icosphere(1, center=(i * 3.0, 0, 0)) for i in range(3)]
        one_cuboid = Dataset.from_polyhedra("three", meshes, ENCODER, grid_shape=(1, 1, 1))
        save_dataset(one_cuboid, directory)
        shard = next(directory.glob("*.3dps"))
        with ShardReader(shard) as probe:
            entry = probe.entries[1]
        data = bytearray(shard.read_bytes())
        data[entry.offset] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(BlobChecksumError):
            load_dataset(directory)  # eager verify catches it at load
        lazy = load_dataset(directory, verify="lazy")
        lazy.objects[0].decode(0)  # clean blob fine
        with pytest.raises(BlobChecksumError):
            lazy.objects[1].decode(0)  # corrupt blob caught at access

    def test_proxy_pickles_as_real_object(self, tmp_path):
        save_dataset(make_dataset(3, name="three"), tmp_path / "s")
        loaded = load_dataset(tmp_path / "s")
        clone = pickle.loads(pickle.dumps(loaded.objects[2]))
        assert not isinstance(clone, ShardBackedObject)
        assert clone.aabb == loaded.objects[2].aabb

    def test_strict_count_mismatch(self, tmp_path):
        import json

        directory = tmp_path / "s"
        save_dataset(make_dataset(3, name="three"), directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["num_objects"] += 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError):
            load_dataset(directory)


class TestBaseOnlyLOD0:
    """LOD 0 of a stored object comes from its header and base segment.

    The provider serves it without parsing a round or compiling a
    ``LODTable``; these check it is the full-table LOD 0 bit for bit,
    before and after the object is fully parsed, and that a cold join
    fully parses exactly the objects it refines past LOD 0.
    """

    @pytest.fixture(scope="class")
    def store(self, datasets, tmp_path_factory):
        """The nuclei and the partitioned (>= 400-face) vessels, saved."""
        root = tmp_path_factory.mktemp("lod0")
        for name in ("nuclei_a", "vessels"):
            save_dataset(datasets[name], root / name)
        return root

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def _check_lod0(self, decoded, reference, partition):
        faces = reference.lod_table.faces_at_step(0)
        assert self._same_bits(decoded.faces, faces)
        assert self._same_bits(decoded.triangles, reference.positions[faces])
        base_ids = np.unique(reference.base_faces)
        assert self._same_bits(
            decoded.positions[base_ids], reference.positions[base_ids]
        )
        if partition is not None:
            expected = DecodedLOD(reference.positions, faces).groups(partition)
            assert self._same_bits(decoded.groups(partition), expected)

    @pytest.mark.parametrize("name", ["nuclei_a", "vessels"])
    def test_lod0_matches_the_full_table(self, store, name):
        from repro.partition.partitioner import partition_faces

        loaded = load_dataset(store / name)
        reference = load_dataset(store / name)
        eager = [reference.objects[i]._materialize() for i in range(len(reference))]
        partitioned = 0
        for obj_id, (obj, ref) in enumerate(zip(loaded.objects, eager)):
            partition = None
            if ref.face_count_at_lod(ref.max_lod) >= 400:
                partition = partition_faces(ref.decode(ref.max_lod))
                partitioned += 1
            base = DecodedObjectProvider(name, loaded.objects, DecodeCache()).get(obj_id, 0)
            assert not obj.materialized
            self._check_lod0(base, ref, partition)
            # Past LOD 0 the object is fully parsed; each LOD is the eager one.
            provider = DecodedObjectProvider(name, loaded.objects, DecodeCache())
            for lod in obj.lods[1:]:
                decoded = provider.get(obj_id, lod)
                decoder = ref.decoder()
                decoder.advance_to(lod)
                assert self._same_bits(decoded.faces, decoder.face_array())
                assert self._same_bits(decoded.triangles, decoder.polyhedron().triangles)
            assert obj.materialized == (obj.max_lod > 0)
            after = DecodedObjectProvider(name, loaded.objects, DecodeCache()).get(obj_id, 0)
            self._check_lod0(after, ref, partition)
        assert loaded.materialized_count() == sum(o.max_lod > 0 for o in loaded.objects)
        assert partitioned == (len(loaded) if name == "vessels" else 0)

    def test_cold_join_parses_only_objects_refined_past_lod0(
        self, datasets, tmp_path, monkeypatch
    ):
        from repro.compression import ppvp
        from repro.core.schedule import full_ladder
        from repro.storage import store as store_module

        calls = {"deserialize": 0, "compile": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setitem(
            store_module._DECODERS, "3dpr",
            counted("deserialize", store_module._DECODERS["3dpr"]),
        )
        monkeypatch.setattr(
            ppvp, "compile_lod_table", counted("compile", ppvp.compile_lod_table)
        )
        requested = []
        original_get = DecodedObjectProvider.get

        def recording_get(provider, obj_id, lod, *args, **kwargs):
            requested.append((provider.name, obj_id, lod))
            return original_get(provider, obj_id, lod, *args, **kwargs)

        monkeypatch.setattr(DecodedObjectProvider, "get", recording_get)

        loaded = {}
        for name in ("nuclei_a", "nuclei_b"):
            save_dataset(datasets[name], tmp_path / name)
            loaded[name] = load_dataset(tmp_path / name)
        engine = ThreeDPro(
            EngineConfig(query_workers=1, lod_list=full_ladder(*loaded.values()))
        )
        for dataset in loaded.values():
            engine.load_dataset(dataset)
        result = engine.intersection_join("nuclei_a", "nuclei_b")
        assert result.pairs

        touched = {(name, obj_id) for name, obj_id, _lod in requested}
        refined = {(name, obj_id) for name, obj_id, lod in requested if lod >= 1}
        materialized = {
            (name, obj_id)
            for name, dataset in loaded.items()
            for obj_id, obj in enumerate(dataset.objects)
            if obj.materialized
        }
        assert refined and refined < touched
        assert materialized == refined
        assert calls == {"deserialize": len(refined), "compile": len(refined)}


class TestMigrate:
    @pytest.mark.parametrize("version", [1, 2])
    def test_container_to_shard_identity(self, tmp_path, version):
        dataset = make_dataset(8)
        directory = tmp_path / "store"
        save_legacy_dataset(dataset, directory, version=version)
        before = {}
        for path in directory.glob("*.3dpc"):
            before.update(dict(read_cuboid_file(path)))
        grid_before = load_dataset(directory).cuboid_batches()

        summary = migrate_dataset(directory)
        assert summary["migrated"]
        assert not list(directory.glob("*.3dpc"))
        after = {}
        for path in directory.glob("*.3dps"):
            with ShardReader(path) as reader:
                for obj_id in reader.object_ids():
                    view = reader.blob(obj_id)
                    after[obj_id] = bytes(view)
                    view.release()
        assert after == before  # same blobs, same ids
        migrated = load_dataset(directory)
        assert migrated.storage == "shard"
        assert migrated.cuboid_batches() == grid_before

    def test_migrated_store_equals_direct_save(self, tmp_path):
        dataset = make_dataset(8)
        save_legacy_dataset(dataset, tmp_path / "old")
        migrate_dataset(tmp_path / "old")
        save_dataset(dataset, tmp_path / "new")
        for path in (tmp_path / "new").iterdir():
            assert (tmp_path / "old" / path.name).read_bytes() == path.read_bytes()

    def test_migrate_is_a_noop_on_shard_stores(self, tmp_path):
        directory = tmp_path / "store"
        save_dataset(make_dataset(3, name="three"), directory)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        summary = migrate_dataset(directory)
        assert not summary["migrated"]
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


class TestSpillStore:
    def test_round_trip_exact(self, tmp_path):
        dataset = make_dataset(5)
        object.__setattr__(dataset, "degraded_ids", frozenset({2}))
        spill_dataset(dataset, tmp_path / "spill")
        loaded = load_dataset(tmp_path / "spill", verify="lazy")
        assert loaded.storage == "shard"
        assert loaded.degraded_ids == frozenset({2})
        import numpy as np

        for ours, theirs in zip(loaded.objects, dataset.objects):
            real = ours._materialize()
            # Pickle transport is exact — no requantization on the way.
            assert np.array_equal(real.positions, theirs.positions)
            assert real.num_rounds == theirs.num_rounds
            assert real.aabb == theirs.aabb


class TestSalvageParity:
    """Shard salvage mirrors v2 container salvage report-for-report."""

    def _corrupt_one_blob(self, directory):
        """Flip a byte inside object 1's blob, whatever the layout."""
        shard = next(iter(sorted(directory.glob("*.3dps"))), None)
        if shard is not None:
            with ShardReader(shard) as probe:
                entry = probe.entries[1]
            data = bytearray(shard.read_bytes())
            data[entry.offset + 2] ^= 0xFF
            shard.write_bytes(bytes(data))
            return
        container = sorted(directory.glob("*.3dpc"))[0]
        blob = dict(read_cuboid_file(container))[1]
        data = container.read_bytes()
        offset = data.find(blob)
        assert offset > 0
        data = bytearray(data)
        data[offset + 2] ^= 0xFF
        container.write_bytes(bytes(data))

    @pytest.mark.parametrize("damage", ["byte_flip", "injector"])
    def test_reports_match_across_layouts(self, tmp_path, damage):
        # One cuboid so object ids match filenames one-to-one.
        meshes = [icosphere(1, center=(i * 3.0, 0, 0)) for i in range(4)]
        dataset = Dataset.from_polyhedra("cells", meshes, ENCODER, grid_shape=(1, 1, 1))
        reports = {}
        for layout, save in (("legacy", save_legacy_dataset), ("shard", save_dataset)):
            directory = tmp_path / layout
            if damage == "injector":
                # The write-time corruption hook is keyed "{cuboid}:{object}"
                # under either writer: both stores get the same bit flips.
                injector = FaultInjector(seed=5, blob_flip_rate=0.5)
                save(dataset, directory, fault_injector=injector)
                assert 0 < injector.counts["blob_flip"] < len(dataset)
            else:
                save(dataset, directory)
                self._corrupt_one_blob(directory)
            with pytest.raises(Exception):
                # Strict refuses either layout: at load when a checksum
                # catches the damage, at first decode when the blob was
                # already damaged as its checksum was taken (the injector).
                load_dataset(directory).precompile_lod_tables()
            loaded = load_dataset(directory, mode="salvage")
            reports[layout] = (loaded, loaded.load_report)
        legacy, legacy_report = reports["legacy"]
        shard, shard_report = reports["shard"]
        assert len(shard) == len(legacy)
        assert shard_report.mode == legacy_report.mode == "salvage"
        assert shard_report.objects_expected == legacy_report.objects_expected
        assert shard_report.objects_loaded == legacy_report.objects_loaded
        # Per-blob granularity: same object ids lost/degraded for the
        # same reasons (filenames differ by layout, compare id+reason).
        strip = lambda triples: [(i, reason) for i, _, reason in triples]  # noqa: E731
        assert strip(shard_report.skipped_blobs) == strip(legacy_report.skipped_blobs)
        assert strip(shard_report.degraded_objects) == strip(
            legacy_report.degraded_objects
        )
        assert shard_report.id_map == legacy_report.id_map
        assert shard.degraded_ids == legacy.degraded_ids
        assert not shard_report.ok


class TestCuboidAlignedChunks:
    @staticmethod
    def _chunks(dataset, workers):
        """The executor's chunks of ``dataset``'s targets over ``workers``."""
        from types import SimpleNamespace

        from repro.core.plan import STRATEGIES

        strategy = STRATEGIES["within"]
        plan = SimpleNamespace(
            target=SimpleNamespace(dataset=dataset),
            spec=SimpleNamespace(target_ids=None),
        )
        return strategy.target_chunks(plan, strategy.target_ids(plan), workers)

    def test_shard_chunks_respect_cuboid_boundaries(self, tmp_path):
        save_dataset(make_dataset(24), tmp_path / "s")
        dataset = load_dataset(tmp_path / "s")
        # One worker, four chunks per worker: at most 6 of 24 targets each.
        chunks = self._chunks(dataset, workers=1)
        owner = {
            tid: index
            for index, batch in enumerate(dataset.cuboid_batches())
            for tid in batch
        }
        assert sorted(t for c in chunks for t in c) == list(range(24))
        assert all(len(chunk) <= 6 for chunk in chunks)
        for chunk in chunks:
            cuboids = [owner[t] for t in chunk]
            # A chunk never straddles a cuboid boundary mid-cuboid:
            # each cuboid appears in one contiguous stretch.
            assert cuboids == sorted(cuboids)

    def test_memory_legacy_and_shard_datasets_chunk_alike(self, tmp_path):
        # One chunker: however the target dataset is held, its targets
        # are cut at the same cuboid boundaries.
        dataset = make_dataset(10)
        save_legacy_dataset(dataset, tmp_path / "l")
        save_dataset(dataset, tmp_path / "s")
        legacy = load_dataset(tmp_path / "l")
        shard = load_dataset(tmp_path / "s")
        assert (dataset.storage, legacy.storage, shard.storage) == (
            "memory", "legacy", "shard"
        )
        for workers in (1, 2, 3):
            expected = self._chunks(dataset, workers)
            assert sorted(t for c in expected for t in c) == list(range(10))
            assert self._chunks(legacy, workers) == expected
            assert self._chunks(shard, workers) == expected


class TestSpillTransport:
    """In-memory datasets reach process workers as one shard spill each."""

    SPEC = PARITY_SPECS[0]

    @staticmethod
    def _run(datasets, **config_kwargs):
        engine = ThreeDPro(EngineConfig(**config_kwargs))
        for dataset in datasets:
            engine.load_dataset(dataset)
        return engine.execute(TestSpillTransport.SPEC)

    @pytest.fixture()
    def in_memory(self, datasets):
        """Fresh Dataset objects (no ``source_dir``) over the session's."""
        return [
            Dataset(name, datasets[name].objects, datasets[name].grid_shape)
            for name in ("nuclei_a", "nuclei_b")
        ]

    @pytest.fixture()
    def salvage_born(self, datasets, tmp_path):
        """An in-memory dataset carrying salvage's degraded marks."""
        injector = FaultInjector(seed=5, blob_flip_rate=0.2)
        save_dataset(datasets["nuclei_a"], tmp_path / "a", fault_injector=injector)
        salvaged = load_dataset(tmp_path / "a", mode="salvage")
        assert salvaged.degraded_ids
        target = Dataset(
            "nuclei_a", salvaged.objects, salvaged.grid_shape,
            degraded_ids=salvaged.degraded_ids,
        )
        source = Dataset(
            "nuclei_b", datasets["nuclei_b"].objects, datasets["nuclei_b"].grid_shape
        )
        return [target, source]

    @pytest.mark.parametrize("fixture", ["in_memory", "salvage_born"])
    def test_one_spill_per_dataset_and_answers_match_serial(
        self, request, fixture, caplog
    ):
        from pathlib import Path

        from repro.parallel import procpool

        pair = request.getfixturevalue(fixture)
        assert all(ds.source_dir is None for ds in pair)
        serial = self._run(pair, query_workers=1)
        already = set(procpool._SPILLS)
        runs = [
            self._run(pair, query_workers=2, query_backend="process")
            for _ in range(2)
        ]
        assert "process_backend_fallback" not in caplog.text
        # Two queries, still exactly one spill per dataset — each a shard
        # store directory, never a whole-dataset pickle file.
        assert set(procpool._SPILLS) - already == {id(ds) for ds in pair}
        spills = [Path(procpool._SPILLS[id(ds)]) for ds in pair]
        assert all((spill / "manifest.json").is_file() for spill in spills)
        assert all(spill.parent == Path(procpool._SPILL_DIR) for spill in spills)
        assert not list(Path(procpool._SPILL_DIR).rglob("*.pkl"))
        for procs in runs:
            assert list(procs.pairs.items()) == list(serial.pairs.items())
            assert procs.degraded_targets == serial.degraded_targets
            assert _comparable(procs, False) == _comparable(serial, False)
        if fixture == "salvage_born":
            assert serial.degraded_targets


class TestStaleSpillSweep:
    def _make_spill(self, root, name, pid=None, age=None):
        directory = root / name
        directory.mkdir(parents=True)
        if pid is not None:
            (directory / "owner.pid").write_text(str(pid))
        if age is not None:
            stamp = time.time() - age
            os.utime(directory, (stamp, stamp))
        return directory

    def test_sweep(self, tmp_path):
        from repro.parallel.procpool import _SPILL_PREFIX, _sweep_stale_spills

        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        gone = self._make_spill(tmp_path, f"{_SPILL_PREFIX}dead", pid=dead.pid)
        live = self._make_spill(tmp_path, f"{_SPILL_PREFIX}live", pid=os.getpid())
        own = self._make_spill(tmp_path, f"{_SPILL_PREFIX}own", pid=dead.pid)
        fresh = self._make_spill(tmp_path, f"{_SPILL_PREFIX}fresh")
        old = self._make_spill(tmp_path, f"{_SPILL_PREFIX}old", age=7200)
        other = self._make_spill(tmp_path, "unrelated", pid=dead.pid)

        removed = _sweep_stale_spills(str(tmp_path), own=str(own))
        assert removed == 2
        assert not gone.exists()  # dead owner reaped
        assert not old.exists()  # pidless and past the orphan age
        assert live.exists()  # owner still running
        assert own.exists()  # never sweep our own directory
        assert fresh.exists()  # pidless but too young to judge
        assert other.exists()  # non-prefixed dirs are not ours
