"""Failure injection: corrupted inputs must fail loudly, never hang.

Serialized blobs, cuboid files, and OFF/STL content are parsed from
untrusted bytes. With format v2 (per-segment/per-blob CRC32s plus a
whole-file checksum trailer), every single-byte corruption of a blob or
container must be *detected* — either the mutation is a no-op (same byte
written back) or loading raises a clean integrity error. Unversioned
junk and OFF/STL text keep the weaker guarantee: raise or parse, never
crash or loop forever.
"""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compression import PPVPEncoder, deserialize_object, serialize_object
from repro.compression.serialize import (
    SerializationError,
    _compress,
    _parse_header,
    _segments,
    _write_blob,
    extract_lod_prefix,
    salvage_object_blob,
    serialized_segment_sizes,
)
from repro.compression.varint import write_uvarint
from repro.core import EngineConfig, ThreeDPro
from repro.core.errors import BlobChecksumError, CuboidFormatError
from repro.faults import FaultInjector
from repro.mesh import icosphere
from repro.storage.fileformat import read_cuboid_file
from tests.oracles.legacy_store import write_cuboid_file
from tests.oracles.replay_decoder import ReplayDecoder

ACCEPTABLE = (Exception,)  # any *raised* failure is fine; hangs/crashes are not

# What a detected v2 integrity violation is allowed to look like.
BLOB_INTEGRITY = (SerializationError, BlobChecksumError)
CONTAINER_INTEGRITY = (CuboidFormatError, BlobChecksumError)

# Every public function that parses a blob's bytes.
BLOB_PARSERS = {
    "deserialize_object": deserialize_object,
    "salvage_object_blob": salvage_object_blob,
    "serialized_segment_sizes": serialized_segment_sizes,
    "extract_lod_prefix": lambda data: extract_lod_prefix(data, 1),
}


@pytest.fixture(scope="module")
def blob():
    return serialize_object(PPVPEncoder(max_lods=3).encode(icosphere(1)))


class TestBlobCorruption:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_single_byte_flip_is_detected(self, blob, data):
        index = data.draw(st.integers(0, len(blob) - 1))
        new_byte = data.draw(st.integers(0, 255))
        corrupted = bytearray(blob)
        corrupted[index] = new_byte
        if bytes(corrupted) == blob:
            deserialize_object(bytes(corrupted))  # no-op draw must still load
            return
        # v2 integrity guarantee: any actual flip raises a clean
        # integrity error — garbage is never parsed into geometry.
        with pytest.raises(BLOB_INTEGRITY):
            deserialize_object(bytes(corrupted))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_truncation_raises(self, blob, seed):
        rng = np.random.default_rng(seed)
        cut = int(rng.integers(1, len(blob)))
        for name, parse in BLOB_PARSERS.items():
            if name == "salvage_object_blob":
                # Salvage may keep the base, never the round the cut went
                # through.
                try:
                    _, dropped = parse(blob[:cut])
                except BLOB_INTEGRITY:
                    continue
                assert dropped >= 1
            else:
                with pytest.raises(BLOB_INTEGRITY):
                    parse(blob[:cut])

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=0, max_size=200)
        | st.tuples(st.sampled_from([b"\x01", b"\x02"]), st.binary(max_size=200)).map(
            lambda parts: b"3DPR" + parts[0] + parts[1]
        )
    )
    @example(b"3DPR\x01\x02")
    def test_garbage_rejected(self, junk):
        # Junk behind a valid magic and version byte reaches the header
        # parser of every entry point.
        for parse in BLOB_PARSERS.values():
            with pytest.raises(BLOB_INTEGRITY):
                parse(junk)


class TestSalvagedBlobDecodeEquivalence:
    """Salvaged objects decode identically through table and replay.

    Byte-flip a stored blob, salvage whatever round suffix survives,
    and the columnar decoder must match the reference replay at every
    LOD the salvaged object still offers — including degenerate
    salvages that kept zero rounds.
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_salvaged_objects_slice_equals_replay(self, blob, data):
        from repro.compression.serialize import salvage_object_blob

        index = data.draw(st.integers(0, len(blob) - 1))
        new_byte = data.draw(st.integers(0, 255))
        corrupted = bytearray(blob)
        corrupted[index] = new_byte
        try:
            salvaged, dropped = salvage_object_blob(bytes(corrupted))
        except ACCEPTABLE:
            return  # nothing salvageable; detection behavior tested above
        assert dropped >= 0
        ref, cur = ReplayDecoder(salvaged), salvaged.decoder()
        for lod in salvaged.lods:
            ref.advance_to(lod)
            cur.advance_to(lod)
            assert np.array_equal(ref.face_array(), cur.face_array()), lod
            assert ref.vertices_reinserted == cur.vertices_reinserted


class TestCuboidFileCorruption:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_mutation_is_detected(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("fuzz") / "c.3dpc"
        blobs, ids = [b"payload-one", b"payload-two" * 10], [1, 2]
        write_cuboid_file(path, blobs, ids)
        original = path.read_bytes()
        data = bytearray(original)
        data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        path.write_bytes(bytes(data))
        if bytes(data) == original:
            assert read_cuboid_file(path) == list(zip(ids, blobs))
            return
        # v2 container guarantee: any single-byte mutation fails the
        # container (or per-blob) checksum.
        with pytest.raises(CONTAINER_INTEGRITY):
            read_cuboid_file(path)


class TestChaosJoins:
    """Joins under injected decode failures: degraded but never wrong.

    A failed decode falls back to a lower LOD (still a valid spatial
    subset of the object) or to MBB-only evaluation, so intersection
    answers can only *lose* pairs — never gain a wrong one — and NN
    distances can only move up from the true nearest distance.
    """

    def _engine(self, datasets, config=None):
        engine = ThreeDPro(config or EngineConfig())
        engine.load_dataset(datasets["nuclei_a"])
        engine.load_dataset(datasets["nuclei_b"])
        return engine

    def test_intersection_join_degrades_to_correct_subset(self, datasets):
        ref = self._engine(datasets).intersection_join("nuclei_a", "nuclei_b")

        inj = FaultInjector(seed=11, decode_error_rate=0.3)
        chaotic = self._engine(datasets, EngineConfig(fault_injector=inj))
        res = chaotic.intersection_join("nuclei_a", "nuclei_b")

        # Under REPRO_QUERY_WORKERS > 1 the faults fire in worker
        # processes, whose decode failures ride back on the stats.
        fired = inj.counts.get("decode", 0) or res.stats.decode_failures
        assert fired > 0, "no faults fired; change the seed"
        assert res.stats.degraded_objects > 0
        assert res.degraded_targets
        for tid, sids in res.pairs.items():
            assert set(sids) <= set(ref.pairs.get(tid, ()))

    def test_chaos_runs_replay_exactly(self, datasets):
        """Same seed, same workload -> bit-identical degraded answer."""
        runs = []
        for _ in range(2):
            inj = FaultInjector(seed=11, decode_error_rate=0.3)
            engine = self._engine(datasets, EngineConfig(fault_injector=inj))
            res = engine.intersection_join("nuclei_a", "nuclei_b")
            runs.append((res.pairs, sorted(res.degraded_targets), dict(inj.counts)))
        assert runs[0] == runs[1]

    def test_knn_join_degrades_to_upper_bounds(self, datasets, small_scene):
        from repro.baselines import NaiveEngine

        # True solid nearest distances (0.0 for intersecting pairs) —
        # surface distances at *any* LOD are valid upper bounds of these.
        truth = NaiveEngine(
            small_scene.nuclei_a, small_scene.nuclei_b, prefilter=True
        ).nn_join().pairs

        inj = FaultInjector(seed=11, decode_error_rate=0.3)
        chaotic = self._engine(datasets, EngineConfig(fault_injector=inj))
        res = chaotic.knn_join("nuclei_a", "nuclei_b", k=2)

        # Under REPRO_QUERY_WORKERS > 1 the faults fire in worker
        # processes, whose decode failures ride back on the stats.
        fired = inj.counts.get("decode", 0) or res.stats.decode_failures
        assert fired > 0, "no faults fired; change the seed"
        assert res.stats.degraded_objects > 0
        for tid, cands in res.pairs.items():
            assert len(cands) <= 2
            for _sid, dist, _exact in cands:
                # every reported distance upper-bounds the true nearest
                assert dist + 1e-6 >= truth[tid][1]


class TestMalformedRoundBehindValidCRC:
    """A blob whose every CRC holds but whose round is malformed.

    LOD 0 is read from the header and the base segment alone, so the
    malformed round surfaces only when something needs the rounds: a
    request past LOD 0 falls back down the ladder to LOD 0, degraded,
    while a full parse of the blob still raises.
    """

    @staticmethod
    def _malformed_round(blob: bytes) -> bytes:
        """``blob`` with round 0 replaced by one record of ring length 2."""
        head = _parse_header(blob)
        segments = _segments(blob, head)
        part_a = bytearray()
        for value in (1, 0, 0, 2, 1, 2):  # count, vertex, apex, ring length, ring
            write_uvarint(part_a, value)
        payload = bytearray()
        write_uvarint(payload, len(part_a))
        payload += part_a + bytes(-(-3 * head.quant_bits // 8))  # one position
        segments[1] = _compress(bytes(payload))
        return _write_blob(
            head.coder, head.quant_bits, head.rounds_per_lod, head.num_vertices,
            head.aabb, segments,
        )

    def test_lod0_served_and_higher_lods_fall_back(self, tmp_path, caplog):
        import logging

        from repro.storage import Dataset, load_dataset, save_dataset
        from repro.storage.cache import DecodeCache, DecodedObjectProvider

        obj = PPVPEncoder(max_lods=3).encode(icosphere(1))
        bad = self._malformed_round(serialize_object(obj))
        with pytest.raises(SerializationError, match="malformed removal record"):
            deserialize_object(bad)

        class SwapBlob:
            def corrupt_blob(self, blob, key):
                return bad

        save_dataset(Dataset("bad", [obj]), tmp_path / "bad", fault_injector=SwapBlob())
        loaded = load_dataset(tmp_path / "bad")  # every CRC verifies
        provider = DecodedObjectProvider("bad", loaded.objects, DecodeCache())
        base = provider.get(0, 0)
        assert (base.lod, base.degraded) == (0, False)
        assert np.array_equal(base.faces, obj.base_faces)
        with caplog.at_level(logging.WARNING, logger="repro"):
            top = provider.get(0, obj.max_lod)
        assert (top.lod, top.degraded) == (0, True)
        assert np.array_equal(top.faces, base.faces)
        assert provider.degraded_ids == {0: 0}
        assert not provider.failed_ids
        events = [record.getMessage() for record in caplog.records]
        assert events.count("decode_failure") == obj.max_lod
        assert "decode_fallback" in events
        with pytest.raises(SerializationError, match="malformed removal record"):
            deserialize_object(bad)


class TestOFFFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_hangs(self, tmp_path_factory, text):
        from repro.io.off import read_off

        path = tmp_path_factory.mktemp("off") / "f.off"
        path.write_text(text)
        try:
            read_off(path)
        except ACCEPTABLE:
            pass


class TestSTLFuzz:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_arbitrary_bytes_never_hang(self, tmp_path_factory, data):
        from repro.io.stl import read_stl

        path = tmp_path_factory.mktemp("stl") / "f.stl"
        path.write_bytes(data)
        try:
            read_stl(path)
        except ACCEPTABLE:
            pass

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mutated_valid_stl_never_hangs(self, tmp_path_factory, seed):
        from repro.io.stl import read_stl, write_stl
        from repro.mesh import icosphere

        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("stl") / "m.stl"
        write_stl(path, icosphere(0))
        data = bytearray(path.read_bytes())
        data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        path.write_bytes(bytes(data))
        try:
            read_stl(path)
        except ACCEPTABLE:
            pass
