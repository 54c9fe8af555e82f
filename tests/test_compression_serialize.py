"""Tests for varints, position packing, segment coding, and object serialization."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    PPVPEncoder,
    deserialize_object,
    serialize_object,
    serialized_segment_sizes,
)
from repro.compression import serialize
from repro.compression.serialize import (
    SerializationError,
    _decompress,
    _huffman_decode,
    _pack_positions,
    _parse_header,
    _segments,
    _unpack_positions,
)
from repro.compression.varint import read_uvarint, write_uvarint
from repro.mesh import icosphere, validate_polyhedron
from repro.storage import Dataset, save_dataset
from tests.oracles.huffman import huffman_encode
from tests.test_compression_classify import dented_icosphere

GOLDEN = Path(__file__).parent / "golden"


def _segment_tags(blob: bytes) -> list[int]:
    return [segment[0] for segment in _segments(blob, _parse_header(blob))]


class TestVarint:
    @given(st.integers(0, 2**63))
    def test_uvarint_roundtrip(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        decoded, offset = read_uvarint(bytes(buf), 0)
        assert decoded == value
        assert offset == len(buf)

    def test_negative_uvarint_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_truncated_read(self):
        with pytest.raises(EOFError):
            read_uvarint(b"\x80", 0)

    def test_small_values_one_byte(self):
        buf = bytearray()
        write_uvarint(buf, 127)
        assert len(buf) == 1


class TestBits:
    """Quantized positions: fixed-width fields, MSB-first, zero-padded."""

    def test_roundtrip_mixed_widths(self):
        assert _pack_positions(np.array([[1, 2, 3]]), 4) == b"\x12\x30"
        rng = np.random.default_rng(0)
        for bits in range(4, 32):
            for count in (0, 1, 7, 500):
                quantized = rng.integers(0, 1 << bits, size=(count, 3))
                packed = _pack_positions(quantized, bits)
                assert len(packed) == -(-3 * count * bits // 8)
                unpacked = _unpack_positions(packed, count, bits)
                assert np.array_equal(unpacked, quantized), (bits, count)

    def test_read_past_end(self):
        packed = _pack_positions(np.array([[1, 2, 3], [4, 5, 6]]), 16)
        with pytest.raises(SerializationError):
            _unpack_positions(packed[:-1], 2, 16)


class TestHuffman:
    """The tag-1 segment reader, fed by the reference encoder."""

    @given(st.binary(max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, data):
        assert _huffman_decode(huffman_encode(data)) == data

    def test_empty(self):
        assert _huffman_decode(huffman_encode(b"")) == b""

    def test_single_symbol(self):
        data = b"a" * 1000
        blob = huffman_encode(data)
        assert _huffman_decode(blob) == data
        assert len(blob) < len(data) / 4

    def test_compresses_skewed_data(self):
        data = b"abcd" * 10 + b"a" * 5000
        assert len(huffman_encode(data)) < len(data)

    def test_truncated_stream_rejected(self):
        blob = huffman_encode(bytes(range(256)) * 4)
        with pytest.raises(SerializationError):
            _huffman_decode(blob[:-1])
        with pytest.raises(SerializationError):
            _huffman_decode(blob[:5])


class TestGoldenBlobs:
    """Blobs written before zlib-or-raw became the only segment coder.

    ``icosphere3_q6_huffman.3dpr`` is ``PPVPEncoder(max_lods=4)`` over
    ``icosphere(3)`` at 6 bits with Huffman-coded segments;
    ``dented_icosphere_q16.3dpr`` is the dented fixture below at 16 bits.
    Both must load to the object today's writer produces for the same
    encode, which pins the position bit layout and the tag-1 reader.
    """

    @pytest.mark.parametrize("name, mesh, bits", [
        ("icosphere3_q6_huffman", lambda: icosphere(3), 6),
        ("dented_icosphere_q16", lambda: dented_icosphere(subdivisions=2)[0], 16),
    ], ids=["icosphere3_q6_huffman", "dented_icosphere_q16"])
    def test_old_blob_loads_identically(self, name, mesh, bits):
        old = (GOLDEN / f"{name}.3dpr").read_bytes()
        if "huffman" in name:
            assert 1 in _segment_tags(old), "golden blob has no Huffman segment"
        current = deserialize_object(
            serialize_object(PPVPEncoder(max_lods=4).encode(mesh()), quant_bits=bits)
        )
        loaded = deserialize_object(old)
        assert np.array_equal(loaded.positions, current.positions)
        assert np.array_equal(loaded.base_faces, current.base_faces)
        assert loaded.rounds == current.rounds
        assert loaded.rounds_per_lod == current.rounds_per_lod


class TestObjectSerialization:
    @pytest.fixture(scope="class")
    def compressed(self):
        mesh, _ = dented_icosphere(subdivisions=2)
        return PPVPEncoder(max_lods=4).encode(mesh)

    CODERS = {
        "none": lambda payload: b"\x00" + payload,
        "huffman": lambda payload: b"\x01" + huffman_encode(payload),
        "zlib": serialize._compress,
    }

    @pytest.mark.parametrize("coder", sorted(CODERS))
    def test_roundtrip_structure(self, compressed, coder, monkeypatch):
        # Every segment tag the reader accepts, in a whole object.
        monkeypatch.setattr(serialize, "_compress", self.CODERS[coder])
        blob = serialize_object(compressed, quant_bits=16)
        restored = deserialize_object(blob)
        assert restored.num_rounds == compressed.num_rounds
        assert restored.rounds_per_lod == compressed.rounds_per_lod
        assert np.array_equal(
            np.sort(restored.base_faces, axis=None),
            np.sort(compressed.base_faces, axis=None),
        )
        for ours, theirs in zip(restored.rounds, compressed.rounds):
            assert ours == theirs

    def test_positions_within_quantization_error(self, compressed):
        blob = serialize_object(compressed, quant_bits=16)
        restored = deserialize_object(blob)
        span = max(compressed.aabb.extents)
        tolerance = span / (2**16 - 1)
        assert np.abs(restored.positions - compressed.positions).max() <= tolerance

    def test_all_lods_decode_and_validate(self, compressed):
        restored = deserialize_object(serialize_object(compressed))
        for lod in restored.lods:
            validate_polyhedron(restored.decode(lod).compacted(), check_degenerate=False)

    def test_higher_quantization_is_smaller(self, compressed):
        small = serialize_object(compressed, quant_bits=10)
        large = serialize_object(compressed, quant_bits=20)
        assert len(small) < len(large)

    def test_entropy_coding_never_hurts(self, compressed):
        # Segment coding is adaptive: zlib is kept only when smaller.
        blob = serialize_object(compressed)
        for segment in _segments(blob, _parse_header(blob)):
            assert segment[0] in (0, 2)
            assert len(segment) <= 1 + len(_decompress(segment))

    def test_entropy_coding_wins_on_low_entropy_payload(self):
        # A large mesh with coarse quantization produces segments big and
        # skewed enough for zlib to strictly beat the raw layout.
        big = PPVPEncoder(max_lods=4).encode(icosphere(3))
        blob = serialize_object(big, quant_bits=6)
        segments = _segments(blob, _parse_header(blob))
        assert 2 in _segment_tags(blob)
        coded = sum(len(segment) for segment in segments)
        raw = sum(1 + len(_decompress(segment)) for segment in segments)
        assert coded < raw

    def test_segment_sizes_sum_to_total(self, compressed):
        blob = serialize_object(compressed)
        sizes = serialized_segment_sizes(blob)
        assert (
            sizes["header"] + sizes["base"] + sum(sizes["rounds"]) + sizes["trailer"]
            == sizes["total"]
        )
        assert len(sizes["rounds"]) == compressed.num_rounds

    def test_compression_beats_flat_representation(self, compressed):
        # Flat full-resolution storage: 3 float64 per vertex + 3 int32 per face.
        full = compressed.decode(compressed.max_lod).compacted()
        flat_bytes = full.num_vertices * 24 + full.num_faces * 12
        blob = serialize_object(compressed, quant_bits=14)
        assert len(blob) < flat_bytes

    def test_bad_magic_rejected(self, compressed):
        blob = bytearray(serialize_object(compressed))
        blob[0] = ord("X")
        with pytest.raises(SerializationError):
            deserialize_object(bytes(blob))

    def test_bad_quant_bits_rejected(self, compressed):
        with pytest.raises(ValueError):
            serialize_object(compressed, quant_bits=2)
        with pytest.raises(ValueError):
            serialize_object(compressed, quant_bits=40)

    def test_unknown_backend_rejected(self, compressed, tmp_path):
        # There is one segment coder; the old ``backend=`` knob is gone.
        with pytest.raises(TypeError):
            serialize_object(compressed, backend="zlib")
        with pytest.raises(TypeError):
            save_dataset(Dataset("d", [compressed]), tmp_path, backend="zlib")
