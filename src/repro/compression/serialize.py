"""Binary serialization of compressed objects (paper Section 6.2).

A serialized object is a small header plus one *segment per LOD
increment*: segment 0 holds the base mesh (LOD0), segment ``i`` the
removal records of encoding round ``i``. Decoding an object to LOD ``k``
touches only the header, the base segment, and the round segments that
LOD needs — exactly the paper's "decoding one object to a specific LOD
also needs the data for all the LODs lower than that LOD", and the
per-segment byte counts reproduce Fig. 9. The engine reads LOD 0 that
way (:func:`parse_base`: header and base segment); any higher LOD it
reads by parsing the rounds too (:func:`assemble` of that base parse, or
:func:`deserialize_object` of the whole blob).

Vertex coordinates are uniformly quantized over the object's MBB with a
configurable bit width and packed MSB-first at that width; all integer
fields are varints. Each segment is coded independently and stores
whichever of its raw bytes and ``zlib`` level 6 is smaller, behind a
one-byte tag (0 raw, 2 zlib). Tag 1 is canonical Huffman, which earlier
writers produced; it is still read, so every v1/v2 blob stays loadable.
Quantization is the only lossy stage: every LOD of a deserialized object
snaps to the same grid, so the progressive-subset property is preserved
within the quantized geometry.

Format v2 adds integrity metadata: every segment-table entry carries the
CRC32 of its (coded) segment, and the blob ends with a 4-byte
little-endian CRC32 of all preceding bytes. Corruption is therefore
*detected* (:class:`~repro.core.errors.BlobChecksumError`) instead of
parsed into garbage geometry, and :func:`salvage_object_blob` can
recover the longest checksum-valid LOD prefix of a damaged blob — the
storage-level counterpart of the paper's progressive-subset property.
v1 blobs (no checksums) remain readable.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.compression.ppvp import CompressedObject, RemovalRecord
from repro.compression.varint import read_uvarint, write_uvarint
from repro.geometry.aabb import AABB

__all__ = [
    "serialize_object",
    "deserialize_object",
    "parse_base",
    "assemble",
    "ParsedBase",
    "salvage_object_blob",
    "serialized_segment_sizes",
    "SerializationError",
    "BLOB_FORMAT_VERSION",
]

_MAGIC = b"3DPR"
BLOB_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
# Segment tags. The header's coder byte takes the same values; readers
# only check that it is one of them.
_RAW, _HUFFMAN, _ZLIB = 0, 1, 2


class SerializationError(ValueError):
    """Raised on malformed input blobs."""


def _compress(payload: bytes) -> bytes:
    """Code one segment: the smaller of raw and zlib, behind its tag.

    Quantized coordinate bits are close to incompressible while the
    connectivity varints are skewed, so small segments usually stay raw.
    """
    coded = zlib.compress(payload, level=6)
    if len(coded) < len(payload):
        return bytes([_ZLIB]) + coded
    return bytes([_RAW]) + payload


def _decompress(segment: bytes) -> bytes:
    if not segment:
        raise SerializationError("empty segment")
    tag, body = segment[0], segment[1:]
    if tag == _RAW:
        return body
    if tag == _ZLIB:
        return zlib.decompress(body)
    if tag == _HUFFMAN:
        return _huffman_decode(body)
    raise SerializationError(f"unknown segment tag {tag}")


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Map symbol -> (code, length), assigned in (length, symbol) order."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol, length in ordered:
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


def _huffman_decode(body: bytes) -> bytes:
    """Read a tag-1 segment: a canonical Huffman code over bytes.

    Layout: uvarint payload size, uvarint symbol count, one
    ``(symbol, code length)`` byte pair per symbol, then the codes
    MSB-first, zero-padded to a whole byte.
    """
    size, offset = read_uvarint(body, 0)
    nsymbols, offset = read_uvarint(body, offset)
    if offset + 2 * nsymbols > len(body):
        raise SerializationError("truncated Huffman header")
    lengths = {
        body[offset + 2 * i]: body[offset + 2 * i + 1] for i in range(nsymbols)
    }
    offset += 2 * nsymbols
    if size == 0:
        return b""
    if not lengths:
        raise SerializationError("non-empty Huffman payload with empty code table")
    # A code of length L is looked up as ``(1 << L) | code``: the leading
    # 1 keeps codes of different lengths apart in one table.
    table = {
        (1 << length) | code: symbol
        for symbol, (code, length) in _canonical_codes(lengths).items()
    }
    limit = 1 << max(lengths.values())
    out = bytearray()
    node = 1
    for bit in np.unpackbits(np.frombuffer(body, np.uint8, offset=offset)).tolist():
        node = (node << 1) | bit
        symbol = table.get(node)
        if symbol is not None:
            out.append(symbol)
            if len(out) == size:
                return bytes(out)
            node = 1
        elif node >= limit:
            raise SerializationError("corrupt Huffman stream")
    raise SerializationError("truncated Huffman stream")


def _quantize(points: np.ndarray, aabb: AABB, bits: int) -> np.ndarray:
    low, high = aabb.as_arrays()
    span = np.where(high - low > 0, high - low, 1.0)
    levels = (1 << bits) - 1
    q = np.rint((points - low) / span * levels)
    return np.clip(q, 0, levels).astype(np.int64)


def _dequantize(q: np.ndarray, aabb: AABB, bits: int) -> np.ndarray:
    low, high = aabb.as_arrays()
    span = high - low
    levels = (1 << bits) - 1
    return low + q.astype(np.float64) / levels * span


def _pack_positions(quantized: np.ndarray, bits: int) -> bytes:
    """``bits``-wide fields, MSB-first in x, y, z order, zero-padded."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    fields = (quantized.reshape(-1, 1) >> shifts) & 1
    return np.packbits(fields.astype(np.uint8)).tobytes()


def _unpack_positions(data: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_positions`; trailing bytes are ignored."""
    nbits = 3 * count * bits
    if nbits > 8 * len(data):
        raise SerializationError("truncated position block")
    flat = np.unpackbits(np.frombuffer(data, np.uint8), count=nbits)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return (flat.reshape(count, 3, bits).astype(np.int64) << shifts).sum(axis=-1)


def _build_base_segment(obj: CompressedObject, quant: np.ndarray, bits: int) -> bytes:
    base_ids = sorted({int(v) for face in obj.base_faces.tolist() for v in face})
    rank = {vid: i for i, vid in enumerate(base_ids)}

    part_a = bytearray()
    write_uvarint(part_a, len(base_ids))
    prev = 0
    for vid in base_ids:
        write_uvarint(part_a, vid - prev)  # delta over sorted ids
        prev = vid
    write_uvarint(part_a, len(obj.base_faces))
    for a, b, c in obj.base_faces.tolist():
        write_uvarint(part_a, rank[a])
        write_uvarint(part_a, rank[b])
        write_uvarint(part_a, rank[c])

    part_b = _pack_positions(quant[np.asarray(base_ids, dtype=np.int64)], bits)
    out = bytearray()
    write_uvarint(out, len(part_a))
    out += part_a
    out += part_b
    return bytes(out)


def _parse_base_segment(
    payload: bytes, bits: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    a_len, offset = read_uvarint(payload, 0)
    part_a = payload[offset : offset + a_len]
    part_b = payload[offset + a_len :]

    count, pos = read_uvarint(part_a, 0)
    base_ids: list[int] = []
    prev = 0
    for _ in range(count):
        delta, pos = read_uvarint(part_a, pos)
        prev += delta
        base_ids.append(prev)
    nfaces, pos = read_uvarint(part_a, pos)
    faces = np.empty((nfaces, 3), dtype=np.int64)
    for i in range(nfaces):
        for j in range(3):
            r, pos = read_uvarint(part_a, pos)
            if r >= count:
                raise SerializationError("base face rank out of range")
            faces[i, j] = base_ids[r]
    quant = _unpack_positions(part_b, count, bits)
    return base_ids, faces, quant


def _build_round_segment(
    records: tuple[RemovalRecord, ...], quant: np.ndarray, bits: int
) -> bytes:
    part_a = bytearray()
    write_uvarint(part_a, len(records))
    vids = []
    for record in records:
        write_uvarint(part_a, record.vertex)
        write_uvarint(part_a, record.apex_offset)
        write_uvarint(part_a, len(record.ring))
        for vid in record.ring:
            write_uvarint(part_a, vid)
        vids.append(record.vertex)

    part_b = _pack_positions(quant[np.asarray(vids, dtype=np.int64)], bits)
    out = bytearray()
    write_uvarint(out, len(part_a))
    out += part_a
    out += part_b
    return bytes(out)


def _parse_round_segment(
    payload: bytes, bits: int
) -> tuple[tuple[RemovalRecord, ...], list[int], np.ndarray]:
    a_len, offset = read_uvarint(payload, 0)
    part_a = payload[offset : offset + a_len]
    part_b = payload[offset + a_len :]

    count, pos = read_uvarint(part_a, 0)
    records: list[RemovalRecord] = []
    vids: list[int] = []
    for _ in range(count):
        vertex, pos = read_uvarint(part_a, pos)
        apex, pos = read_uvarint(part_a, pos)
        ring_len, pos = read_uvarint(part_a, pos)
        ring = []
        for _ in range(ring_len):
            vid, pos = read_uvarint(part_a, pos)
            ring.append(vid)
        if ring_len < 3 or apex >= ring_len:
            raise SerializationError("malformed removal record")
        records.append(RemovalRecord(vertex, tuple(ring), apex))
        vids.append(vertex)
    quant = _unpack_positions(part_b, count, bits)
    return tuple(records), vids, quant


def _checksum_error(message: str) -> Exception:
    # Imported lazily: repro.core.errors lives above repro.compression in
    # the package import order, so a module-level import would be cyclic.
    from repro.core.errors import BlobChecksumError

    return BlobChecksumError(message)


def serialize_object(obj: CompressedObject, quant_bits: int = 16) -> bytes:
    """Serialize a :class:`CompressedObject` to a self-contained blob."""
    if not 4 <= quant_bits <= 31:
        raise ValueError("quant_bits must be in [4, 31]")

    quant = _quantize(obj.positions, obj.aabb, quant_bits)
    segments = [_compress(_build_base_segment(obj, quant, quant_bits))]
    for records in obj.rounds:
        segments.append(_compress(_build_round_segment(records, quant, quant_bits)))
    return _write_blob(
        _ZLIB, quant_bits, obj.rounds_per_lod, len(obj.positions), obj.aabb, segments
    )


def _write_blob(
    coder: int,
    quant_bits: int,
    rounds_per_lod: int,
    num_vertices: int,
    aabb: AABB,
    segments: list[bytes],
) -> bytes:
    """Assemble a format-v2 blob around already-coded segments."""
    out = bytearray()
    out += _MAGIC
    out.append(BLOB_FORMAT_VERSION)
    out.append(coder)
    out.append(quant_bits)
    write_uvarint(out, rounds_per_lod)
    write_uvarint(out, num_vertices)
    write_uvarint(out, len(segments) - 1)
    out += struct.pack("<6d", *aabb.low, *aabb.high)
    for segment in segments:
        write_uvarint(out, len(segment))
        write_uvarint(out, zlib.crc32(segment))
    for segment in segments:
        out += segment
    out += zlib.crc32(bytes(out)).to_bytes(4, "little")
    return bytes(out)


@dataclass
class _Header:
    """Parsed blob header plus the segment table."""

    version: int
    coder: int
    quant_bits: int
    rounds_per_lod: int
    num_vertices: int
    num_rounds: int
    aabb: AABB
    seg_lengths: list[int]
    seg_crcs: list[int]
    offset: int  # first byte of segment data
    body_end: int  # one past the last segment byte (trailer excluded)


def _parse_header(blob: bytes, verify: bool = True) -> _Header:
    """Parse and bounds-check the header; every failure is a SerializationError."""
    if blob[:4] != _MAGIC:
        raise SerializationError("bad magic")
    if len(blob) < 7:
        raise SerializationError("truncated header")
    version, coder, quant_bits = blob[4], blob[5], blob[6]
    if version not in _SUPPORTED_VERSIONS:
        raise SerializationError(f"unsupported version {version}")
    body_end = len(blob)
    if version >= 2:
        if len(blob) < 9:
            raise SerializationError("truncated blob")
        if verify:
            stored = int.from_bytes(blob[-4:], "little")
            if zlib.crc32(blob[:-4]) != stored:
                raise _checksum_error("blob checksum mismatch")
        body_end = len(blob) - 4
    if coder not in (_RAW, _HUFFMAN, _ZLIB):
        raise SerializationError(f"unknown coder id {coder}")
    if not 4 <= quant_bits <= 31:
        raise SerializationError(f"quant_bits {quant_bits} out of range")
    try:
        rounds_per_lod, offset = read_uvarint(blob, 7)
        num_vertices, offset = read_uvarint(blob, offset)
        num_rounds, offset = read_uvarint(blob, offset)
        if rounds_per_lod < 1 or num_rounds > body_end:
            raise SerializationError(
                f"implausible rounds ({num_rounds} by {rounds_per_lod} per LOD)"
            )
        coords = struct.unpack_from("<6d", blob, offset)
        offset += 48
        seg_lengths = []
        seg_crcs = []
        for _ in range(num_rounds + 1):
            length, offset = read_uvarint(blob, offset)
            seg_lengths.append(length)
            crc = 0
            if version >= 2:
                crc, offset = read_uvarint(blob, offset)
            seg_crcs.append(crc)
    except (EOFError, ValueError, struct.error) as exc:
        raise SerializationError(f"malformed header: {exc}") from exc
    return _Header(
        version, coder, quant_bits, rounds_per_lod, num_vertices, num_rounds,
        AABB(coords[:3], coords[3:]), seg_lengths, seg_crcs, offset, body_end,
    )


def _reports_malformed_bytes(parse):
    """Surface any parser exception on malformed bytes as SerializationError."""

    @functools.wraps(parse)
    def guarded(blob: bytes):
        from repro.core.errors import BlobChecksumError

        try:
            return parse(blob)
        except (SerializationError, BlobChecksumError):
            raise
        except Exception as exc:
            raise SerializationError(f"malformed blob: {exc!r}") from exc

    return guarded


def _segments(blob: bytes, head: _Header) -> list[bytes]:
    """The coded segments in table order; the table must cover the body."""
    end = head.offset + sum(head.seg_lengths)
    if end != head.body_end:
        raise SerializationError(
            f"segment table ends at byte {end}, body at {head.body_end}"
        )
    segments = []
    offset = head.offset
    for length in head.seg_lengths:
        segments.append(blob[offset : offset + length])
        offset += length
    return segments


def _positions(head: _Header, blocks) -> np.ndarray:
    """The dequantized vertex table from ``(vertex ids, quantized rows)`` blocks.

    Rows no block names dequantize from zero (the MBB's low corner). A
    row's value depends on its own quantized coordinates alone, so a
    table built from the base block only equals the full one at every
    base vertex, bit for bit.
    """
    quant_table = np.zeros((head.num_vertices, 3), dtype=np.int64)
    for ids, quant in blocks:
        quant_table[np.asarray(ids, dtype=np.int64)] = quant
    return _dequantize(quant_table, head.aabb, head.quant_bits)


def _assemble(head: _Header, base: tuple, rounds: list[tuple], **metadata) -> CompressedObject:
    """Build the object from a parsed base segment and parsed round segments."""
    base_ids, base_faces, base_quant = base
    blocks = [(base_ids, base_quant)] + [(vids, quant) for _records, vids, quant in rounds]
    return CompressedObject(
        positions=_positions(head, blocks),
        base_faces=base_faces,
        rounds=tuple(records for records, _vids, _quant in rounds),
        rounds_per_lod=head.rounds_per_lod,
        metadata={"aabb": head.aabb, "quant_bits": head.quant_bits, **metadata},
    )


class ParsedBase(NamedTuple):
    """A blob checked and parsed up to its rounds (:func:`parse_base`)."""

    head: _Header
    #: The coded round segments, in table order, not parsed yet.
    rounds: list[bytes]
    #: The parsed base segment: ``(vertex ids, base faces, quantized rows)``.
    base: tuple

    def base_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """LOD 0: ``(positions, base_faces)``, both read-only.

        ``base_faces`` equals the full object's; ``positions`` has its
        full length and equals the full object's at every base vertex
        (see :func:`_positions`), which is every row the base faces
        index.
        """
        base_ids, base_faces, base_quant = self.base
        positions = _positions(self.head, [(base_ids, base_quant)])
        positions.setflags(write=False)
        faces = base_faces.view()
        faces.setflags(write=False)
        return positions, faces


@_reports_malformed_bytes
def parse_base(blob: bytes) -> ParsedBase:
    """Check a blob and parse its header and base segment.

    Every check a full parse makes before it reads the rounds — the
    whole-blob CRC and a segment table that covers the body — runs here,
    with the same errors, so a base-only parse is no less strict. The
    round segments are not parsed, so a malformed round surfaces only in
    :func:`assemble`.
    """
    head = _parse_header(blob)
    segments = _segments(blob, head)
    base = _parse_base_segment(_decompress(segments[0]), head.quant_bits)
    return ParsedBase(head, segments[1:], base)


@_reports_malformed_bytes
def assemble(parsed: ParsedBase) -> CompressedObject:
    """The object a base parse belongs to: its round segments are parsed
    now, the header and base segment are not parsed again."""
    quant_bits = parsed.head.quant_bits
    return _assemble(
        parsed.head, parsed.base,
        [_parse_round_segment(_decompress(s), quant_bits) for s in parsed.rounds],
    )


@_reports_malformed_bytes
def deserialize_object(blob: bytes) -> CompressedObject:
    """Rebuild a :class:`CompressedObject` (positions snapped to the grid).

    :func:`parse_base` plus :func:`assemble`. v2 blobs have their
    trailing CRC32 verified first; any corruption raises
    :class:`~repro.core.errors.BlobChecksumError` rather than parsing
    into garbage geometry. Malformed bytes of any provenance (including
    a corrupted version byte demoting a v2 blob to the checksum-free v1
    layout, or a malformed round behind a valid CRC) surface as
    :class:`SerializationError`, never as a raw parser exception.
    """
    return assemble(parse_base(blob))


@_reports_malformed_bytes
def salvage_object_blob(blob: bytes) -> tuple[CompressedObject, int]:
    """Best-effort partial deserialize of a corrupted blob.

    Checksums are used for *localization* instead of rejection: the
    header and segment table must parse, the base segment must be intact,
    and the longest checksum-valid **suffix** of round segments is kept
    (the decoder reinserts rounds from the back, so a valid suffix is
    exactly what lower LODs need — the truncated object's every LOD is
    identical to the same LOD of the original). Returns
    ``(object, rounds_dropped)``; raises :class:`SerializationError` if
    not even the base mesh can be recovered.
    """
    head = _parse_header(blob, verify=False)

    raw_segments: list[bytes | None] = []
    offset = head.offset
    for length, crc in zip(head.seg_lengths, head.seg_crcs):
        end = offset + length
        if end > head.body_end:
            raw_segments.append(None)  # truncated
        else:
            segment = blob[offset:end]
            ok = zlib.crc32(segment) == crc if head.version >= 2 else True
            raw_segments.append(segment if ok else None)
        offset = end

    if raw_segments[0] is None:
        raise SerializationError("base segment unrecoverable")
    base = _parse_base_segment(_decompress(raw_segments[0]), head.quant_bits)

    # Longest valid suffix of rounds: scan from the last round backwards.
    parsed: list[tuple] = []
    for segment in reversed(raw_segments[1:]):
        if segment is None:
            break
        try:
            parsed.append(_parse_round_segment(_decompress(segment), head.quant_bits))
        except Exception:
            break
    parsed.reverse()
    dropped = head.num_rounds - len(parsed)
    return _assemble(head, base, parsed, salvaged_rounds_dropped=dropped), dropped


def extract_lod_prefix(blob: bytes, lod: int) -> bytes:
    """Rebuild a valid blob containing only the segments LOD ``lod`` needs.

    Progressive transmission: a serialized object's base and round
    segments are independently decodable, and decoding to LOD k only
    needs the base plus the *last* ``k * rounds_per_lod`` encode rounds
    (reinsertions replay from the back). The returned blob deserializes
    to an object whose top LOD is ``lod`` — the receiver can refine as
    more segments arrive by re-extracting at a higher LOD.
    """
    head = _parse_header(blob)
    segments = _segments(blob, head)

    max_lod = -(-head.num_rounds // head.rounds_per_lod)
    if not 0 <= lod <= max_lod:
        raise ValueError(f"lod must be in [0, {max_lod}], got {lod}")
    keep_rounds = min(head.num_rounds, lod * head.rounds_per_lod)
    # Segment 0 is the base; rounds are stored in encode order, and the
    # decoder consumes them from the back, so keep the LAST ``keep_rounds``.
    kept = [segments[0]] + segments[1 + (head.num_rounds - keep_rounds) :]
    return _write_blob(
        head.coder, head.quant_bits, head.rounds_per_lod, head.num_vertices,
        head.aabb, kept,
    )


def serialized_segment_sizes(blob: bytes) -> dict:
    """Byte counts of the header, the base segment, and each round segment.

    This is the raw material for the paper's Fig. 9 ("portions of space
    taken by different LODs"). ``header`` covers everything before the
    first segment; ``trailer`` is the v2 integrity trailer (0 for v1).
    """
    head = _parse_header(blob)
    return {
        "header": head.offset,
        "base": head.seg_lengths[0],
        "rounds": list(head.seg_lengths[1:]),
        "trailer": len(blob) - head.body_end,
        "total": len(blob),
    }
