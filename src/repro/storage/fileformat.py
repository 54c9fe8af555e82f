"""Cuboid container files (formats v1 and v2): a load-only legacy format.

Stores written before the v3 shard layout (:mod:`repro.storage.shardfile`)
hold one container file per cuboid: the serialized blobs of every object
that lives in that cuboid as a magic-tagged length-prefixed
concatenation. Nothing in this package writes them any more — the
readers here keep old directories loadable (strict and salvage) and let
``repro store migrate`` convert them; the reference *writer* lives with
the tests that build such fixtures (``tests/oracles/legacy_store.py``).

Format v2 carries integrity metadata so corruption is *detected* instead
of parsed into garbage geometry:

* each index entry carries the CRC32 of its blob, and
* the file ends with a 4-byte little-endian CRC32 of every preceding
  byte (magic, version, index, and payload).

Any single-byte corruption of a v2 file therefore fails the container
checksum (or, for a flip inside one blob, additionally the per-blob
checksum — the granularity :func:`salvage_cuboid_file` uses to recover
the undamaged blobs). v1 files (no checksums) remain readable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.compression.varint import read_uvarint
from repro.core.errors import BlobChecksumError, CuboidFormatError

__all__ = [
    "read_cuboid_file",
    "salvage_cuboid_file",
    "BlobFault",
    "CuboidFormatError",
    "BlobChecksumError",
]

_MAGIC = b"3DPC"
_SUPPORTED_VERSIONS = (1, 2)


@dataclass(frozen=True)
class BlobFault:
    """One blob that could not be read intact from a container file."""

    object_id: int | None
    reason: str
    blob: bytes | None = None  # raw (corrupt) bytes, for object-level salvage


def _parse_index(data: bytes, path, version: int) -> tuple[list[int], list[int], list[int], int]:
    """Parse the container index; returns (ids, lengths, crcs, payload_offset)."""
    count, offset = read_uvarint(data, 5)
    entry_bytes = 2 if version == 1 else 3
    if count * entry_bytes > len(data):
        raise CuboidFormatError(f"{path}: implausible object count {count}")
    ids: list[int] = []
    lengths: list[int] = []
    crcs: list[int] = []
    try:
        for _ in range(count):
            obj_id, offset = read_uvarint(data, offset)
            length, offset = read_uvarint(data, offset)
            crc = 0
            if version >= 2:
                crc, offset = read_uvarint(data, offset)
            ids.append(obj_id)
            lengths.append(length)
            crcs.append(crc)
    except (EOFError, ValueError) as exc:
        raise CuboidFormatError(f"{path}: truncated index ({exc})") from exc
    return ids, lengths, crcs, offset


def _check_preamble(data: bytes, path) -> int:
    if len(data) < 5 or data[:4] != _MAGIC:
        raise CuboidFormatError(f"{path}: bad magic")
    version = data[4]
    if version not in _SUPPORTED_VERSIONS:
        raise CuboidFormatError(f"{path}: unsupported version {version}")
    return version


def read_cuboid_file(path) -> list[tuple[int, bytes]]:
    """Read back ``(object_id, blob)`` pairs from a cuboid file (strict).

    Any detected corruption raises: :class:`CuboidFormatError` for
    framing problems or a container-checksum mismatch,
    :class:`BlobChecksumError` for a per-blob CRC32 mismatch.
    """
    data = Path(path).read_bytes()
    version = _check_preamble(data, path)
    if version >= 2:
        if len(data) < 9:
            raise CuboidFormatError(f"{path}: truncated container")
        stored = int.from_bytes(data[-4:], "little")
        if zlib.crc32(data[:-4]) != stored:
            raise CuboidFormatError(f"{path}: container checksum mismatch")
        data = data[:-4]
    ids, lengths, crcs, offset = _parse_index(data, path, version)
    out: list[tuple[int, bytes]] = []
    for obj_id, length, crc in zip(ids, lengths, crcs):
        if offset + length > len(data):
            raise CuboidFormatError(f"{path}: truncated blob for object {obj_id}")
        blob = data[offset : offset + length]
        if version >= 2 and zlib.crc32(blob) != crc:
            raise BlobChecksumError(f"{path}: checksum mismatch for object {obj_id}")
        out.append((obj_id, blob))
        offset += length
    if offset != len(data):
        raise CuboidFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return out


def salvage_cuboid_file(path) -> tuple[list[tuple[int, bytes]], list[BlobFault], bool]:
    """Best-effort read of a possibly-corrupt container file.

    Returns ``(pairs, faults, container_ok)``: the blobs that read back
    intact, a :class:`BlobFault` per blob that did not (with its raw
    bytes when they were at least addressable, so the caller can attempt
    object-level salvage), and whether the container checksum held.
    Raises :class:`CuboidFormatError` only when the file is unsalvageable
    (bad magic/version or an unparseable index).
    """
    data = Path(path).read_bytes()
    version = _check_preamble(data, path)
    container_ok = True
    if version >= 2:
        if len(data) < 9:
            raise CuboidFormatError(f"{path}: truncated container")
        container_ok = zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "little")
        data = data[:-4]
    ids, lengths, crcs, offset = _parse_index(data, path, version)
    pairs: list[tuple[int, bytes]] = []
    faults: list[BlobFault] = []
    for obj_id, length, crc in zip(ids, lengths, crcs):
        if offset + length > len(data):
            faults.append(BlobFault(obj_id, "truncated blob"))
            offset += length
            continue
        blob = data[offset : offset + length]
        offset += length
        if version >= 2 and zlib.crc32(blob) != crc:
            faults.append(BlobFault(obj_id, "blob checksum mismatch", blob))
            continue
        pairs.append((obj_id, blob))
    return pairs, faults, container_ok
