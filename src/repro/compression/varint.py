"""Unsigned LEB128 variable-length integers."""

from __future__ import annotations

__all__ = ["write_uvarint", "read_uvarint"]


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError("uvarint requires a non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned varint at ``offset``; returns (value, new_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise EOFError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")
