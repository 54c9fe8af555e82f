"""Reference oracle: the canonical Huffman segment encoder.

Format v1/v2 writers could code a segment with canonical Huffman (tag
1). Blobs are now written zlib-or-raw, but the tag-1 reader in
:mod:`repro.compression.serialize` must keep loading those stores. This
is that writer, kept as the encoder the reader's round-trip tests use.
Not used on any encode path.

Layout: uvarint payload size, uvarint symbol count, one ``(symbol,
code length)`` byte pair per symbol in symbol order, then the codes
MSB-first, zero-padded to a whole byte.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.compression.serialize import _canonical_codes
from repro.compression.varint import write_uvarint

__all__ = ["huffman_encode", "code_lengths"]

_MAX_CODE_LEN = 32


def code_lengths(data: bytes) -> dict[int, int]:
    """Huffman code length per symbol for ``data``."""
    freq = Counter(data)
    if not freq:
        return {}
    if len(freq) == 1:
        return {next(iter(freq)): 1}

    # Standard Huffman tree; entries are (weight, tiebreak, symbols...).
    heap: list[tuple[int, int, tuple[int, ...]]] = [
        (count, symbol, (symbol,)) for symbol, count in freq.items()
    ]
    heapq.heapify(heap)
    depths: dict[int, int] = dict.fromkeys(freq, 0)
    tiebreak = 256
    while len(heap) > 1:
        w1, _t1, s1 = heapq.heappop(heap)
        w2, _t2, s2 = heapq.heappop(heap)
        for symbol in s1 + s2:
            depths[symbol] += 1
        heapq.heappush(heap, (w1 + w2, tiebreak, s1 + s2))
        tiebreak += 1
    if max(depths.values()) > _MAX_CODE_LEN:
        raise ValueError("Huffman code exceeds supported length")
    return depths


def huffman_encode(data: bytes) -> bytes:
    """Encode ``data`` as the body of a tag-1 segment."""
    header = bytearray()
    write_uvarint(header, len(data))
    lengths = code_lengths(data)
    write_uvarint(header, len(lengths))
    for symbol in sorted(lengths):
        header += bytes([symbol, lengths[symbol]])
    codes = _canonical_codes(lengths)
    bits = "".join(format(codes[byte][0], f"0{codes[byte][1]}b") for byte in data)
    bits += "0" * (-len(bits) % 8)
    return bytes(header) + (int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b"")
