"""Canonical byte-alphabet Huffman coding for register arrays.

The HBS line of work (Huffman-coded sketches; see PAPERS.md) observes
that HLL-style register arrays are extremely compressible: a register
holds a geometric rank, so of the 256 possible byte values only ~20
ever occur and their distribution is sharply peaked around ``log2 n/t``.
Entropy coding the *bytes* of the serialized sketch captures exactly
that win without any per-estimator layout knowledge — the codec in this
module is a plain canonical Huffman coder over the byte alphabet,
applied by :mod:`repro.wire.frame` to the full ``to_bytes()`` payload.

Blob layout (all integers little-endian)::

    u32  n        number of source bytes
    u16  nsyms    distinct byte values
    nsyms × (u8 symbol, u8 code length)   sorted by symbol
    bit-packed payload, MSB-first, zero-padded to a byte boundary

The code is *canonical*: code words are assigned in (length, symbol)
order, so the (symbol, length) table fully determines the code and the
decoder rebuilds it without storing code words. :func:`encode` returns
``None`` when the input is empty or a code length would exceed
:data:`MAX_CODE_LENGTH` (the frame layer then falls back to raw).
"""

from __future__ import annotations

import heapq
import itertools
import struct

import numpy as np

from repro.framing import require_consumed, take, unpack_header

__all__ = ["MAX_CODE_LENGTH", "decode", "encode"]

#: Longest admissible code word. 32 bits keeps the decoder's shift
#: arithmetic in one word; with byte alphabets this only trips on
#: pathological count skews (> fib(32) ≈ 2M dominant bytes).
MAX_CODE_LENGTH = 32

_HEAD = struct.Struct("<IH")  # n, nsyms

#: Payload bytes unpacked into a list of bits at a time while decoding.
_SLICE = 1 << 12


def _code_lengths(counts: np.ndarray) -> dict[int, int] | None:
    """Huffman code length per occurring symbol, or None if too deep."""
    symbols = np.flatnonzero(counts)
    if symbols.size == 0:
        return None
    if symbols.size == 1:
        return {int(symbols[0]): 1}
    # (count, serial, payload) heap entries; payload is a symbol or a
    # merged list of symbols. Serial breaks count ties deterministically.
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[symbol]), serial, [int(symbol)])
        for serial, symbol in enumerate(symbols)
    ]
    heapq.heapify(heap)
    serial = len(heap)
    lengths = {int(symbol): 0 for symbol in symbols}
    while len(heap) > 1:
        count_a, _, syms_a = heapq.heappop(heap)
        count_b, _, syms_b = heapq.heappop(heap)
        for symbol in syms_a:
            lengths[symbol] += 1
        for symbol in syms_b:
            lengths[symbol] += 1
        heapq.heappush(heap, (count_a + count_b, serial, syms_a + syms_b))
        serial += 1
    if max(lengths.values()) > MAX_CODE_LENGTH:
        return None
    return lengths


def _canonical_codes(lengths: dict[int, int]) -> dict[int, int]:
    """Assign canonical code words in (length, symbol) order."""
    codes: dict[int, int] = {}
    code = 0
    previous = 0
    for symbol, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= length - previous
        if code >= 1 << length:
            raise ValueError("over-subscribed Huffman code")
        codes[symbol] = code
        code += 1
        previous = length
    return codes


def encode(data: bytes) -> bytes | None:
    """Huffman-encode ``data``; None when coding is not applicable."""
    if not data:
        return None
    array = np.frombuffer(data, dtype=np.uint8)
    counts = np.bincount(array, minlength=256)
    lengths = _code_lengths(counts)
    if lengths is None:
        return None
    codes = _canonical_codes(lengths)

    length_table = np.zeros(256, dtype=np.uint8)
    code_table = np.zeros(256, dtype=np.uint64)
    for symbol, length in lengths.items():
        length_table[symbol] = length
        code_table[symbol] = codes[symbol]

    symbol_lengths = length_table[array].astype(np.int64)
    symbol_codes = code_table[array]
    ends = np.cumsum(symbol_lengths)
    total_bits = int(ends[-1])
    starts = ends - symbol_lengths
    bits = np.zeros(total_bits, dtype=np.uint8)
    # One vectorized pass per bit position of the code words (codes are
    # MSB-first): position j of a k-bit code lands at start + j.
    for j in range(int(symbol_lengths.max())):
        live = symbol_lengths > j
        shift = (symbol_lengths[live] - 1 - j).astype(np.uint64)
        bits[starts[live] + j] = (symbol_codes[live] >> shift) & np.uint64(1)
    packed = np.packbits(bits)

    header = _HEAD.pack(array.size, len(lengths))
    table = bytes(
        byte
        for symbol in sorted(lengths)
        for byte in (symbol, lengths[symbol])
    )
    return header + table + packed.tobytes()


def decode(blob: bytes, size: int) -> bytes:
    """Decode an :func:`encode` blob of ``size`` source bytes.

    Strict ``ValueError`` on corruption. Before the output is allocated,
    the header must say ``size`` and the payload must fit ``size`` code
    words: at least one bit each, at most :data:`MAX_CODE_LENGTH`. The
    payload is then unpacked a slice at a time, so decoding holds at
    most ``size`` output bytes plus one slice of bits.
    """
    n, nsyms = unpack_header(_HEAD, blob, "Huffman blob")
    if n != size:
        raise ValueError(
            f"corrupt Huffman blob: header length {n}, expected {size}"
        )
    offset = _HEAD.size
    table, offset = take(blob, offset, 2 * nsyms, "Huffman blob", "symbol table")
    if nsyms == 0:
        raise ValueError("corrupt Huffman blob: empty symbol table")
    lengths: dict[int, int] = {}
    for index in range(nsyms):
        symbol, length = table[2 * index], table[2 * index + 1]
        if symbol in lengths:
            raise ValueError(f"corrupt Huffman blob: duplicate symbol {symbol}")
        if not 1 <= length <= MAX_CODE_LENGTH:
            raise ValueError(f"corrupt Huffman blob: code length {length}")
        lengths[symbol] = length
    codes = _canonical_codes(lengths)

    # Canonical decode tables: per length, the first code word and the
    # symbols of that length in code order.
    by_length: dict[int, list[int]] = {}
    for symbol, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        by_length.setdefault(length, []).append(symbol)
    first = {length: codes[syms[0]] for length, syms in by_length.items()}

    payload = blob[offset:]
    if n > 8 * len(payload):
        raise ValueError(
            f"truncated Huffman blob: {n} symbols need more than "
            f"{len(payload)} payload bytes"
        )
    if len(payload) > (MAX_CODE_LENGTH * n + 7) // 8:
        raise ValueError(
            f"corrupt Huffman blob: {len(payload)} payload bytes exceed "
            f"what {n} code words can fill"
        )
    data = np.frombuffer(payload, dtype=np.uint8)
    bits = itertools.chain.from_iterable(
        np.unpackbits(data[start:start + _SLICE]).tolist()
        for start in range(0, data.size, _SLICE)
    )
    out = bytearray(n)
    produced = 0
    code = 0
    length = 0
    consumed = 0
    for bit in bits:
        if produced == n:
            break
        code = (code << 1) | bit
        length += 1
        consumed += 1
        syms = by_length.get(length)
        if syms is not None:
            index = code - first[length]
            if 0 <= index < len(syms):
                out[produced] = syms[index]
                produced += 1
                code = 0
                length = 0
        if length > MAX_CODE_LENGTH:
            raise ValueError("corrupt Huffman blob: code word overruns table")
    if produced != n:
        raise ValueError(
            f"truncated Huffman blob: produced {produced} of {n} bytes"
        )
    expected_payload = (consumed + 7) // 8
    require_consumed(payload, expected_payload, "Huffman blob")
    padding = 8 * expected_payload - consumed
    if padding and payload[-1] & ((1 << padding) - 1):
        raise ValueError("corrupt Huffman blob: nonzero padding bits")
    return bytes(out)
