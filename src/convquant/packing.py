"""Sub-byte packing of signed k-bit code arrays.

Codes are biased by 2^(k-1) to unsigned and laid out little-endian: code i
occupies stream bits [i*k, (i+1)*k), where stream bit j is bit (j mod 8) of
byte j//8. Unused bits of the final byte are zero, so identical inputs give
identical bytes.

Eight k-bit codes fill exactly k bytes, so the codec works on blocks of 8
codes held in one little-endian 64-bit word: the same shifts and masks serve
every k, and only the final partial block is padded. Chunks of
8 * tensor_store.BLOCK codes go at a time into one output array.

Example, k=4: codes [1, -1] bias to [9, 7] and pack to the single byte
0x79 (low nibble 9, high nibble 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_store
from .errors import CodeOutOfDomain, InvalidInput, TruncatedData
from .uniform import check_bits


def _packed_length(count: int, bits: int) -> int:
    return -(-count * bits // 8)


@dataclass(frozen=True)
class PackedCodes:
    """A packed stream of ``count`` signed ``bits``-bit codes; ``data`` is
    bytes or a read-only view of them, such as a section of a container file."""

    bits: int
    count: int
    data: bytes | memoryview

    def __post_init__(self):
        check_bits(self.bits, error=InvalidInput)
        if self.count < 0:
            raise InvalidInput("count must be non-negative")
        expected = _packed_length(self.count, self.bits)
        if len(self.data) < expected:
            raise TruncatedData(
                f"{len(self.data)} bytes < {expected} needed for "
                f"{self.count} x {self.bits}-bit codes")
        if len(self.data) > expected:
            raise InvalidInput(f"{len(self.data)} bytes for {expected} expected")


def _move_codes(words: np.ndarray, bits: int, spread: bool) -> None:
    """Move the 8 codes of each word, in place, between two layouts: code j
    at bit j*8 (one code per byte, ``spread``) and code j at bit j*k
    (packed), in lanes of 16, 32 and 64 bits whose two halves join or part."""
    tmp = np.empty_like(words)
    for codes in (4, 2, 1) if spread else (1, 2, 4):
        width, half = codes * bits, codes * 8       # lanes of 2 * half bits
        mask = ((1 << width) - 1) * sum(1 << i for i in range(0, 64, 2 * half))
        shift, moved = (np.left_shift, half) if spread else (np.right_shift, width)
        shift(words, np.uint64(half - width), out=tmp)
        tmp &= np.uint64(mask << moved)
        words &= np.uint64(mask)
        words |= tmp


def _chunks(count: int):
    """Spans [start, stop) of at most 8 * BLOCK codes, each starting on a
    whole word, and for each a (words, 8) view of one reused byte buffer."""
    chunk = 8 * tensor_store.BLOCK
    buf = np.empty(-(-min(chunk, count) // 8) * 8, dtype=np.uint8)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        yield start, stop, buf[:-(-(stop - start) // 8) * 8].reshape(-1, 8)


def pack_codes(codes, bits: int) -> PackedCodes:
    """Pack signed codes in [-2^(k-1), 2^(k-1)-1] into a read-only byte view."""
    check_bits(bits, error=InvalidInput)
    codes = np.ravel(codes)
    half = 1 << (bits - 1)
    out = np.empty(-(-codes.size // 8) * bits, dtype=np.uint8)
    for start, stop, blocks in _chunks(codes.size):
        chunk = codes[start:stop]
        if chunk.dtype != np.int8:
            chunk = chunk.astype(np.int64, copy=False)
        if chunk.min() < -half or chunk.max() > half - 1:
            raise CodeOutOfDomain(f"code outside [{-half}, {half - 1}]")
        biased = blocks.reshape(-1)
        biased[:stop - start] = chunk       # wraps to the code mod 256
        biased += np.uint8(half)            # wraps to code + half
        biased[stop - start:] = 0           # zero padding: zero spare bits
        _move_codes(biased.view("<u8"), bits, spread=False)
        out.reshape(-1, bits)[start // 8:][:len(blocks)] = blocks[:, :bits]
    out.flags.writeable = False
    return PackedCodes(bits, codes.size, memoryview(out[:_packed_length(codes.size, bits)]))


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Exact inverse of pack_codes; returns int8 codes."""
    count, bits = packed.count, packed.bits
    raw = np.frombuffer(packed.data, dtype=np.uint8)
    full = raw.size // bits
    rows, tail = raw[:full * bits].reshape(full, bits), raw[full * bits:]
    out = np.empty(count, dtype=np.int8)
    for start, stop, blocks in _chunks(count):
        part = rows[start // 8:][:len(blocks)]
        blocks[:] = 0
        blocks[:len(part), :bits] = part
        blocks[len(part):, :tail.size] = tail      # the final partial word
        biased = blocks.reshape(-1)
        _move_codes(biased.view("<u8"), bits, spread=True)
        np.subtract(biased[:stop - start], np.uint8(1 << (bits - 1)),
                    out=out[start:stop].view(np.uint8))
    return out
