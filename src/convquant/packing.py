"""Sub-byte packing of signed k-bit code arrays.

Codes are biased by 2^(k-1) to unsigned and laid out little-endian: code i
occupies stream bits [i*k, (i+1)*k), where stream bit j is bit (j mod 8) of
byte j//8. Unused bits of the final byte are zero, so identical inputs give
identical bytes.

Eight k-bit codes fill exactly k bytes, so the codec works on blocks of 8
codes held in one little-endian 64-bit word: the same shifts and masks serve
every k, and only the final partial block is padded.

Example, k=4: codes [1, -1] bias to [9, 7] and pack to the single byte
0x79 (low nibble 9, high nibble 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _move_codes(words: np.ndarray, bits: int, spread: bool) -> np.ndarray:
    """Move the 8 codes of each word between two layouts: code j at bit j*8
    (one code per byte, ``spread``) and code j at bit j*k (packed)."""
    mask = (1 << bits) - 1
    out = words & np.uint64(mask)
    tmp = np.empty_like(words)
    shift, stride = (np.left_shift, 8) if spread else (np.right_shift, bits)
    for j in range(1, 8):
        shift(words, np.uint64(j * (8 - bits)), out=tmp)
        tmp &= np.uint64(mask << stride * j)
        out |= tmp
    return out


def pack_codes(codes, bits: int) -> PackedCodes:
    """Pack signed codes in [-2^(k-1), 2^(k-1)-1] into a byte stream."""
    check_bits(bits, error=InvalidInput)
    codes = np.asarray(codes)
    if codes.dtype != np.int8:
        codes = codes.astype(np.int64)
    half = 1 << (bits - 1)
    if codes.size == 0:
        return PackedCodes(bits, 0, b"")
    if codes.min() < -half or codes.max() > half - 1:
        raise CodeOutOfDomain(f"code outside [{-half}, {half - 1}]")
    count = int(codes.size)
    blocks = -(-count // 8)
    biased = np.zeros(blocks * 8, dtype=np.uint8)     # zero padding: zero spare bits
    biased[:count] = codes.ravel()                      # wraps to the code mod 256
    biased[:count] += np.uint8(half)                    # wraps to code + half
    words = _move_codes(biased.view("<u8"), bits, spread=False)
    data = words.view(np.uint8).reshape(blocks, 8)[:, :bits].tobytes()
    return PackedCodes(bits, count, data[:_packed_length(count, bits)])


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Exact inverse of pack_codes; returns int8 codes."""
    count, bits = packed.count, packed.bits
    if count == 0:
        return np.zeros(0, dtype=np.int8)
    raw = np.frombuffer(packed.data, dtype=np.uint8)
    full = count // 8
    blocks = np.zeros((-(-count // 8), 8), dtype=np.uint8)
    blocks[:full, :bits] = raw[:full * bits].reshape(full, bits)
    tail = raw[full * bits:]
    blocks[full:, :tail.size] = tail
    biased = _move_codes(blocks.view("<u8").ravel(), bits, spread=True).view(np.uint8)
    biased -= np.uint8(1 << (bits - 1))
    return biased[:count].view(np.int8)
