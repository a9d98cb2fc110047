"""Sub-byte packing of signed k-bit code arrays.

Codes are biased by 2^(k-1) to unsigned and laid out little-endian: code i
occupies stream bits [i*k, (i+1)*k), where stream bit j is bit (j mod 8) of
byte j//8. Unused bits of the final byte are zero, so identical inputs give
identical bytes.

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
    """A packed stream of ``count`` signed ``bits``-bit codes."""

    bits: int
    count: int
    data: bytes

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
    biased = codes.astype(np.uint8) + np.uint8(half)    # wraps to code + half
    code_bits = np.unpackbits(biased[:, None], axis=1, count=bits, bitorder="little")
    data = np.packbits(code_bits.reshape(-1), bitorder="little").tobytes()
    return PackedCodes(bits, int(codes.size), data)


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Exact inverse of pack_codes; returns int8 codes."""
    if packed.count == 0:
        return np.zeros(0, dtype=np.int8)
    raw = np.frombuffer(packed.data, dtype=np.uint8)
    stream = np.unpackbits(raw, count=packed.count * packed.bits, bitorder="little")
    per_code = stream.reshape(packed.count, packed.bits)
    biased = np.packbits(per_code, axis=1, bitorder="little").ravel()
    return (biased - np.uint8(1 << (packed.bits - 1))).view(np.int8)
