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

import functools
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


@functools.cache
def _lanes(bits: int, spread: bool) -> tuple:
    """The steps of :func:`_move_codes`, one per lane size: the shift, its
    amount, and the masks of the codes it moves and of those it keeps."""
    steps = []
    for codes in (4, 2, 1) if spread else (1, 2, 4):
        width, half = codes * bits, codes * 8       # lanes of 2 * half bits
        mask = ((1 << width) - 1) * sum(1 << i for i in range(0, 64, 2 * half))
        shift, moved = (np.left_shift, half) if spread else (np.right_shift, width)
        steps.append((shift, np.uint64(half - width), np.uint64(mask << moved),
                      np.uint64(mask)))
    return tuple(steps)


def _move_codes(words: np.ndarray, bits: int, spread: bool) -> None:
    """Move the 8 codes of each word, in place, between two layouts: code j
    at bit j*8 (one code per byte, ``spread``) and code j at bit j*k
    (packed), in lanes of 16, 32 and 64 bits whose two halves join or part."""
    tmp = np.empty_like(words)
    for shift, amount, moved, kept in _lanes(bits, spread):
        shift(words, amount, out=tmp)
        tmp &= moved
        words &= kept
        words |= tmp


def _chunks(start: int, stop: int):
    """Spans [lo, hi) of at most 8 * BLOCK codes that cover [start, stop),
    each from a whole word on, and for each a (words, 8) view of one reused
    byte buffer; ``start`` must begin a word."""
    chunk = 8 * tensor_store.BLOCK
    buf = np.empty(-(-min(chunk, stop - start) // 8) * 8, dtype=np.uint8)
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        yield lo, hi, buf[:-(-(hi - lo) // 8) * 8].reshape(-1, 8)


def pack_codes(codes, bits: int) -> PackedCodes:
    """Pack signed codes in [-2^(k-1), 2^(k-1)-1] into a read-only byte view."""
    check_bits(bits, error=InvalidInput)
    codes = np.ravel(codes)
    half = 1 << (bits - 1)
    out = np.empty(-(-codes.size // 8) * bits, dtype=np.uint8)
    for start, stop, blocks in _chunks(0, codes.size):
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


def unpack_codes(packed: PackedCodes, start: int = 0, stop: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of pack_codes: the int8 codes [start, stop) of the
    stream (all of them by default), in ``out`` when it is given.

    Unpacking begins at the word that holds code ``start``. Spare bytes of
    the word buffer are not cleared: spreading a word drops its bytes past
    the k packed ones, and codes past the stream's end are not copied out.
    """
    bits = packed.bits
    stop = packed.count if stop is None else stop
    if not 0 <= start <= stop <= packed.count:
        raise InvalidInput(f"codes [{start}, {stop}) outside a stream of {packed.count}")
    raw = np.frombuffer(packed.data, dtype=np.uint8)
    full = raw.size // bits
    rows, tail = raw[:full * bits].reshape(full, bits), raw[full * bits:]
    out = np.empty(stop - start, dtype=np.int8) if out is None else out
    for lo, hi, blocks in _chunks(start - start % 8, stop):
        part = rows[lo // 8:][:len(blocks)]
        blocks[:len(part), :bits] = part
        blocks[len(part):, :tail.size] = tail      # the final partial word
        biased = blocks.reshape(-1)
        _move_codes(biased.view("<u8"), bits, spread=True)
        first = max(lo, start)
        np.subtract(biased[first - lo:hi - lo], np.uint8(1 << (bits - 1)),
                    out=out[first - start:hi - start].view(np.uint8))
    return out
