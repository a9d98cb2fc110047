"""Sub-byte packing of signed k-bit code arrays.

Codes are biased by 2^(k-1) to unsigned and laid out little-endian: code i
occupies stream bits [i*k, (i+1)*k), where stream bit j is bit (j mod 8) of
byte j//8. Unused bits of the final byte are zero, so identical inputs give
identical bytes.

Eight k-bit codes fill exactly k bytes, so the codec works on blocks of 8
codes held in one little-endian 64-bit word: the same shifts and masks serve
every k, and only the final partial block is padded. Chunks of
8 * tensor_store.BLOCK codes go at a time through two word arrays, which a
caller that packs or unpacks a block at a time reuses from block to block
(a :class:`convquant.tensor_store.Buffers`), into one output array, which
:func:`pack_into` fills a span of codes at a time, any spans in order from 0.
A region bitmap is the same layout at k = 1, unbiased (:func:`pack_bits`).

Example, k=4: codes [1, -1] bias to [9, 7] and pack to the single byte
0x79 (low nibble 9, high nibble 7).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor_store
from .errors import InvalidInput, TruncatedData
from .tensor_store import Buffers
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


def _move_codes(words: np.ndarray, bits: int, spread: bool, tmp: np.ndarray) -> None:
    """Move the 8 codes of each word, in place, between two layouts: code j
    at bit j*8 (one code per byte, ``spread``) and code j at bit j*k
    (packed), in lanes of 16, 32 and 64 bits whose two halves join or part;
    ``tmp`` is a word array of the same shape to shift in."""
    for shift, amount, moved, kept in _lanes(bits, spread):
        shift(words, amount, out=tmp)
        tmp &= moved
        words &= kept
        words |= tmp


def _chunks(start: int, stop: int, buffers: Buffers):
    """Spans [lo, hi) of at most 8 * BLOCK codes that cover [start, stop),
    each from a whole word on, and for each a (words, 8) byte view of an
    array of ``buffers`` and a word view of another, to shift in; ``start``
    must begin a word."""
    chunk = 8 * tensor_store.BLOCK
    size = -(-min(chunk, stop - start) // 8)
    spread, tmp = buffers.take((size, 8), np.uint8, "spread", "shifted")
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        words = -(-(hi - lo) // 8)
        yield lo, hi, spread[:words], tmp[:words].reshape(-1).view("<u8")


def _pack(out: np.ndarray, start: int, values: np.ndarray, bits: int, bias: int,
          buffers: Buffers | None) -> None:
    """Pack the low ``bits`` bits of each uint8 value plus ``bias`` as values
    [start, start + len(values)) of a stream whose bytes ``out`` holds in
    whole words of 8, packed up to ``start`` with zero spare bits: the span
    ORs its codes into its first word and pads its last with zero bits."""
    bias = np.uint64(bias * 0x0101010101010101)
    rows = out.reshape(-1, bits)
    for lo, hi, blocks, tmp in _chunks(start - start % 8, start + values.size,
                                       buffers or Buffers()):
        first = max(lo, start) - lo         # the span's first value in the chunk
        biased = blocks.reshape(-1)
        biased[first:hi - lo] = values[lo + first - start:hi - start]
        words = biased.view("<u8")
        words ^= bias
        biased[:first] = biased[hi - lo:] = 0     # zero bits outside the span
        _move_codes(words, bits, False, tmp)
        if first:       # the first word holds the codes before the span
            blocks[0, :bits] |= rows[lo // 8]
        rows[lo // 8:][:len(blocks)] = blocks[:, :bits]


def pack_into(out: np.ndarray, start: int, codes: np.ndarray, bits: int,
              buffers: Buffers | None = None) -> None:
    """Pack int8 codes, each in [-2^(k-1), 2^(k-1)-1] (not checked), as
    codes [start, start + len(codes)) of a stream whose bytes ``out`` holds
    in whole words of 8 codes: any spans in order from 0, as unpack_codes
    unpacks any span. A final partial word is padded with zero bits.
    ``buffers`` holds the arrays to pack in, reused from span to span."""
    # Adding 2^(k-1) to a k-bit code flips its bit k-1; the bits above are dropped.
    _pack(out, start, codes.view(np.uint8), bits, 1 << (bits - 1), buffers)


def pack_bits(out: np.ndarray, start: int, flags: np.ndarray,
              buffers: Buffers | None = None) -> None:
    """Pack flags, each 0 or 1, as bits [start, start + len(flags)) of a
    little-endian bitmap, as :func:`pack_into` packs unbiased 1-bit codes:
    any spans, in order from bit 0."""
    _pack(out, start, flags.view(np.uint8), 1, 0, buffers)


def packed_stream(out: np.ndarray, count: int, bits: int) -> PackedCodes:
    """The first ``count`` codes that :func:`pack_into` wrote into ``out``,
    as a read-only byte view."""
    out.flags.writeable = False
    return PackedCodes(bits, count, memoryview(out[:_packed_length(count, bits)]))


def _unpack(raw: np.ndarray, bits: int, bias: int, start: int, stop: int,
            out: np.ndarray, buffers: Buffers | None) -> np.ndarray:
    """The values [start, stop) of the stream of ``bits``-bit values less
    ``bias`` whose bytes are ``raw``, as the bytes of ``out``.

    Unpacking begins at the word that holds value ``start``. Spare bytes of
    the word buffer are not cleared: spreading a word drops its bytes past
    the k packed ones, and values past the stream's end are not copied out.
    """
    full = raw.size // bits
    rows, tail = raw[:full * bits].reshape(full, bits), raw[full * bits:]
    for lo, hi, blocks, tmp in _chunks(start - start % 8, stop, buffers or Buffers()):
        part = rows[lo // 8:][:len(blocks)]
        blocks[:len(part), :bits] = part
        blocks[len(part):, :tail.size] = tail      # the final partial word
        biased = blocks.reshape(-1)
        _move_codes(biased.view("<u8"), bits, True, tmp)
        first = max(lo, start)
        np.subtract(biased[first - lo:hi - lo], np.uint8(bias),
                    out=out[first - start:hi - start].view(np.uint8))
    return out


def unpack_codes(packed: PackedCodes, start: int = 0, stop: int | None = None,
                 out: np.ndarray | None = None, buffers: Buffers | None = None) -> np.ndarray:
    """Exact inverse of pack_into: the int8 codes [start, stop) of the
    stream (all of them by default), in ``out`` when it is given, unpacked
    in the arrays of ``buffers`` when it is given."""
    stop = packed.count if stop is None else stop
    if not 0 <= start <= stop <= packed.count:
        raise InvalidInput(f"codes [{start}, {stop}) outside a stream of {packed.count}")
    out = np.empty(stop - start, dtype=np.int8) if out is None else out
    return _unpack(np.frombuffer(packed.data, dtype=np.uint8), packed.bits,
                   1 << (packed.bits - 1), start, stop, out, buffers)


def unpack_bits(bitmap: np.ndarray, start: int, stop: int, out: np.ndarray,
                buffers: Buffers | None = None) -> np.ndarray:
    """Bits [start, stop) of the little-endian uint8 ``bitmap``, each 0 or 1,
    in the uint8 ``out``: the inverse of :func:`pack_bits`."""
    return _unpack(bitmap, 1, 0, start, stop, out, buffers)
