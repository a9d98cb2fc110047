"""Piecewise-linear quantization: a dense center plus two sparse tails.

Weights of trained conv nets are bell-shaped, so a uniform quantizer wastes
most of its levels on rarely-seen magnitudes. Here the range [-m, m] with
m = max|r| is split at a breakpoint p into

* center [-p, p]: k-bit full-range symmetric quantization,
* negative tail [-m, -p): (k-1)-bit affine quantization on [-m, -p],
* positive tail (p, m]: (k-1)-bit affine quantization on [p, m].

Values with |r| == p belong to the center. Each element is stored as one
k-bit code, folded from its piece's code, and a tail bit.

The breakpoint comes either from a closed form in m over the group's RMS
(``ratios_from_squares``) or from a search for the least squared
reconstruction error, which :mod:`convquant.granularity` runs on a tensor's
blocks with these kernels.

``group_records`` builds one :data:`RECORD` per group from its value range
and breakpoint, and ``piece_table`` the table that ``encode`` and ``decode``
read; it broadcasts against the values, so they serve any block of a tensor.
"""

from __future__ import annotations

import numpy as np

from .errors import BitsTooSmall, BreakpointOutOfRange
from .tensor_store import Buffers
from .uniform import (
    AFFINE,
    SYMMETRIC_FULL,
    check_bits,
    range_records,
    round_half_away,
)
from .uniform import RECORD as UNIFORM_RECORD

PWLQ = "pwlq"

# Bounds on p/m keeping both regions non-empty even where the closed-form
# estimate leaves (0, 1).
RATIO_MIN = 0.05
RATIO_MAX = 0.95

DEFAULT_GRID_POINTS = 64

PWLQ_KIND = 3
# Sub-records of a piecewise record, indexed by region.
PIECES = ("center", "neg_tail", "pos_tail")

# One group's parameters: the fields of a qnt/1 piecewise record, float64 in
# memory. ``kind`` is PWLQ_KIND, or the uniform kind of a degenerate group
# (no nonzero value), whose uniform record then sits in ``center``.
RECORD = np.dtype([("kind", "u1"), ("bits", "u1"), ("m", "f8"), ("p", "f8"),
                   *((piece, UNIFORM_RECORD) for piece in PIECES)])


def _clamped_ratio(m):
    """Closed-form p/m for max magnitude ``m``, clamped to [RATIO_MIN, RATIO_MAX]."""
    return np.clip(np.log(0.8614 * m + 0.6079) / m, RATIO_MIN, RATIO_MAX)


def scaled_squares(x, m, out=None) -> np.ndarray:
    """``(x / 2**e) ** 2``, with 2**e the power of two that scales the max
    magnitude ``m`` of x's group into [0.5, 1); ``m`` broadcasts against x.
    The scaling is exact, and it keeps squares of tiny values from
    underflowing the RMS to 0."""
    out = np.ldexp(x, -np.frexp(m)[1], out=out)
    out *= out
    return out


def ratios_from_squares(m: np.ndarray, sums: np.ndarray, size: int) -> np.ndarray:
    """Closed-form p/m of groups of ``size`` values with max magnitudes
    ``m`` and sums ``sums`` of :func:`scaled_squares`: m in units of the
    group's RMS, which scaling a group by a power of two leaves unchanged.
    All-zero groups (m = 0) get the ratio at m = 1."""
    rms = np.sqrt(sums / size)
    return _clamped_ratio(np.divide(np.ldexp(m, -np.frexp(m)[1]), rms,
                                    out=np.ones_like(m), where=m > 0))


def _records(m: np.ndarray, p: np.ndarray, bits: int, first_row: int = 0) -> np.ndarray:
    """Records of groups with max magnitudes ``m`` and breakpoints ``p``.

    ``p`` may hold one row per candidate; its last axis indexes the groups,
    which error messages number from ``first_row``.
    """
    check_bits(bits, piecewise=True, error=BitsTooSmall)
    m, p = np.broadcast_arrays(m, p)
    inside = (0 < p) & (p < m)
    if not inside.all():
        i = tuple(np.argwhere(~inside)[0])
        raise BreakpointOutOfRange(f"group {first_row + i[-1]}: need 0 < p < m, "
                                   f"got p={p[i]}, m={m[i]}")
    shape, m, p = p.shape, m.ravel(), p.ravel()
    records = np.zeros(len(m), RECORD)
    records["kind"] = PWLQ_KIND
    records["bits"] = bits
    records["m"], records["p"] = m, p
    range_records(SYMMETRIC_FULL, bits, -p, p, out=records["center"])
    range_records(AFFINE, bits - 1, -m, -p, out=records["neg_tail"])
    range_records(AFFINE, bits - 1, p, m, out=records["pos_tail"])
    return records.reshape(shape)


def piece_table(records: np.ndarray, bits: int) -> np.ndarray:
    """The ``(5, *records.shape)`` float64 table that encode and decode
    read: per group, p, the center scale, the scale both tails share (both
    are fl(m - p) / (2^(k-1) - 1)) and the zero-points of the tails' folded
    codes, which are the negative tail record's + 2^(k-2) and the positive
    one's - 2^(k-2); the center's is 0. A degenerate group gets its
    center's scale and zero-points 0 in the tails, so that it decodes as its
    uniform record does, whatever its region bits say.
    """
    quarter = 1 << (bits - 2)
    table = np.empty((5, *records.shape))
    table[0] = records["p"]
    table[1] = records["center"]["scale"]
    table[2] = records["pos_tail"]["scale"]
    np.add(records["neg_tail"]["zero_point"], quarter, out=table[3])
    np.subtract(records["pos_tail"]["zero_point"], quarter, out=table[4])
    degenerate = records["kind"] != PWLQ_KIND
    if degenerate.any():
        table[2][degenerate] = table[1][degenerate]
        table[3][degenerate] = table[4][degenerate] = 0.0
    return table


def _select(flags, values, out) -> np.ndarray:
    """``flags * values`` in ``out``, without the cast buffer that a
    bool-by-float ufunc allocates."""
    np.copyto(out, flags)
    out *= values
    return out


def _scale(tail, center_scale, tail_scale, out, work) -> np.ndarray:
    """Each element's scale in ``out``: (1 - tail) * center scale + tail *
    tail scale, which is exact, as a * 1 + b * 0 == a for finite a, b."""
    np.copyto(out, tail)
    np.subtract(1.0, out, out=out)
    out *= center_scale
    out += _select(tail, tail_scale, work)
    return out


def _pieces(x, table, bits: int, buffers: Buffers, fold: bool = False):
    """Per element of x, in ``buffers``: its tail flag, its negative-tail
    flag (with ``fold``, its folded int8 code in their bytes instead) and
    the float64 decode of its code, x / scale + zero_point rounded half
    away from zero and clipped to its piece's domain. Pieces are selected
    by exact arithmetic on the flags, with no masked operation; one clip
    to per-element bounds stands for the k-bit one and the tails' (k-1)-bit
    one within it. The scale is built twice so that three float64 blocks
    serve.
    """
    p, center_scale, tail_scale, neg_zero, pos_zero = table
    half, quarter = 1 << (bits - 1), 1 << (bits - 2)
    tail, neg = buffers.take(x.shape, np.bool_, "tail", "neg")
    work, q, decoded = buffers.take(x.shape, np.float64, "work", "q", "decoded")
    np.greater(np.abs(x, out=work), p, out=tail)
    np.logical_and(np.less(x, 0.0, out=neg), tail, out=neg)     # x < -p
    np.divide(x, _scale(tail, center_scale, tail_scale, work, q), out=q)
    # The records' zero-points: tail * z_pos + neg * (z_neg - z_pos).
    zero = _select(tail, pos_zero + quarter, decoded)
    zero += _select(neg, neg_zero - pos_zero - half, work)
    q += zero
    round_half_away(q, out=q, scratch=work)
    bound = _select(tail, quarter, work)
    bound -= half                           # -2^(k-1), or -2^(k-2) in a tail
    np.maximum(q, bound, out=q)
    np.subtract(-1.0, bound, out=bound)     # 2^(k-1) - 1, or 2^(k-2) - 1 in a tail
    np.minimum(q, bound, out=q)
    np.subtract(q, zero, out=decoded)
    if fold:
        # + 2^(k-2) in the negative tail, - 2^(k-2) in the positive one.
        q += _select(neg, half, work)
        q -= _select(tail, quarter, work)
        neg = neg.view(np.int8)
        np.copyto(neg, q, casting="unsafe")
    decoded *= _scale(tail, center_scale, tail_scale, work, q)
    return tail, neg, decoded


def encode(x: np.ndarray, table: np.ndarray, bits: int,
           buffers: Buffers | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tail bits (uint8), folded k-bit int8 codes (in a tail, its (k-1)-bit
    code under a sign bit, 1 for the negative tail, shifted into the signed
    k-bit range) and the float64 decode, of x, as views into ``buffers``
    valid until their next use. ``table`` (see :func:`piece_table`)
    broadcasts against x."""
    buffers = Buffers() if buffers is None else buffers
    tail, codes, decoded = _pieces(x, table, bits, buffers, fold=True)
    return tail.view(np.uint8), codes, decoded


def decode(table: np.ndarray, tail_bits: np.ndarray, codes: np.ndarray,
           buffers: Buffers | None = None) -> np.ndarray:
    """float64 ``(code - zero_point) * scale`` of the tail bits and folded
    codes that :func:`encode` gives, with each element's piece from
    ``table``, as a view into ``buffers``. A tail code >= 0 is in the
    negative tail."""
    buffers = Buffers() if buffers is None else buffers
    _, center_scale, tail_scale, neg_zero, pos_zero = table
    tail, neg = buffers.take(codes.shape, np.bool_, "tail", "neg")
    out, work = buffers.take(codes.shape, np.float64, "q", "work")
    np.not_equal(tail_bits, 0, out=tail)
    np.logical_and(np.greater_equal(codes, 0, out=neg), tail, out=neg)
    np.copyto(out, codes)
    out -= _select(neg, neg_zero, work)
    out -= _select(np.logical_xor(tail, neg, out=neg), pos_zero, work)
    # (1 - tail) * v * center scale + tail * v * tail scale, exact too.
    np.multiply(out, center_scale, out=work)
    work *= np.logical_not(tail, out=neg)
    out *= tail_scale
    out *= tail
    out += work
    return out


def group_records(bits: int, vmin: np.ndarray, vmax: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One record per group, for groups whose values span [vmin, vmax],
    split at breakpoints ``p``.

    A group with no nonzero value has nothing to split: its ``p`` is ignored
    and it gets, in ``center``, the degenerate affine record that
    :func:`convquant.uniform.range_records` gives a point range (kind 0,
    s = 1, z = 0, clip range [0, 0]).
    """
    m = np.maximum(vmax, -vmin)
    zero = m == 0
    if not zero.any():
        return _records(m, p, bits)
    records = _records(np.where(zero, 1.0, m), np.where(zero, 0.5, p), bits)
    records[zero] = np.zeros(1, RECORD)
    records["bits"][zero] = bits
    records["center"][zero] = range_records(AFFINE, bits, vmin[zero], vmin[zero])
    return records
