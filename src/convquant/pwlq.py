"""Piecewise-linear quantization: a dense center plus two sparse tails.

Weights of trained conv nets are bell-shaped, so a uniform quantizer wastes
most of its levels on rarely-seen magnitudes. Here the range [-m, m] with
m = max|r| is split at a breakpoint p into

* center [-p, p]: k-bit full-range symmetric quantization,
* negative tail [-m, -p): (k-1)-bit affine quantization on [-m, -p],
* positive tail (p, m]: (k-1)-bit affine quantization on [p, m].

Values with |r| == p belong to the center. Each element therefore carries a
region flag besides its integer code; ``fold_regions`` compresses the
three-way region plus tail sign into one k-bit code and a single tail bit
for storage.

The breakpoint comes either from a closed-form estimate (``breakpoint_approx``,
applied to m in units of the group's RMS) or from a grid search minimizing
reconstruction MSE, coarse then fine (``search_breakpoints``).

``group_records`` builds one :data:`RECORD` per group from its value range
and breakpoint, and ``piece_table`` the table that ``encode`` and ``decode``
read; it broadcasts against the values, so they serve any block of a tensor.
``search_breakpoints`` takes a ``(groups, group size)`` matrix, one group
per row, and scores its candidate breakpoints, coarse then fine, on one
block of rows at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BitsTooSmall,
    BreakpointOutOfRange,
    CodeOutOfDomain,
    InvalidInput,
    NonPositiveM,
)
from .uniform import (
    AFFINE,
    SYMMETRIC_FULL,
    check_bits,
    range_records,
)
from .uniform import RECORD as UNIFORM_RECORD

PWLQ = "pwlq"

CENTER = 0
NEG_TAIL = 1
POS_TAIL = 2

# Bounds on p/m keeping both regions non-empty even where the closed-form
# estimate leaves (0, 1).
RATIO_MIN = 0.05
RATIO_MAX = 0.95

DEFAULT_GRID_POINTS = 64
# The coarse scan of search_breakpoints scores lattice points COARSE_FIRST,
# COARSE_FIRST + COARSE_STEP, ...; the fine scan, those within FINE_RADIUS
# of a row's best coarse point.
COARSE_FIRST, COARSE_STEP, FINE_RADIUS = 4, 8, 7
# Elements per row block of search_breakpoints, which keeps its buffers in cache.
SEARCH_BLOCK = 8192

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


def breakpoint_approx(m: float) -> float:
    """Closed-form breakpoint estimate for bell-shaped data with max-magnitude m.

    ``m`` is in units of the data's RMS: the estimate was fitted to
    unit-variance bell curves. It is ln(0.8614 * m + 0.6079), which is
    non-positive for m below ~0.455, so the implied ratio p/m is clamped to
    [0.05, 0.95] to keep both regions alive.
    """
    if not m > 0:
        raise NonPositiveM(f"m must be positive, got {m}")
    return float(m * _clamped_ratio(m))


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


class Buffers:
    """Block-sized arrays, by name, that encode, decode and
    search_breakpoints reuse from block to block; :meth:`take` views them
    in a block's shape, growing one only for a larger block."""

    def __init__(self):
        self._arrays = {}

    def take(self, shape, dtype, *names) -> list[np.ndarray]:
        size = math.prod(shape)
        views = []
        for name in names:
            array = self._arrays.get((name, dtype))
            if array is None or array.size < size:
                array = self._arrays[name, dtype] = np.empty(size, dtype)
            views.append(array[:size].reshape(shape))
        return views


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
    # trunc(q + copysign(0.5, q)) is round_half_away(q), zero signs included.
    q += np.copysign(0.5, q, out=work)
    np.trunc(q, out=q)
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
    """Tail bits (uint8), k-bit int8 codes as :func:`fold_regions` folds
    them and the float64 decode, of x, as views into ``buffers`` valid
    until their next use. ``table`` (see :func:`piece_table`) broadcasts
    against x."""
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


def _fine_points(center: np.ndarray, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row (column), the lattice points within FINE_RADIUS of the row's
    best coarse point ``center``, the window shifted inward at the ends of
    the lattice, less ``center`` itself; and where each is not a coarse point.
    Lattice indices are whole float64 values: int64 arithmetic here would
    page in numpy loops that nothing else runs, about 0.25 MB of peak RSS."""
    width = min(2 * FINE_RADIUS + 1, grid_points)
    lo = np.clip(center - FINE_RADIUS, 1, grid_points - width + 1)
    points = lo + np.arange(width - 1.0)[:, None]
    points = np.where(points >= center, points + 1, points)
    return points, points % COARSE_STEP != COARSE_FIRST


def search_breakpoints(mat: np.ndarray, bits: int,
                       grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Per row, the breakpoint of least mean squared reconstruction error
    found by a coarse-to-fine scan of the ratios p/m.

    The lattice is the ``grid_points`` uniformly spaced interior points
    i / (grid_points + 1) of (0, 1). Each row scores the coarse points
    i = 4, 12, 20, ... (every point when grid_points < 4), then the lattice
    points within FINE_RADIUS of its best coarse point that it has not
    scored (the window shifted inward at the ends of the lattice, so it
    covers the whole lattice when grid_points <= 11), then its closed-form
    estimate (:func:`breakpoint_approx`, with m in units of the row's RMS),
    so the result is never worse than that estimate. Ties go to the smaller
    breakpoint; all-zero rows get 0. Rows are scored independently, one
    block of about SEARCH_BLOCK elements at a time.
    """
    if grid_points < 3:
        raise InvalidInput(f"grid_points must be >= 3, got {grid_points}")
    lattice = grid_points + 1
    first, step = (COARSE_FIRST, COARSE_STEP) if grid_points >= COARSE_FIRST else (1, 1)
    coarse = np.arange(first, lattice, step, dtype=np.float64)
    rows = max(1, SEARCH_BLOCK // mat.shape[1])
    p = np.zeros(len(mat))
    buffers = Buffers()
    for start in range(0, len(mat), rows):
        # Row means must sum contiguous rows, so each row's MSE, and the
        # choice it drives, matches a one-row search bit for bit.
        part = mat[start:start + rows]
        block, work = buffers.take(part.shape, np.float64, "rows", "work")
        np.copyto(block, part)
        m = np.abs(block, out=work).max(axis=1)
        live_m = np.where(m > 0, m, 1.0)
        best_err, best = np.full(len(m), np.inf), np.zeros(len(m))

        def scan(ratios, where=True):
            """Score each row of ``ratios`` (candidates, rows) where ``where`` holds."""
            records = _records(live_m, ratios * live_m, bits, first_row=start)
            tables = piece_table(records, bits)[..., None]
            for i, (ratio, use) in enumerate(zip(ratios, np.broadcast_to(where, ratios.shape))):
                *_, decoded = _pieces(block, tables[:, i], bits, buffers)
                np.subtract(block, decoded, out=decoded)
                decoded *= decoded
                err = decoded.mean(axis=1)
                take = ((err < best_err) | ((err == best_err) & (ratio < best))) & use
                np.copyto(best_err, err, where=take)
                np.copyto(best, ratio, where=take)

        scan(coarse[:, None] / lattice)
        if grid_points >= COARSE_FIRST:     # else the coarse scan took every point
            fine, new = _fine_points(np.rint(best * lattice), grid_points)
            scan(fine / lattice, new)
        sums = scaled_squares(block, m[:, None], out=work).sum(axis=1)
        scan(ratios_from_squares(m, sums, block.shape[1])[None])
        p[start:start + rows] = best * m
    return p


def fold_regions(regions, values, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-element region labels (CENTER / NEG_TAIL / POS_TAIL) and
    codes into (tail bitmap, combined k-bit int8 codes).

    Center elements carry a k-bit symmetric code and tail elements the
    (k-1)-bit affine code of their tail. A tail element's k-bit field is
    [sign bit | biased (k-1)-bit code], with sign 1 for the negative tail;
    the field is then re-biased to the signed k-bit range so combined codes
    share the center codes' domain. Works on arrays of any shape.
    """
    half = 1 << (bits - 1)
    quarter = 1 << (bits - 2)
    regions = np.asarray(regions)
    values = np.asarray(values).astype(np.int16)
    tail = regions != CENTER
    sign = (regions == NEG_TAIL).astype(np.int16) << (bits - 1)
    combined = np.where(tail, (sign | (values + quarter)) - half, values)
    return tail.astype(np.uint8), combined.astype(np.int8)


def unfold_regions(tail_bits, combined, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of fold_regions: (uint8 region labels, int8 codes), built in
    one-byte arrays."""
    half = 1 << (bits - 1)
    quarter = 1 << (bits - 2)
    tail = np.asarray(tail_bits) != 0
    combined = np.asarray(combined)
    if combined.size and (combined.min() < -half or combined.max() > half - 1):
        raise CodeOutOfDomain(f"combined code outside signed {bits}-bit range")
    # A tail element's k-bit field, its code + 2^(k-1) mod 256, is
    # [sign bit | (k-1)-bit code + 2^(k-2)], sign 1 for the negative tail.
    field = combined.astype(np.int8, copy=False).view(np.uint8) + np.uint8(half)
    regions = np.right_shift(field, bits - 1)
    np.subtract(POS_TAIL, regions, out=regions)
    regions *= tail
    field &= np.uint8(half - 1)
    field -= np.uint8(quarter)
    values = field.view(np.int8)
    np.copyto(values, combined, where=~tail, casting="unsafe")
    return regions, values
