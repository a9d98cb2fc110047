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
and breakpoint, and ``encode`` and ``decode`` take records that broadcast
against the values, so they serve any block of a tensor.
``search_breakpoints`` takes a ``(groups, group size)`` matrix, one group
per row, and scores its candidate breakpoints, coarse then fine, on one
block of rows at a time.
"""

from __future__ import annotations

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
    round_codes,
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


def _approx_ratios(mat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Closed-form p/m of every row, ``m`` holding the rows' max magnitudes."""
    return ratios_from_squares(m, scaled_squares(mat, m[:, None]).sum(axis=1),
                               mat.shape[1])


def _records(m: np.ndarray, p: np.ndarray, bits: int, first_row: int = 0) -> np.ndarray:
    """Records of groups with max magnitudes ``m`` and breakpoints ``p``.

    ``p`` may hold one row per candidate; its last axis indexes the groups,
    which error messages number from ``first_row``.
    """
    check_bits(bits, piecewise=True, error=BitsTooSmall)
    m, p = np.broadcast_arrays(m, p)
    bad = np.argwhere(~((0 < p) & (p < m)))
    if bad.size:
        i = tuple(bad[0])
        raise BreakpointOutOfRange(f"group {first_row + i[-1]}: need 0 < p < m, "
                                   f"got p={p[i]}, m={m[i]}")
    shape, m, p = p.shape, m.ravel(), p.ravel()
    records = np.zeros(len(m), RECORD)
    records["kind"] = PWLQ_KIND
    records["bits"] = bits
    records["m"], records["p"] = m, p
    records["center"] = range_records(SYMMETRIC_FULL, bits, -p, p)
    records["neg_tail"] = range_records(AFFINE, bits - 1, -m, -p)
    records["pos_tail"] = range_records(AFFINE, bits - 1, p, m)
    return records.reshape(shape)


def _piece_field(records, field: str, neg, pos, out=None) -> np.ndarray:
    """Per-element ``field`` (into ``out``, when given) of each element's
    piece: the tail that ``neg`` or ``pos`` marks, else the center.
    ``records`` broadcasts against the masks."""
    out = np.empty(neg.shape) if out is None else out
    for piece, where in zip(PIECES, (True, neg, pos)):
        np.copyto(out, records[piece][field], where=where)
    return out


def _codes(mat, scale, zero_point, tail, bits: int, out=None, scratch=None) -> np.ndarray:
    """Float codes ``clip(round_half_away(mat / scale + zero_point))``, k-bit
    in the center and (k-1)-bit where ``tail``, in ``out`` when given."""
    q = np.divide(mat, scale, out=out)
    q += zero_point
    half, quarter = 1 << (bits - 1), 1 << (bits - 2)
    round_codes(q, -half, half - 1, scratch)
    return np.clip(q, -quarter, quarter - 1, out=q, where=tail)


def encode(x: np.ndarray, records: np.ndarray,
           bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Region labels, per-region int8 codes (k-bit center, (k-1)-bit tails)
    and their float64 decode, of x. ``records`` broadcasts against x."""
    p = records["p"]
    neg, pos = x < -p, x > p
    regions = np.zeros(x.shape, dtype=np.uint8)
    regions[neg] = NEG_TAIL
    regions[pos] = POS_TAIL
    scale = _piece_field(records, "scale", neg, pos)
    zero_point = _piece_field(records, "zero_point", neg, pos)
    # The scale is spent once divided by, so it serves as the scratch, and
    # is gathered again for the decode.
    codes = _codes(x, scale, zero_point, neg | pos, bits, scratch=scale)
    int_codes = codes.astype(np.int8)
    # Decoding the float codes is exact: they are integers in [-128, 127].
    codes -= zero_point
    codes *= _piece_field(records, "scale", neg, pos, out=scale)
    return regions, int_codes, codes


def decode(records: np.ndarray, regions: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """uniform.decode's ``(codes - zero_point) * scale`` in float64, each
    element with the record of its region. ``records`` broadcasts against
    the codes."""
    neg, pos = regions == NEG_TAIL, regions == POS_TAIL
    scale = _piece_field(records, "scale", neg, pos)
    # Computed in the zero-point array, so that one float64 array fewer is live.
    out = _piece_field(records, "zero_point", neg, pos)
    np.subtract(codes, out, out=out)
    out *= scale
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
    records = _records(np.where(zero, 1.0, m), np.where(zero, 0.5, p), bits)
    if zero.any():
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
    for start in range(0, len(mat), rows):
        # Row means must sum contiguous rows, so each row's MSE, and the
        # choice it drives, matches a one-row search bit for bit.
        block = np.ascontiguousarray(mat[start:start + rows], dtype=np.float64)
        m = np.abs(block).max(axis=1)
        live_m = np.where(m > 0, m, 1.0)
        neg, pos, tail = (np.empty(block.shape, bool) for _ in range(3))
        scale, zero_point, codes, scratch = (np.empty(block.shape) for _ in range(4))
        best_err, best = np.full(len(m), np.inf), np.zeros(len(m))

        def scan(ratios, where=True):
            """Score each row of ``ratios`` (candidates, rows) where ``where`` holds."""
            records = _records(live_m, ratios * live_m, bits, first_row=start)
            for rec, ratio, use in zip(records[:, :, None], ratios,
                                       np.broadcast_to(where, ratios.shape)):
                np.less(block, -rec["p"], out=neg)
                np.greater(block, rec["p"], out=pos)
                np.logical_or(neg, pos, out=tail)
                _piece_field(rec, "scale", neg, pos, scale)
                _piece_field(rec, "zero_point", neg, pos, zero_point)
                q = _codes(block, scale, zero_point, tail, bits, codes, scratch)
                # Decoding the float codes is exact: they are integers in [-128, 127].
                q -= zero_point
                q *= scale
                np.subtract(block, q, out=q)
                q *= q
                err = q.mean(axis=1)
                take = ((err < best_err) | ((err == best_err) & (ratio < best))) & use
                np.copyto(best_err, err, where=take)
                np.copyto(best, ratio, where=take)

        scan(coarse[:, None] / lattice)
        if grid_points >= COARSE_FIRST:     # else the coarse scan took every point
            fine, new = _fine_points(np.rint(best * lattice), grid_points)
            scan(fine / lattice, new)
        scan(_approx_ratios(block, m)[None])
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
