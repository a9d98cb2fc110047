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
reconstruction MSE (``search_breakpoints``).

As in the uniform module, a tensor is handled a whole ``(groups, group
size)`` matrix at a time, one group per row: ``quantize_rows`` builds one
:data:`RECORD` per row and encodes every row, ``dequantize_rows`` decodes
them, and ``search_breakpoints`` scores each candidate breakpoint over all
rows at once.
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
    decode,
    encode,
    range_records,
    row_extremes,
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


def _approx_ratios(mat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Closed-form p/m of every row, with its max magnitude ``m`` in units of
    the row's RMS; scaling a row by a power of two leaves its ratio unchanged.
    All-zero rows (m = 0) get the ratio at m = 1.

    Each row is first scaled exactly by a power of two to a max magnitude in
    [0.5, 1), so that squaring tiny values cannot underflow the RMS to 0."""
    e = np.frexp(m)[1]
    scaled = np.ldexp(mat, -e[:, None])
    scaled *= scaled
    rms = np.sqrt(scaled.mean(axis=1))
    return _clamped_ratio(np.divide(np.ldexp(m, -e), rms, out=np.ones_like(m),
                                    where=m > 0))


def _records(m: np.ndarray, p: np.ndarray, bits: int) -> np.ndarray:
    """Records of groups with max magnitudes ``m`` and breakpoints ``p``."""
    check_bits(bits, piecewise=True, error=BitsTooSmall)
    bad = np.flatnonzero(~((0 < p) & (p < m)))
    if bad.size:
        g = int(bad[0])
        raise BreakpointOutOfRange(f"group {g}: need 0 < p < m, got p={p[g]}, m={m[g]}")
    records = np.zeros(len(m), RECORD)
    records["kind"] = PWLQ_KIND
    records["bits"] = bits
    records["m"], records["p"] = m, p
    records["center"] = range_records(SYMMETRIC_FULL, bits, -p, p)
    records["neg_tail"] = range_records(AFFINE, bits - 1, -m, -p)
    records["pos_tail"] = range_records(AFFINE, bits - 1, p, m)
    return records


def _region_params(records: np.ndarray, regions: np.ndarray):
    """Per-element scale and zero-point, taken from each element's region piece."""
    return tuple(np.take_along_axis(np.stack([records[piece][field] for piece in PIECES],
                                             axis=1), regions, axis=1)
                 for field in ("scale", "zero_point"))


def _encode(mat: np.ndarray, records: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Region labels and per-region int8 codes of every row: k-bit center
    codes, (k-1)-bit tail codes."""
    p = records["p"][:, None]
    regions = np.zeros(mat.shape, dtype=np.uint8)
    regions[mat < -p] = NEG_TAIL
    regions[mat > p] = POS_TAIL
    tail = regions != CENTER
    half, quarter = 1 << (bits - 1), 1 << (bits - 2)
    lo = np.where(tail, np.int8(-quarter), np.int8(-half))
    hi = np.where(tail, np.int8(quarter - 1), np.int8(half - 1))
    return regions, encode(mat, *_region_params(records, regions), lo, hi)


def dequantize_rows(records: np.ndarray, regions: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Decode region-tagged (groups, size) codes, one record per row.

    A row's codes use the record of their region; a degenerate row keeps
    its uniform record in ``center`` and all its elements in that region.
    """
    return decode(codes, *_region_params(records, regions))


def quantize_rows(mat: np.ndarray, bits: int, p: np.ndarray):
    """Split each row of a (groups, size) matrix at its breakpoint and encode it.

    ``p`` holds one breakpoint per row. A row with no nonzero value has
    nothing to split: its ``p`` is ignored and it gets, in ``center``, the
    degenerate affine record of :func:`convquant.uniform.quantize_rows`
    (kind 0, s = 1, z = 0, clip range [0, 0]). Returns (records, regions,
    int8 codes).
    """
    vmin, vmax = row_extremes(mat)
    m = np.maximum(vmax, -vmin)
    zero = m == 0
    records = _records(np.where(zero, 1.0, m), np.where(zero, 0.5, p), bits)
    regions, codes = _encode(mat, records, bits)
    if zero.any():
        records[zero] = np.zeros(1, RECORD)
        records["bits"][zero] = bits
        records["center"][zero] = range_records(AFFINE, bits, vmin[zero], vmin[zero])
    return records, regions, codes


def row_breakpoints(mat: np.ndarray, bits: int, mode: str,
                    grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """One breakpoint per row, 0 for all-zero rows.

    ``mode`` is ``approx`` (the closed form of :func:`breakpoint_approx`,
    with m in units of the row's RMS) or ``bruteforce``
    (:func:`search_breakpoints`).
    """
    m = np.abs(mat).max(axis=1)
    if mode == "approx":
        return m * _approx_ratios(mat, m)
    live = m > 0
    p = np.zeros(len(m))
    p[live] = search_breakpoints(mat[live], bits, grid_points)
    return p


def _row_mse(mat: np.ndarray, bits: int, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    records = _records(m, p, bits)
    regions, codes = _encode(mat, records, bits)
    diff = dequantize_rows(records, regions, codes)
    np.subtract(mat, diff, out=diff)
    diff *= diff
    return diff.mean(axis=1)


def search_breakpoints(mat: np.ndarray, bits: int,
                       grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Per row, the breakpoint minimizing mean squared reconstruction error.

    Candidate ratios p/m are ``grid_points`` uniformly spaced interior points
    of (0, 1) plus the row's closed-form estimate, so the result is never
    worse than ``row_breakpoints(mat, bits, "approx")``. Each candidate is scored over all rows
    at once; ties go to the smaller breakpoint. Rows must hold a nonzero value.
    """
    if grid_points < 3:
        raise InvalidInput(f"grid_points must be >= 3, got {grid_points}")
    # Row means must sum contiguous rows, so each row's MSE, and the choice
    # it drives, matches a one-row search bit for bit.
    mat = np.ascontiguousarray(mat)
    m = np.abs(mat).max(axis=1)
    grid = np.arange(1, grid_points + 1, dtype=np.float64) / (grid_points + 1)
    best_err = np.full(len(m), np.inf)
    best = np.zeros(len(m))
    for ratio in grid:
        err = _row_mse(mat, bits, m, ratio * m)
        better = err < best_err
        best_err[better] = err[better]
        best[better] = ratio
    approx = _approx_ratios(mat, m)
    err = _row_mse(mat, bits, m, approx * m)
    take = (err < best_err) | ((err == best_err) & (approx < best))
    best[take] = approx[take]
    return best * m


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
    """Inverse of fold_regions: (uint8 region labels, int8 codes)."""
    half = 1 << (bits - 1)
    quarter = 1 << (bits - 2)
    tail = np.asarray(tail_bits).astype(bool)
    combined = np.asarray(combined)
    if combined.size and (combined.min() < -half or combined.max() > half - 1):
        raise CodeOutOfDomain(f"combined code outside signed {bits}-bit range")
    field = combined.astype(np.int16) + half
    negative = (field >> (bits - 1)).astype(bool) & tail
    tail_code = (field & (half - 1)) - quarter
    regions = np.where(tail, np.where(negative, NEG_TAIL, POS_TAIL), CENTER)
    values = np.where(tail, tail_code, combined)
    return regions.astype(np.uint8), values.astype(np.int8)
