"""Uniform quantization: affine and symmetric schemes.

A k-bit uniform quantizer maps reals in a clip range [beta, alpha] onto
integer codes via ``code = clip(round(r / s + z), lo, hi)`` and back via
``r ~ (code - z) * s``. Three schemes differ only in how the range, the
scale s and the code domain are chosen:

* ``affine``: range [min(r), max(r)], s = (alpha - beta) / (2^k - 1),
  z = -round(beta / s) - 2^(k-1), codes in [-2^(k-1), 2^(k-1) - 1].
* ``symmetric-restricted``: range [-alpha, alpha], s = alpha / (2^(k-1) - 1),
  z = 0, codes in [-2^(k-1) + 1, 2^(k-1) - 1] (the most negative code is
  never used, keeping the domain symmetric).
* ``symmetric-full``: range [-alpha, alpha], s = 2 * alpha / (2^k - 1),
  z = 0, codes using the full domain [-2^(k-1), 2^(k-1) - 1].

Rounding is half-away-from-zero everywhere so results are reproducible
across platforms. All arithmetic is float64.

Tensors are quantized a whole ``(groups, group size)`` matrix at a time:
``quantize_rows`` derives one :data:`RECORD` per row and encodes every row
in the same numpy pass, and ``dequantize_rows`` inverts it. The per-group
functions (``quantize_slice`` and friends) are one-row calls of the same
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CodeOutOfDomain,
    DegenerateRange,
    EmptySlice,
    IncompatibleBits,
    InvalidBounds,
    InvalidValue,
)

AFFINE = "affine"
SYMMETRIC_RESTRICTED = "symmetric-restricted"
SYMMETRIC_FULL = "symmetric-full"
UNIFORM_SCHEMES = (AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL)

MIN_BITS = 2
MAX_BITS = 8

# Record kinds as the container stores them.
KIND_BY_SCHEME = {AFFINE: 0, SYMMETRIC_RESTRICTED: 1, SYMMETRIC_FULL: 2}
SCHEME_BY_KIND = {kind: scheme for scheme, kind in KIND_BY_SCHEME.items()}

# One group's parameters: the fields of a qnt/1 uniform record, float64 in
# memory (the container narrows scale and bounds to binary16 and the
# zero-point to int16).
RECORD = np.dtype([("kind", "u1"), ("bits", "u1"), ("scale", "f8"),
                   ("zero_point", "f8"), ("beta", "f8"), ("alpha", "f8")])


def round_half_away(x):
    """Round to nearest integer, ties away from zero. Works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def clip(r, lo: float, hi: float):
    """Saturate r (scalar or array) to [lo, hi]."""
    if lo > hi:
        raise InvalidBounds(f"clip bounds inverted: lo={lo} > hi={hi}")
    return np.minimum(np.maximum(r, lo), hi)


def code_domain(scheme: str, bits: int) -> tuple[int, int]:
    """Inclusive [lo, hi] integer code domain for a scheme at a bit width."""
    half = 1 << (bits - 1)
    if scheme == SYMMETRIC_RESTRICTED:
        return -half + 1, half - 1
    return -half, half - 1


def _check_bits(bits: int) -> None:
    if not MIN_BITS <= bits <= MAX_BITS:
        raise IncompatibleBits(f"bit width {bits} outside [{MIN_BITS}, {MAX_BITS}]")


@dataclass(frozen=True)
class ClipRange:
    """Permissible input interval; values outside saturate to the nearer bound."""

    beta: float
    alpha: float

    def __post_init__(self):
        if self.beta > self.alpha:
            raise InvalidBounds(f"beta={self.beta} > alpha={self.alpha}")

    @property
    def width(self) -> float:
        return self.alpha - self.beta


@dataclass(frozen=True)
class UniformParams:
    """Everything needed to encode or decode one group of values."""

    scheme: str
    bits: int
    scale: float
    zero_point: int
    clip: ClipRange

    def __post_init__(self):
        if self.scheme not in UNIFORM_SCHEMES:
            raise InvalidValue(f"unknown scheme {self.scheme!r}")
        _check_bits(self.bits)
        if not self.scale > 0:
            raise DegenerateRange(f"scale must be positive, got {self.scale}")
        if self.scheme != AFFINE and self.zero_point != 0:
            raise InvalidValue("symmetric schemes require zero_point == 0")

    def code_domain(self) -> tuple[int, int]:
        return code_domain(self.scheme, self.bits)


def affine_params(clip_range: ClipRange, bits: int) -> UniformParams:
    """Derive affine scale and zero-point for a strict range beta < alpha."""
    _check_bits(bits)
    beta, alpha = clip_range.beta, clip_range.alpha
    if beta == alpha:
        raise DegenerateRange(f"affine range is a point: [{beta}, {alpha}]")
    return _one_group(AFFINE, bits, beta, alpha)


def symmetric_params(alpha: float, bits: int, variant: str) -> UniformParams:
    """Derive symmetric-scheme parameters for the range [-alpha, alpha].

    ``variant`` is "restricted" (discard the most negative code) or "full"
    (use the whole code domain).
    """
    _check_bits(bits)
    if alpha < 0:
        raise InvalidBounds(f"alpha must be non-negative, got {alpha}")
    if alpha == 0:
        raise DegenerateRange("alpha = 0 admits no scale")
    schemes = {"restricted": SYMMETRIC_RESTRICTED, "full": SYMMETRIC_FULL}
    if variant not in schemes:
        raise InvalidValue(f"unknown symmetric variant {variant!r}")
    return _one_group(schemes[variant], bits, -alpha, alpha)


def degenerate_params(value: float, bits: int) -> UniformParams:
    """Parameters for a group whose values are all equal.

    The normal scale formula divides by zero, so the group is stored as an
    affine quantizer with s = |value| (or 1 when the value is 0), z = 0 and
    the single code sign(value), which reconstructs the value exactly.
    """
    _check_bits(bits)
    return _one_group(AFFINE, bits, value, value)


def _one_group(scheme: str, bits: int, vmin: float, vmax: float) -> UniformParams:
    return record_params(range_records(scheme, bits, np.array([vmin], dtype=np.float64),
                                       np.array([vmax], dtype=np.float64))[0])


def uniform_quantize(r, params: UniformParams):
    """Encode reals to integer codes; out-of-range inputs saturate."""
    lo, hi = params.code_domain()
    flat = np.asarray(r, dtype=np.float64).reshape(-1)
    codes = encode(flat, params.scale, params.zero_point, lo, hi).astype(np.int64)
    return int(codes[0]) if np.isscalar(r) else codes.reshape(np.shape(r))


def uniform_dequantize(code, params: UniformParams):
    """Decode integer codes back to reals: (code - z) * s.

    A one-row call of :func:`dequantize_rows`.
    """
    codes = np.asarray(code, dtype=np.int64)
    out = dequantize_rows(params_record(params), codes.reshape(1, -1)).reshape(codes.shape)
    return float(out) if np.isscalar(code) else out


def record_params(record) -> UniformParams:
    """The dataclass view of one :data:`RECORD`."""
    return UniformParams(SCHEME_BY_KIND[int(record["kind"])], int(record["bits"]),
                         float(record["scale"]), int(record["zero_point"]),
                         ClipRange(float(record["beta"]), float(record["alpha"])))


def params_record(params: UniformParams) -> np.ndarray:
    """The one-element :data:`RECORD` array of a UniformParams."""
    return np.array([(KIND_BY_SCHEME[params.scheme], params.bits, params.scale,
                      params.zero_point, params.clip.beta, params.clip.alpha)], RECORD)


def check_scales(scale) -> None:
    """Raise DegenerateRange naming the first group whose scale is not positive."""
    bad = np.flatnonzero(~(scale > 0))
    if bad.size:
        g = int(bad[0])
        raise DegenerateRange(f"group {g}: scale must be positive, got {scale[g]}")


def row_extremes(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row min and max of a (groups, size) matrix.

    A reduction over +0 and -0 may return either, depending on the loop
    numpy picks for the layout, and the sign ends up in stored clip bounds.
    Rows whose extreme is zero therefore take it from ``row.min()`` /
    ``row.max()``, so equal inputs give equal container bytes.
    """
    vmin = mat.min(axis=1)
    vmax = mat.max(axis=1)
    for g in np.flatnonzero(vmin == 0):
        vmin[g] = mat[g].min()
    for g in np.flatnonzero(vmax == 0):
        vmax[g] = mat[g].max()
    return vmin, vmax


def encode(x, scale, zero_point, lo: int, hi: int) -> np.ndarray:
    """int8 codes ``clip(round_half_away(x / scale + zero_point), lo, hi)``.

    All arguments broadcast against each other.
    """
    q = np.divide(x, scale)
    q += zero_point
    t = np.abs(q)                   # round_half_away, in place
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, q, out=t)
    np.clip(t, lo, hi, out=t)
    return t.astype(np.int8)


def decode(codes, scale, zero_point) -> np.ndarray:
    """``(codes - zero_point) * scale`` in float64; arguments broadcast."""
    out = np.subtract(codes, zero_point, dtype=np.float64)
    out *= scale
    return out


def range_records(scheme: str, bits: int, vmin: np.ndarray, vmax: np.ndarray) -> np.ndarray:
    """One record per group, for groups whose values span [vmin, vmax].

    Affine groups use [vmin, vmax]; symmetric groups use [-max|r|, max|r|].
    A group of equal values v would divide by zero, so it is stored as an
    affine record with s = |v| (1 for v = 0), z = 0 and clip range [v, v];
    its one code sign(v) reconstructs v exactly. Raises DegenerateRange
    naming the first group whose scale is not positive.
    """
    flat = vmin == vmax
    half = 1 << (bits - 1)
    records = np.zeros(len(vmin), RECORD)
    records["kind"] = KIND_BY_SCHEME[scheme]
    records["bits"] = bits
    if scheme == AFFINE:
        scale = (vmax - vmin) / ((1 << bits) - 1)
        records["beta"], records["alpha"] = vmin, vmax
    else:
        alpha = np.maximum(np.abs(vmin), np.abs(vmax))
        if scheme == SYMMETRIC_RESTRICTED:
            scale = alpha / (half - 1)
        else:
            scale = 2.0 * alpha / ((1 << bits) - 1)
        records["beta"], records["alpha"] = -alpha, alpha
    # A range too narrow for any positive float64 step (its step underflows
    # to 0) takes the smallest one, which still spans it within the domain.
    scale = np.maximum(scale, np.finfo(np.float64).smallest_subnormal)
    scale[flat] = np.where(vmin[flat] != 0, np.abs(vmin[flat]), 1.0)
    check_scales(scale)
    if scheme == AFFINE:
        records["zero_point"] = -round_half_away(vmin / scale) - half
    records["scale"] = scale
    records["zero_point"][flat] = 0.0
    records["kind"][flat] = KIND_BY_SCHEME[AFFINE]
    records["beta"][flat] = records["alpha"][flat] = vmin[flat]
    return records


def quantize_rows(mat: np.ndarray, scheme: str, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize each row of a (groups, size) matrix as one group, its clip
    range taken from the row (:func:`range_records`). Returns the rows'
    records and their int8 codes.
    """
    records = range_records(scheme, bits, *row_extremes(mat))
    lo, hi = code_domain(scheme, bits)
    codes = encode(mat, records["scale"][:, None], records["zero_point"][:, None], lo, hi)
    return records, codes


def dequantize_rows(records: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Decode (groups, size) codes, one record per row.

    Raises CodeOutOfDomain when a code lies outside its row's domain.
    """
    half = np.left_shift(1, records["bits"].astype(np.int64) - 1)
    lo = -half + (records["kind"] == KIND_BY_SCHEME[SYMMETRIC_RESTRICTED])
    if codes.size:
        bad = np.flatnonzero((codes.min(axis=1) < lo) | (codes.max(axis=1) > half - 1))
        if bad.size:
            g = int(bad[0])
            raise CodeOutOfDomain(
                f"group {g}: code outside [{lo[g]}, {half[g] - 1}] for "
                f"{SCHEME_BY_KIND[int(records['kind'][g])]} at "
                f"{records['bits'][g]} bits")
    return decode(codes, records["scale"][:, None], records["zero_point"][:, None])


def quantize_slice(values, scheme: str, bits: int) -> tuple[UniformParams, np.ndarray]:
    """Quantize one group, deriving the clip range from the data.

    A one-row call of :func:`quantize_rows`.
    """
    if scheme not in UNIFORM_SCHEMES:
        raise InvalidValue(f"unknown scheme {scheme!r}")
    _check_bits(bits)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptySlice("cannot quantize an empty slice")
    if not np.all(np.isfinite(values)):
        raise InvalidValue("slice contains NaN or infinity")
    records, codes = quantize_rows(values.reshape(1, -1), scheme, bits)
    return record_params(records[0]), codes.reshape(values.shape)


def dequantize_slice(codes, params: UniformParams) -> np.ndarray:
    """Decode one group; degenerate groups reconstruct their constant exactly
    because sign(v) * |v| == v."""
    return uniform_dequantize(codes, params)
