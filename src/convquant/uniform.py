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

Rounding is half-away-from-zero everywhere, by the one rule of
``round_half_away``, so results are reproducible across platforms. All
arithmetic is float64.

``range_records`` derives one :data:`RECORD` per group from its value
range, and ``encode`` and ``decode`` map values to codes and back with
per-group parameters that broadcast over any block of a tensor.
"""

from __future__ import annotations

import numpy as np

from .errors import CodeOutOfDomain, DegenerateRange, IncompatibleBits

AFFINE = "affine"
SYMMETRIC_RESTRICTED = "symmetric-restricted"
SYMMETRIC_FULL = "symmetric-full"
UNIFORM_SCHEMES = (AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL)

MIN_BITS = 2
MAX_BITS = 8
# Piecewise quantization codes its tails with k - 1 bits.
MIN_PIECEWISE_BITS = 3

# Record kinds as the container stores them.
KIND_BY_SCHEME = {AFFINE: 0, SYMMETRIC_RESTRICTED: 1, SYMMETRIC_FULL: 2}
SCHEME_BY_KIND = {kind: scheme for scheme, kind in KIND_BY_SCHEME.items()}

# One group's parameters: the fields of a qnt/1 uniform record, float64 in
# memory (the container narrows scale and bounds to binary16 and the
# zero-point to int16).
RECORD = np.dtype([("kind", "u1"), ("bits", "u1"), ("scale", "f8"),
                   ("zero_point", "f8"), ("beta", "f8"), ("alpha", "f8")])


def round_half_away(x, out=None, scratch=None):
    """Round to nearest integer, ties away from zero, zero signs kept, as
    trunc(x + copysign(0.5, x)), whose sum is that of floor(|x| + 0.5) or
    its negation. Works on scalars and arrays; ``out`` (x itself, say) and
    ``scratch`` are optional float64 arrays of x's shape."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(np.add(x, np.copysign(0.5, x, out=scratch), out=out), out=out)


def code_domain(scheme: str, bits: int) -> tuple[int, int]:
    """Inclusive [lo, hi] integer code domain for a scheme at a bit width."""
    half = 1 << (bits - 1)
    if scheme == SYMMETRIC_RESTRICTED:
        return -half + 1, half - 1
    return -half, half - 1


def check_bits(bits, piecewise: bool = False, error=IncompatibleBits,
               name: str | None = None) -> None:
    """Raise ``error`` unless ``bits`` is a supported code width.

    This is the one bit-width rule: MIN_BITS to MAX_BITS, and at least
    MIN_PIECEWISE_BITS for piecewise quantization. ``name`` prefixes the
    message.
    """
    floor = MIN_PIECEWISE_BITS if piecewise else MIN_BITS
    if not (isinstance(bits, (int, np.integer)) and floor <= bits <= MAX_BITS):
        where = f"{name}: " if name else ""
        method = " for pwlq" if piecewise else ""
        raise error(f"{where}bit width {bits!r} outside [{floor}, {MAX_BITS}]{method}")


def settle_zero_signs(vmin, vmax, any_negative, all_negative) -> None:
    """Give zero extremes, in place, the sign of IEEE 754 minimum and maximum.

    A reduction over +0 and -0 may return either, depending on the loop
    numpy picks for the layout, and the sign ends up in stored clip bounds.
    So a zero minimum is -0 when its group holds a -0 (``any_negative``:
    any sign bit set) and a zero maximum is -0 only when every value of its
    group is -0 (``all_negative``); equal inputs then give equal container
    bytes, however their groups were reduced.
    """
    np.copysign(vmin, np.where(any_negative, -1.0, 1.0), out=vmin, where=vmin == 0)
    np.copysign(vmax, np.where(all_negative, -1.0, 1.0), out=vmax, where=vmax == 0)


def encode(x, scale, zero_point, lo: int, hi: int, work=(None, None)) -> np.ndarray:
    """int8 codes ``clip(round_half_away(x / scale + zero_point), lo, hi)``.

    All arguments broadcast against each other; ``work`` is two float64
    arrays of that shape to compute in, which a caller reuses from block
    to block.
    """
    q = np.divide(x, scale, out=work[0])
    q += zero_point
    round_half_away(q, out=q, scratch=work[1])
    return np.clip(q, lo, hi, out=q).astype(np.int8)


def decode(codes, scale, zero_point, out=None) -> np.ndarray:
    """``(codes - zero_point) * scale`` in float64, in ``out`` when given;
    arguments broadcast."""
    out = np.subtract(codes, zero_point, out=out, dtype=np.float64)
    out *= scale
    return out


def range_records(scheme: str, bits: int, vmin: np.ndarray, vmax: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """One record per group, for groups whose values span [vmin, vmax],
    written into the RECORD array ``out`` when given.

    Affine groups use [vmin, vmax]; symmetric groups use [-max|r|, max|r|].
    A group of equal values v would divide by zero, so it is stored as an
    affine record with s = |v| (1 for v = 0), z = 0 and clip range [v, v];
    its one code sign(v) reconstructs v exactly. Raises DegenerateRange
    naming the first group whose scale is not positive.
    """
    flat = vmin == vmax
    any_flat = flat.any()
    half = 1 << (bits - 1)
    records = np.zeros(len(vmin), RECORD) if out is None else out
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
    if any_flat:
        scale[flat] = np.where(vmin[flat] != 0, np.abs(vmin[flat]), 1.0)
    if not (scale > 0).all():
        g = int(np.flatnonzero(~(scale > 0))[0])
        raise DegenerateRange(f"group {g}: scale must be positive, got {scale[g]}")
    records["scale"] = scale
    records["zero_point"] = -round_half_away(vmin / scale) - half if scheme == AFFINE else 0.0
    if any_flat:
        records["zero_point"][flat] = 0.0
        records["kind"][flat] = KIND_BY_SCHEME[AFFINE]
        records["beta"][flat] = records["alpha"][flat] = vmin[flat]
    return records


def check_code_range(records: np.ndarray, cmin: np.ndarray, cmax: np.ndarray) -> None:
    """Raise CodeOutOfDomain naming the first group whose codes, spanning
    [cmin, cmax], leave the domain of its record."""
    half = np.left_shift(1, records["bits"].astype(np.int64) - 1)
    lo = -half + (records["kind"] == KIND_BY_SCHEME[SYMMETRIC_RESTRICTED])
    bad = np.flatnonzero((cmin < lo) | (cmax > half - 1))
    if bad.size:
        g = int(bad[0])
        raise CodeOutOfDomain(
            f"group {g}: code outside [{lo[g]}, {half[g] - 1}] for "
            f"{SCHEME_BY_KIND[int(records['kind'][g])]} at "
            f"{records['bits'][g]} bits")
