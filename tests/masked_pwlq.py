"""The masked formulation of the piecewise kernels, kept as a reference.

Each element's piece is gathered from its group's record with masked
copies: the center's field everywhere, then each tail's where the element
lies in that tail. Codes are rounded, clipped to k bits, clipped again to
k - 1 bits in the tails, and folded with ``fold_regions`` afterwards. The
package picks pieces by arithmetic on flags instead; these functions are
what that arithmetic must reproduce bit for bit.
"""

import numpy as np

from convquant import pwlq
from convquant.errors import CodeOutOfDomain
from convquant.pwlq import PIECES
from convquant.uniform import round_half_away

# Region ids of the masked formulation, each the index of its piece in PIECES.
CENTER = 0
NEG_TAIL = 1
POS_TAIL = 2


def fold_regions(regions, values, bits):
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


def unfold_regions(tail_bits, combined, bits):
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


def piece_field(records, field, neg, pos):
    """Per element, ``field`` of the record of its piece."""
    out = np.empty(np.broadcast_shapes(neg.shape, records.shape))
    for piece, where in zip(PIECES, (True, neg, pos)):
        np.copyto(out, records[piece][field], where=where)
    return out


def codes(x, scale, zero_point, tail, bits):
    """Float codes: k-bit in the center, (k-1)-bit where ``tail``."""
    half, quarter = 1 << (bits - 1), 1 << (bits - 2)
    q = np.clip(round_half_away(x / scale + zero_point), -half, half - 1)
    return np.clip(q, -quarter, quarter - 1, out=q, where=tail)


def encode(x, records, bits):
    """(tail bits, folded int8 codes, float64 decode) of x; ``records``
    broadcasts against x."""
    p = records["p"]
    neg, pos = x < -p, x > p
    regions = np.zeros(np.shape(x), np.uint8)
    regions[neg] = NEG_TAIL
    regions[pos] = POS_TAIL
    scale = piece_field(records, "scale", neg, pos)
    zero_point = piece_field(records, "zero_point", neg, pos)
    q = codes(x, scale, zero_point, neg | pos, bits)
    tail_bits, folded = fold_regions(regions, q.astype(np.int8), bits)
    return tail_bits, folded, (q - zero_point) * scale


def decode(records, tail_bits, folded, bits):
    """float64 decode of folded codes; degenerate groups (not of the
    piecewise kind) decode as their center, whatever their tail bits."""
    tail = (tail_bits != 0) & (records["kind"] == pwlq.PWLQ_KIND)
    regions, values = unfold_regions(tail, folded, bits)
    neg, pos = regions == NEG_TAIL, regions == POS_TAIL
    return (values - piece_field(records, "zero_point", neg, pos)) * piece_field(
        records, "scale", neg, pos)


def model_points(block, live_m, bits, grid_points):
    """Per row, the lattice point of least expected noise: N_center times
    (2r / (2^k - 1))^2 plus N_tail times ((1 - r) / (2^(k-1) - 1))^2 at
    r = i / (grid_points + 1), N_center counting the row's values whose
    floor(|x| / m * (grid_points + 1)) is below i, evaluated as the row's
    size times the tail term plus N_center times the terms' difference;
    ties go to the smaller point. Each count compares every value with
    every point."""
    lattice = grid_points + 1
    bins = np.floor(np.abs(block) / live_m[:, None] * lattice)
    points = np.arange(1, lattice)
    n_center = (bins[:, :, None] < points).sum(axis=1)
    r = points / lattice
    center, tail = (2 * r / (2**bits - 1)) ** 2, ((1 - r) / (2**(bits - 1) - 1)) ** 2
    noise = block.shape[1] * tail + n_center * (center - tail)
    return points[noise.argmin(axis=1)]


def search_breakpoints(mat, bits, grid_points=pwlq.DEFAULT_GRID_POINTS,
                       row_sums=lambda values: values.sum(axis=1)):
    """The breakpoint search over the rows of a group matrix: per row, the
    closed form and the 7 consecutive lattice points (fewer on a shorter
    lattice) centred on the noise model's choice, pushed back inside the
    lattice, each scored with the masked kernels above, whole rows at a
    time, by its sum of squared errors. ``row_sums`` sums a matrix of
    per-element values by row, for the errors and the closed form's RMS."""
    lattice = grid_points + 1
    block = np.asarray(mat, dtype=np.float64)
    m = np.abs(block).max(axis=1)
    live_m = np.where(m > 0, m, 1.0)
    best_err, best = np.full(len(m), np.inf), np.zeros(len(m))

    def scan(ratios):
        records = pwlq._records(live_m, ratios * live_m, bits)
        for rec, ratio in zip(records[:, :, None], ratios):
            *_, decoded = encode(block, rec, bits)
            err = row_sums((block - decoded) ** 2)
            take = (err < best_err) | ((err == best_err) & (ratio < best))
            np.copyto(best_err, err, where=take)
            np.copyto(best, ratio, where=take)

    width = min(7, grid_points)
    first = np.clip(model_points(block, live_m, bits, grid_points) - 3, 1, lattice - width)
    scan((first + np.arange(width)[:, None]) / lattice)
    sums = row_sums(pwlq.scaled_squares(block, m[:, None]))
    scan(pwlq.ratios_from_squares(m, sums, block.shape[1])[None])
    return best * m
