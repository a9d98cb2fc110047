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
from convquant.pwlq import NEG_TAIL, PIECES, POS_TAIL, fold_regions, unfold_regions
from convquant.uniform import round_half_away


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


def search_breakpoints(mat, bits, grid_points=pwlq.DEFAULT_GRID_POINTS):
    """The coarse-to-fine breakpoint search, each candidate scored with
    the masked kernels above, whole rows at a time."""
    lattice = grid_points + 1
    first, step = ((pwlq.COARSE_FIRST, pwlq.COARSE_STEP)
                   if grid_points >= pwlq.COARSE_FIRST else (1, 1))
    coarse = np.arange(first, lattice, step, dtype=np.float64)
    block = np.asarray(mat, dtype=np.float64)
    m = np.abs(block).max(axis=1)
    live_m = np.where(m > 0, m, 1.0)
    best_err, best = np.full(len(m), np.inf), np.zeros(len(m))

    def scan(ratios, where=True):
        records = pwlq._records(live_m, ratios * live_m, bits)
        for rec, ratio, use in zip(records[:, :, None], ratios,
                                   np.broadcast_to(where, ratios.shape)):
            *_, decoded = encode(block, rec, bits)
            err = ((block - decoded) ** 2).mean(axis=1)
            take = ((err < best_err) | ((err == best_err) & (ratio < best))) & use
            np.copyto(best_err, err, where=take)
            np.copyto(best, ratio, where=take)

    scan(coarse[:, None] / lattice)
    if grid_points >= pwlq.COARSE_FIRST:
        fine, new = pwlq._fine_points(np.rint(best * lattice), grid_points)
        scan(fine / lattice, new)
    sums = pwlq.scaled_squares(block, m[:, None]).sum(axis=1)
    scan(pwlq.ratios_from_squares(m, sums, block.shape[1])[None])
    return best * m
