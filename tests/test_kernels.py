"""The tensor kernels against the scalar oracle, one group at a time.

The kernels quantize every group of a tensor in a few numpy passes; each
group must still come out exactly as the plain-Python reference computes
it. A (rows, size) matrix is quantized filter-wise as a tensor whose group
matrix is the matrix itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    AFFINE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    GRANULARITIES,
    LAYER_WISE,
    PWLQ,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    quantize_tensor,
    tensor_store,
)
from convquant import pwlq, uniform
from convquant.granularity import GROUP_LAYOUT, _as_group_matrix, _Blocks

from conftest import bruteforce, matrix_tensor, unpacked
import masked_pwlq as masked
from masked_pwlq import CENTER, NEG_TAIL, POS_TAIL
import scalar_oracle as oracle

REGION_NAMES = {"center": CENTER, "neg": NEG_TAIL, "pos": POS_TAIL}


@st.composite
def group_matrices(draw, rows=st.integers(1, 6), size=st.integers(1, 12)):
    """f16-snapped (groups, size) matrices mixing Gaussian, constant and zero rows."""
    rows = draw(rows)
    size = draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(0.0, draw(st.sampled_from([1e-3, 0.05, 1.0, 30.0])), (rows, size))
    for r, kind in enumerate(draw(st.lists(st.sampled_from("gcz"), min_size=rows,
                                           max_size=rows))):
        if kind == "c":
            mat[r] = mat[r, 0]
        elif kind == "z":
            mat[r] = rng.choice([0.0, -0.0], size=size)
    return mat.astype(np.float16).astype(np.float64)


def oracle_uniform_row(row, scheme, bits):
    """(scale, zero-point, codes) of one non-constant row."""
    if scheme == AFFINE:
        return oracle.quantize_slice_affine(row, bits)
    alpha = max(abs(min(row)), abs(max(row)))
    variant = "restricted" if scheme == SYMMETRIC_RESTRICTED else "full"
    s = oracle.symmetric_scale(alpha, bits, variant)
    lo, hi = oracle.code_domain(scheme, bits)
    return s, 0, [oracle.quantize(r, s, 0, lo, hi) for r in row]


@given(mat=group_matrices(), bits=st.integers(2, 8),
       scheme=st.sampled_from([AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL]))
@settings(max_examples=300, deadline=None)
def test_uniform_rows_match_oracle(mat, bits, scheme):
    q = quantize_tensor(matrix_tensor(mat), FILTER_WISE, scheme, bits)
    records, codes = q.params, unpacked(q)[0].reshape(mat.shape)
    decoded = dequantize_tensor(q).values.reshape(mat.shape)
    for g, row in enumerate(mat.tolist()):
        rec = records[g]
        if min(row) == max(row):
            v = row[0]
            assert rec["kind"] == uniform.KIND_BY_SCHEME[AFFINE]
            assert (rec["scale"], rec["zero_point"]) == (abs(v) if v else 1.0, 0)
            assert decoded[g].tolist() == row
            continue
        s, z, expected = oracle_uniform_row(row, scheme, bits)
        assert rec["kind"] == uniform.KIND_BY_SCHEME[scheme]
        assert (rec["scale"], rec["zero_point"]) == (s, z)
        assert codes[g].tolist() == expected
        assert decoded[g].tolist() == [oracle.dequantize(c, s, z) for c in expected]


@given(mat=group_matrices(), bits=st.integers(3, 8))
@settings(max_examples=300, deadline=None)
def test_pwlq_rows_match_oracle(mat, bits):
    m = np.abs(mat).max(axis=1)
    p = np.array([oracle.breakpoint_approx(x) if x else 0.0 for x in m.tolist()])
    records = pwlq.group_records(bits, mat.min(axis=1), mat.max(axis=1), p)
    table = pwlq.piece_table(records, bits)[:, :, None]
    tail, folded, _ = pwlq.encode(mat, table, bits)
    regions, codes = masked.unfold_regions(tail, folded, bits)
    decoded = pwlq.decode(table, tail, folded)
    for g, row in enumerate(mat.tolist()):
        if m[g] == 0:
            assert records[g]["kind"] == uniform.KIND_BY_SCHEME[AFFINE]
            assert codes[g].tolist() == [0] * len(row)
            assert regions[g].tolist() == [CENTER] * len(row)
            assert decoded[g].tolist() == [0.0] * len(row)
            continue
        assert records[g]["kind"] == pwlq.PWLQ_KIND
        for i, r in enumerate(row):
            region, code = oracle.pwlq_encode(r, bits, m[g], p[g])
            assert (regions[g, i], codes[g, i]) == (REGION_NAMES[region], code)
            assert decoded[g, i] == oracle.pwlq_decode(region, code, bits, m[g], p[g])


# Up to 30 rows of up to 1,500 values, which may take two blocks of
# filters, or 3 rows of 9,000.
SEARCH_MATRICES = st.one_of(
    group_matrices(),
    group_matrices(rows=st.integers(1, 30), size=st.integers(250, 1500)),
    group_matrices(rows=st.integers(1, 3), size=st.just(9000)))


@given(mat=SEARCH_MATRICES, bits=st.integers(3, 8))
@settings(max_examples=100, deadline=None)
def test_batched_search_matches_one_row_searches(mat, bits):
    live = np.abs(mat).max(axis=1) > 0
    if not live.any():
        return
    batched = bruteforce(matrix_tensor(mat[live]), FILTER_WISE, bits, grid_points=8)
    one_by_one = [bruteforce(matrix_tensor(row[None]), FILTER_WISE, bits, grid_points=8)[0]
                  for row in mat[live]]
    assert batched.tolist() == one_by_one


def reference_search(mat, bits, grid_points=pwlq.DEFAULT_GRID_POINTS, full_grid=False):
    """The bruteforce breakpoints of a matrix's rows, one row at a time,
    from the public records, encode and decode. A row scores lattice points
    i / (grid_points + 1): every one with ``full_grid``, else i = 4, 12, 20,
    ... (all of them below 4 points) and then the unscored ones among the 15
    consecutive points (fewer on a short lattice) centred on the best of
    those, pushed back inside the lattice. Then the closed form of
    quantize_tensor. The least sum of squared errors wins, ties going to the
    smaller breakpoint."""
    approx = quantize_tensor(matrix_tensor(mat), FILTER_WISE, PWLQ, bits).params["p"]
    lattice = grid_points + 1
    found = []
    for row, p_approx in zip(mat, approx.tolist()):
        m = float(np.abs(row).max())
        if m == 0:
            found.append(0.0)
            continue

        def sse(p):
            records = pwlq.group_records(bits, row.min(keepdims=True),
                                         row.max(keepdims=True), np.array([p]))
            table = pwlq.piece_table(records, bits)
            tail, codes, _ = pwlq.encode(row, table, bits)
            return float(((row - pwlq.decode(table, tail, codes)) ** 2).sum())

        coarse = list(range(4, lattice, 8)) or list(range(1, lattice))
        scored = {i: sse(i / lattice * m) for i in (range(1, lattice) if full_grid else coarse)}
        if not full_grid:
            centre = min(scored, key=lambda i: (scored[i], i))
            first = max(1, min(centre - 7, lattice - 15))
            for i in range(first, min(first + 15, lattice)):
                if i not in scored:
                    scored[i] = sse(i / lattice * m)
        candidates = [(err, i / lattice * m) for i, err in scored.items()]
        found.append(min(candidates + [(sse(p_approx), p_approx)])[1])
    return found


def _f16_matrix_without_zero_or_constant_rows():
    rng = np.random.default_rng(11)
    mat = rng.laplace(0.0, 0.03, (60, 27)).astype(np.float16).astype(np.float64)
    mat[::7] = 0.0
    mat[3::7] = mat[3::7, :1]
    return mat[mat.min(axis=1) < mat.max(axis=1)]


@pytest.mark.parametrize("bits", range(3, 9))
@pytest.mark.parametrize("mat", [
    np.random.default_rng(7).normal(0.0, 0.05, (40, 700)),    # several blocks, last partial
    np.random.default_rng(8).normal(0.0, 1.0, (3, 9000)),     # rows longer than a block
    _f16_matrix_without_zero_or_constant_rows(),
], ids=["40x700", "3x9000", "f16"])
def test_search_matches_reference_from_public_kernels(monkeypatch, mat, bits):
    monkeypatch.setattr(tensor_store, "BLOCK", 8192)
    assert bruteforce(matrix_tensor(mat), FILTER_WISE, bits).tolist() == \
        reference_search(mat, bits)


@pytest.mark.parametrize("grid_points", range(3, 21))
def test_search_on_short_lattices(grid_points):
    # From 12 points on, the fine window of a row whose best coarse point
    # is near an end is shifted inward over a second coarse point.
    mat = _f16_matrix_without_zero_or_constant_rows()
    found = bruteforce(matrix_tensor(mat), FILTER_WISE, 4, grid_points).tolist()
    assert found == reference_search(mat, 4, grid_points)
    if grid_points <= 11:   # the 15-point window then holds the whole lattice
        assert found == reference_search(mat, 4, grid_points, full_grid=True)


F16_SPECIALS = [0.0, -0.0, 2.0**-24, -2.0**-24, 3 * 2.0**-24, 2.0**-14, 65504.0, -65504.0,
                -65472.0]


@st.composite
def f16_blocks(draw):
    """(n, c, h*w) blocks of f16 values: Gaussian at one of several scales,
    with +0 and -0, subnormals and values at or near the f16 limit mixed
    in, and maybe an all-zero filter and an all-zero channel."""
    n, c, hw = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.sampled_from([1, 3, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([1e-6, 0.02, 1.0, 3e4])), (n, c, hw))
    for value in draw(st.lists(st.sampled_from(F16_SPECIALS), max_size=4)):
        x[rng.random(x.shape) < 0.2] = value
    if draw(st.booleans()):
        x[rng.integers(n)] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        x[:, rng.integers(c)] = 0.0
    return np.clip(x, -65504.0, 65504.0).astype(np.float16).astype(np.float64)


def block_tensor(x):
    """An (n, c, h*w) block as a tensor."""
    return WeightTensor("t", TensorShape(*x.shape, 1), x.ravel())


@given(x=f16_blocks(), granularity=st.sampled_from(GRANULARITIES), bits=st.integers(3, 8),
       reach=st.sampled_from([1.0, 1.0, 0.5]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_table_kernels_match_the_masked_formulation(x, granularity, bits, reach, seed):
    # Records from group_records, broadcast over the block in group shape;
    # breakpoints anywhere in (0, m), near its ends included. Records that
    # reach half as far as the values saturate the codes of both pieces.
    runs = GROUP_LAYOUT[granularity][1]
    rng = np.random.default_rng(seed)
    vmin, vmax = reach * x.min(axis=runs, keepdims=True), reach * x.max(axis=runs, keepdims=True)
    ratio = rng.choice([1e-6, 0.05, 0.3847, 0.5, 0.95, 0.999999], size=vmin.shape)
    p = np.maximum(vmax, -vmin) * ratio
    records = pwlq.group_records(bits, vmin.ravel(), vmax.ravel(), p.ravel())
    table = pwlq.piece_table(records, bits).reshape(5, *vmin.shape)
    records = records.reshape(vmin.shape)

    expected = masked.encode(x, records, bits)
    found = pwlq.encode(x, table, bits)
    for name, want, got in zip(("tail bits", "codes", "decode"), expected, found):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    # The decode of those codes, and of any tail bits and signed k-bit codes.
    half = 1 << (bits - 1)
    tail_bits = rng.integers(0, 2, x.shape).astype(np.uint8)
    codes = rng.integers(-half, half, x.shape).astype(np.int8)
    for tail_bits, codes in (expected[:2], (tail_bits, codes)):
        want = masked.decode(records, tail_bits, codes, bits)
        assert pwlq.decode(table, tail_bits, codes).tobytes() == want.tobytes()


def fold_order(shape, granularity):
    """Row sums of a tensor's group matrix in the order of _Blocks.fold."""
    blocks = _Blocks(shape, granularity)
    order = sum(GROUP_LAYOUT[granularity], ())

    def row_sums(mat):
        view = mat.reshape([blocks.dims[axis] for axis in order]).transpose(np.argsort(order))
        sums = np.zeros(len(mat))
        for f0, f1 in blocks.ranges:
            blocks.fold(sums, np.array(view[f0:f1]), f0, f1)
        return sums
    return row_sums


@given(x=f16_blocks(), granularity=st.sampled_from(GRANULARITIES), bits=st.integers(3, 8),
       grid_points=st.sampled_from([3, 5, 8, 16, 64]))
@settings(max_examples=100, deadline=None)
def test_search_scores_as_the_masked_formulation(x, granularity, bits, grid_points):
    # Groups within a filter are summed as the reference sums its rows.
    # Layer- and f-shape-wise groups add up each filter's part in turn, so
    # the reference sums those rows in that order.
    t = block_tensor(x)
    if granularity == CHANNEL_WISE and x.shape[2] == 1:
        return      # passed through
    found = bruteforce(t, granularity, bits, grid_points)
    mat = _as_group_matrix(x.ravel(), t.shape, granularity)
    if granularity in (LAYER_WISE, F_SHAPE_WISE):
        expected = masked.search_breakpoints(mat, bits, grid_points,
                                             fold_order(t.shape, granularity))
    else:
        expected = masked.search_breakpoints(mat, bits, grid_points)
    assert found.tobytes() == expected.tobytes()


@given(m=st.floats(2.0**-24, 65504.0), ratio=st.floats(0.0, 1.0, exclude_min=True,
                                                      exclude_max=True),
       bits=st.integers(3, 8))
@settings(max_examples=300, deadline=None)
def test_facts_the_table_kernels_rest_on(m, ratio, bits):
    p = m * ratio
    if not 0 < p < m:
        return
    records = pwlq.group_records(bits, np.array([-m]), np.array([m]), np.array([p]))
    half, quarter = 1 << (bits - 1), 1 << (bits - 2)
    # Both tails' scales are fl(m - p) / (2^(k-1) - 1), so one table row serves both.
    tail_scale = max((m - p) / (half - 1), np.finfo(np.float64).smallest_subnormal)
    assert records["neg_tail"]["scale"][0] == records["pos_tail"]["scale"][0] == tail_scale
    # a * 1 + b * 0 == a for the finite parameters, in either order, and
    # the center's zero-point comes out +0 (as 0.0 + -0.0 does).
    params = [records[piece][field][0] for piece in pwlq.PIECES
              for field in ("scale", "zero_point")] + [p, -p]
    for a in params:
        for b in params:
            assert np.float64(a) * 1.0 + np.float64(b) * 0.0 == a
            if a != 0:
                assert (np.float64(b) * 0.0 + np.float64(a) * 1.0).tobytes() == \
                    np.float64(a).tobytes()
    zero = 0.0 * records["pos_tail"]["zero_point"][0] + 0.0 * (
        records["neg_tail"]["zero_point"][0] - records["pos_tail"]["zero_point"][0])
    assert zero == 0 and not np.signbit(zero)
    # Clipping straight to the (k-1)-bit range equals clipping to k bits first.
    q = np.arange(-2.0 * half, 2.0 * half + 1)
    assert np.array_equal(np.clip(np.clip(q, -half, half - 1), -quarter, quarter - 1),
                          np.clip(q, -quarter, quarter - 1))
