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
    CENTER,
    FILTER_WISE,
    NEG_TAIL,
    POS_TAIL,
    PWLQ,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    dequantize_tensor,
    quantize_tensor,
)
from convquant import pwlq, uniform

from conftest import matrix_tensor
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
    records, codes = q.params, q.codes.reshape(mat.shape)
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
    regions, codes, _ = pwlq.encode(mat, records[:, None], bits)
    decoded = pwlq.decode(records[:, None], regions, codes)
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


# Up to 30 rows of up to 1,500 values, or 3 rows longer than one block: the
# batched search then spans several row blocks of the breakpoint search.
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
    batched = pwlq.search_breakpoints(mat[live], bits, grid_points=8)
    one_by_one = [pwlq.search_breakpoints(row[None], bits, grid_points=8)[0]
                  for row in mat[live]]
    assert batched.tolist() == one_by_one


def reference_search(mat, bits, grid_points=pwlq.DEFAULT_GRID_POINTS, full_grid=False):
    """search_breakpoints, one row at a time, from the public records,
    encode and decode. A row scores lattice points i / (grid_points + 1):
    every one with ``full_grid``, else i = 4, 12, 20, ... (all of them below
    4 points) and then the unscored ones among the 15 consecutive points
    (fewer on a short lattice) centred on the best of those, pushed back
    inside the lattice. Then the closed form of quantize_tensor. The least
    MSE wins, ties going to the smaller breakpoint."""
    approx = quantize_tensor(matrix_tensor(mat), FILTER_WISE, PWLQ, bits).params["p"]
    lattice = grid_points + 1
    found = []
    for row, p_approx in zip(mat, approx.tolist()):
        m = float(np.abs(row).max())
        if m == 0:
            found.append(0.0)
            continue

        def mse(p):
            records = pwlq.group_records(bits, row.min(keepdims=True),
                                         row.max(keepdims=True), np.array([p]))
            regions, codes, _ = pwlq.encode(row, records, bits)
            return float(((row - pwlq.decode(records, regions, codes)) ** 2).mean())

        coarse = list(range(4, lattice, 8)) or list(range(1, lattice))
        scored = {i: mse(i / lattice * m) for i in (range(1, lattice) if full_grid else coarse)}
        if not full_grid:
            centre = min(scored, key=lambda i: (scored[i], i))
            first = max(1, min(centre - 7, lattice - 15))
            for i in range(first, min(first + 15, lattice)):
                if i not in scored:
                    scored[i] = mse(i / lattice * m)
        candidates = [(err, i / lattice * m) for i, err in scored.items()]
        found.append(min(candidates + [(mse(p_approx), p_approx)])[1])
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
def test_search_matches_reference_from_public_kernels(mat, bits):
    assert pwlq.search_breakpoints(mat, bits).tolist() == reference_search(mat, bits)


@pytest.mark.parametrize("grid_points", range(3, 21))
def test_search_on_short_lattices(grid_points):
    # From 12 points on, the fine window of a row whose best coarse point
    # is near an end is shifted inward over a second coarse point.
    mat = _f16_matrix_without_zero_or_constant_rows()
    found = pwlq.search_breakpoints(mat, 4, grid_points).tolist()
    assert found == reference_search(mat, 4, grid_points)
    if grid_points <= 11:   # the 15-point window then holds the whole lattice
        assert found == reference_search(mat, 4, grid_points, full_grid=True)
