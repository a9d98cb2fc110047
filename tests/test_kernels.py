"""Row kernels against the scalar oracle, one row at a time.

The matrix kernels quantize every group of a tensor in one numpy pass; each
row must still come out exactly as the plain-Python reference computes it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from convquant import AFFINE, CENTER, NEG_TAIL, POS_TAIL, SYMMETRIC_FULL, SYMMETRIC_RESTRICTED
from convquant import pwlq, uniform

import scalar_oracle as oracle

REGION_NAMES = {"center": CENTER, "neg": NEG_TAIL, "pos": POS_TAIL}


@st.composite
def group_matrices(draw):
    """f16-snapped (groups, size) matrices mixing Gaussian, constant and zero rows."""
    rows = draw(st.integers(1, 6))
    size = draw(st.integers(1, 12))
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
    records, codes = uniform.quantize_rows(mat, scheme, bits)
    decoded = uniform.dequantize_rows(records, codes)
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
    records, regions, codes = pwlq.quantize_rows(mat, bits, p)
    decoded = pwlq.dequantize_rows(records, regions, codes)
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


@given(mat=group_matrices(), bits=st.integers(3, 8))
@settings(max_examples=100, deadline=None)
def test_batched_search_matches_one_row_searches(mat, bits):
    live = np.abs(mat).max(axis=1) > 0
    if not live.any():
        return
    batched = pwlq.search_breakpoints(mat[live], bits, grid_points=8)
    one_by_one = [pwlq.search_breakpoints(row[None], bits, grid_points=8)[0]
                  for row in mat[live]]
    assert batched.tolist() == one_by_one
