import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    AFFINE,
    CENTER,
    NEG_TAIL,
    POS_TAIL,
    PwlqCodes,
    breakpoint_approx,
    breakpoint_bruteforce,
    fold_regions,
    pwlq_dequantize,
    pwlq_params,
    pwlq_quantize,
    quantize_slice,
    dequantize_slice,
    unfold_regions,
)
from convquant.errors import (
    AllZeroSlice,
    BitsTooSmall,
    BreakpointOutOfRange,
    CodeOutOfDomain,
    EmptySlice,
    InvalidInput,
    NonPositiveM,
)

import scalar_oracle as oracle


def qdq_mse(values, bits, p):
    params, codes = pwlq_quantize(values, bits, p)
    return float(np.mean((values - pwlq_dequantize(codes, params)) ** 2))


def affine_mse(values, bits):
    params, codes = quantize_slice(values, AFFINE, bits)
    return float(np.mean((values - dequantize_slice(codes, params)) ** 2))


class TestBreakpointApprox:
    def test_unit_bound(self):
        assert oracle.breakpoint_approx(1.0) == 0.3847860968997636
        assert breakpoint_approx(1.0) == 0.3847860968997636

    def test_small_bound_clamps(self):
        assert oracle.breakpoint_approx(0.1) == 0.005000000000000001
        assert breakpoint_approx(0.1) == pytest.approx(0.005, rel=1e-9)

    def test_huge_bound_clamps(self):
        assert breakpoint_approx(100.0) == pytest.approx(5.0, rel=1e-12)

    def test_non_positive(self):
        with pytest.raises(NonPositiveM):
            breakpoint_approx(0.0)
        with pytest.raises(NonPositiveM):
            breakpoint_approx(-1.0)

    def test_ratio_stays_interior(self):
        for m in (0.01, 0.3, 1.0, 2.0, 4.0, 50.0, 1000.0):
            p = breakpoint_approx(m)
            assert 0.05 * m <= p <= 0.95 * m


class TestPwlqQuantize:
    def test_zero_is_center_code_zero(self):
        params, codes = pwlq_quantize([0.0, 1.0], 4, 0.385)
        assert codes.regions[0] == CENTER
        assert codes.values[0] == 0

    def test_positive_tail_example(self):
        assert oracle.pwlq_encode(0.9, 4, 1.0, 0.385) == ("pos", 2)
        params, codes = pwlq_quantize([0.9, -1.0], 4, 0.385)
        assert codes.regions.tolist() == [POS_TAIL, NEG_TAIL]
        assert codes.values[0] == 2
        assert params.pos_tail.scale == 0.08785714285714286
        assert params.pos_tail.zero_point == -8
        assert params.neg_tail.zero_point == 7
        rec = pwlq_dequantize(codes, params)
        assert rec[0] == 0.8785714285714286

    def test_boundary_belongs_to_center(self):
        params, codes = pwlq_quantize([0.385, 1.0], 4, 0.385)
        assert codes.regions[0] == CENTER

    def test_breakpoint_bounds(self):
        with pytest.raises(BreakpointOutOfRange):
            pwlq_quantize([1.0, -1.0], 4, 0.0)
        with pytest.raises(BreakpointOutOfRange):
            pwlq_quantize([1.0, -1.0], 4, 1.0)

    def test_bits_too_small(self):
        with pytest.raises(BitsTooSmall):
            pwlq_quantize([1.0, -1.0], 2, 0.5)

    def test_empty_and_all_zero(self):
        with pytest.raises(EmptySlice):
            pwlq_quantize([], 4, 0.5)
        with pytest.raises(AllZeroSlice):
            pwlq_quantize([0.0, 0.0], 4, 0.5)

    def test_embedded_params_shape(self):
        params = pwlq_params(1.0, 0.385, 4)
        assert params.center.bits == 4 and params.center.zero_point == 0
        assert params.neg_tail.bits == 3 and params.pos_tail.bits == 3
        assert params.center.scale == 0.051333333333333335


class TestPwlqDequantize:
    def test_center_zero(self):
        params = pwlq_params(1.0, 0.385, 4)
        out = pwlq_dequantize(PwlqCodes(np.array([CENTER]), np.array([0])), params)
        assert out[0] == 0.0

    def test_positive_tail_code(self):
        assert oracle.pwlq_decode("pos", 2, 4, 1.0, 0.385) == 0.8785714285714286
        params = pwlq_params(1.0, 0.385, 4)
        out = pwlq_dequantize(PwlqCodes(np.array([POS_TAIL]), np.array([2])), params)
        assert out[0] == 0.8785714285714286

    def test_center_code_seven(self):
        assert oracle.pwlq_decode("center", 7, 4, 1.0, 0.385) == 0.35933333333333334
        params = pwlq_params(1.0, 0.385, 4)
        out = pwlq_dequantize(PwlqCodes(np.array([CENTER]), np.array([7])), params)
        assert out[0] == 0.35933333333333334

    def test_code_outside_its_region_domain(self):
        params = pwlq_params(1.0, 0.385, 4)
        # 3-bit tail codes stop at 3; the 4-bit center goes down to -8.
        pwlq_dequantize(PwlqCodes(np.array([CENTER]), np.array([-8])), params)
        with pytest.raises(CodeOutOfDomain):
            pwlq_dequantize(PwlqCodes(np.array([CENTER, POS_TAIL]), np.array([0, 4])), params)
        with pytest.raises(CodeOutOfDomain):
            pwlq_dequantize(PwlqCodes(np.array([NEG_TAIL]), np.array([-5])), params)

    def test_unknown_region_label(self):
        params = pwlq_params(1.0, 0.385, 4)
        with pytest.raises(InvalidInput):
            pwlq_dequantize(PwlqCodes(np.array([3]), np.array([0])), params)


class TestRegions:
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8),
           ratio=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_total_and_consistent(self, seed, bits, ratio):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=200)
        m = float(np.abs(values).max())
        if m == 0:
            return
        p = ratio * m
        if not 0 < p < m:
            return
        params, codes = pwlq_quantize(values, bits, p)
        center = codes.regions == CENTER
        assert np.array_equal(center, np.abs(values) <= p)
        assert np.array_equal(codes.regions == NEG_TAIL, values < -p)
        assert np.array_equal(codes.regions == POS_TAIL, values > p)

    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_pieces_confine_their_reconstructions(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        m = float(np.abs(values).max())
        p = breakpoint_approx(m)
        params, codes = pwlq_quantize(values, bits, p)
        rec = pwlq_dequantize(codes, params)
        center = codes.regions == CENTER
        tail = ~center
        # Decoded values stay inside their piece, within one rounding step.
        assert np.all(np.abs(rec[center]) <= p + params.center.scale)
        if tail.any():
            assert np.all(np.abs(rec[tail]) >= p - params.pos_tail.scale)
            assert np.all(np.abs(rec[tail]) <= m + params.pos_tail.scale)

    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bound_per_piece(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        p = breakpoint_approx(float(np.abs(values).max()))
        params, codes = pwlq_quantize(values, bits, p)
        err = np.abs(pwlq_dequantize(codes, params) - values)
        step = np.where(codes.regions == CENTER,
                        params.center.scale, params.pos_tail.scale)
        assert np.all(err <= step + 1e-12)


class TestFoldUnfold:
    @given(bits=st.integers(3, 8),
           data=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1000)),
                         min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, bits, data):
        half, quarter = 1 << (bits - 1), 1 << (bits - 2)
        regions, values = [], []
        for region, raw in data:
            regions.append(region)
            if region == CENTER:
                values.append(raw % (2 * half) - half)
            else:
                values.append(raw % (2 * quarter) - quarter)
        codes = PwlqCodes(np.array(regions, dtype=np.uint8),
                          np.array(values, dtype=np.int64))
        tail_bits, combined = fold_regions(codes, bits)
        assert combined.min() >= -half and combined.max() <= half - 1
        assert np.array_equal(tail_bits.astype(bool), codes.regions != CENTER)
        back = unfold_regions(tail_bits, combined, bits)
        assert np.array_equal(back.regions, codes.regions)
        assert np.array_equal(back.values, codes.values)


class TestBruteforce:
    def test_tie_breaks_toward_smaller_breakpoint(self):
        # Oracle: candidate mses over grid {.25, .5, .75} plus the closed-form
        # estimate; .5 and .75 reconstruct +-1 exactly, smaller wins.
        cands = sorted({0.25, 0.5, 0.75, oracle.breakpoint_approx(1.0)})
        best = min(cands, key=lambda r: (oracle.pwlq_mse([1.0, -1.0], 4, r), r))
        assert best == 0.5
        assert breakpoint_bruteforce([1.0, -1.0], 4, grid_points=3) == 0.5

    def test_never_worse_than_approx(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=4000)
        p_grid = breakpoint_bruteforce(values, 4)
        assert qdq_mse(values, 4, p_grid) <= qdq_mse(
            values, 4, breakpoint_approx(float(np.abs(values).max())))

    def test_uniform_data_prefers_balanced_split(self):
        # For uniform data the analytic mse model m^2/12 * (4r^3/225 + (1-r)^3/49)
        # at k=4 has its minimum at r = 15/29 ~ 0.517; the empirical grid search
        # must land in that neighborhood, not at either clamp.
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, size=20000)
        m = float(np.abs(values).max())
        ratio = breakpoint_bruteforce(values, 4) / m
        assert 0.4 < ratio < 0.65

    def test_argument_validation(self):
        with pytest.raises(InvalidInput):
            breakpoint_bruteforce([1.0, -1.0], 4, grid_points=2)
        with pytest.raises(EmptySlice):
            breakpoint_bruteforce([], 4)
        with pytest.raises(AllZeroSlice):
            breakpoint_bruteforce([0.0], 4)


class TestAgainstUniformQuantization:
    def test_beats_affine_on_bell_shaped_data(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = rng.normal(size=10000)
            p = breakpoint_approx(float(np.abs(values).max()))
            if qdq_mse(values, 4, p) < affine_mse(values, 4):
                wins += 1
        assert wins >= 19
