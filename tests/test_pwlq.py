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
    TensorShape,
    WeightTensor,
    breakpoint_approx,
    fold_regions,
    quantize_tensor,
    unfold_regions,
)
from convquant import uniform
from convquant.errors import (
    BitsTooSmall,
    BreakpointOutOfRange,
    CodeOutOfDomain,
    InvalidInput,
    NonPositiveM,
)
from convquant.pwlq import (
    dequantize_rows,
    quantize_rows,
    row_breakpoints,
    search_breakpoints,
)

from conftest import gaussian_tensor
import scalar_oracle as oracle


def qdq_mse(values, bits, p):
    mat = np.asarray(values, dtype=np.float64)[None]
    records, regions, codes = quantize_rows(mat, bits, np.array([p]))
    return float(np.mean((mat - dequantize_rows(records, regions, codes)) ** 2))


def affine_mse(values, bits):
    mat = np.asarray(values, dtype=np.float64)[None]
    records, codes = uniform.quantize_rows(mat, AFFINE, bits)
    return float(np.mean((mat - uniform.dequantize_rows(records, codes)) ** 2))


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


class TestRowBreakpoints:
    @pytest.mark.parametrize("mode", ["approx", "bruteforce"])
    def test_power_of_two_scaling_scales_only_the_breakpoint(self, mode):
        # The closed form sees m in units of the row's RMS, so scaling a row
        # by 2^j scales its breakpoint by exactly 2^j and keeps its codes.
        rng = np.random.default_rng(21)
        mat = rng.normal(0, 0.02, size=(16, 72))
        mat[3] = 0.0
        p = row_breakpoints(mat, 4, mode, grid_points=16)
        _, regions, codes = quantize_rows(mat, 4, p)
        for j in (-6, -1, 3, 9):
            scaled = mat * 2.0 ** j
            p_j = row_breakpoints(scaled, 4, mode, grid_points=16)
            assert np.array_equal(p_j, p * 2.0 ** j)
            _, regions_j, codes_j = quantize_rows(scaled, 4, p_j)
            assert np.array_equal(regions_j, regions)
            assert np.array_equal(codes_j, codes)

    def test_tiny_float64_groups_keep_their_ratio(self):
        # Squares of values near 1e-300 underflow to 0, so the RMS must come
        # from each row scaled exactly by a power of two: the breakpoints are
        # those of the same tensor at unit scale, scaled back.
        values = np.random.default_rng(8).normal(0.0, 1e-300, size=4 * 4 * 3 * 3)
        q = quantize_tensor(WeightTensor("tiny", TensorShape(4, 4, 3, 3), values),
                            FILTER_WISE, PWLQ, 4)
        unit = row_breakpoints(values.reshape(4, 36) * 2.0 ** 996, 4, "approx")
        assert np.array_equal(q.params["p"], unit * 2.0 ** -996)


class TestPwlqQuantize:
    def test_zero_is_center_code_zero(self):
        _, regions, codes = quantize_rows(np.array([[0.0, 1.0]]), 4, np.array([0.385]))
        assert regions[0, 0] == CENTER
        assert codes[0, 0] == 0

    def test_positive_tail_example(self):
        assert oracle.pwlq_encode(0.9, 4, 1.0, 0.385) == ("pos", 2)
        records, regions, codes = quantize_rows(np.array([[0.9, -1.0]]), 4,
                                                np.array([0.385]))
        assert regions.tolist() == [[POS_TAIL, NEG_TAIL]]
        assert codes[0, 0] == 2
        assert records["pos_tail"]["scale"][0] == 0.08785714285714286
        assert records["pos_tail"]["zero_point"][0] == -8
        assert records["neg_tail"]["zero_point"][0] == 7
        rec = dequantize_rows(records, regions, codes)
        assert rec[0, 0] == 0.8785714285714286

    def test_boundary_belongs_to_center(self):
        _, regions, _ = quantize_rows(np.array([[0.385, 1.0]]), 4, np.array([0.385]))
        assert regions[0, 0] == CENTER

    def test_breakpoint_bounds(self):
        with pytest.raises(BreakpointOutOfRange):
            quantize_rows(np.array([[1.0, -1.0]]), 4, np.array([0.0]))
        with pytest.raises(BreakpointOutOfRange):
            quantize_rows(np.array([[1.0, -1.0]]), 4, np.array([1.0]))

    def test_bits_too_small(self):
        with pytest.raises(BitsTooSmall):
            quantize_rows(np.array([[1.0, -1.0]]), 2, np.array([0.5]))

    def test_embedded_params_shape(self):
        records, _, _ = quantize_rows(np.array([[1.0, -1.0]]), 4, np.array([0.385]))
        center = records["center"][0]
        assert center["bits"] == 4 and center["zero_point"] == 0
        assert records["neg_tail"]["bits"][0] == 3 and records["pos_tail"]["bits"][0] == 3
        assert center["scale"] == 0.051333333333333335


# One group with m = 1 and p = 0.385, as the decode examples below assume.
RECORDS, _, _ = quantize_rows(np.array([[1.0, -1.0]]), 4, np.array([0.385]))


class TestPwlqDequantize:
    def test_center_zero(self):
        out = dequantize_rows(RECORDS, np.array([[CENTER]]), np.array([[0]]))
        assert out[0, 0] == 0.0

    def test_positive_tail_code(self):
        assert oracle.pwlq_decode("pos", 2, 4, 1.0, 0.385) == 0.8785714285714286
        out = dequantize_rows(RECORDS, np.array([[POS_TAIL]]), np.array([[2]]))
        assert out[0, 0] == 0.8785714285714286

    def test_center_code_seven(self):
        assert oracle.pwlq_decode("center", 7, 4, 1.0, 0.385) == 0.35933333333333334
        out = dequantize_rows(RECORDS, np.array([[CENTER]]), np.array([[7]]))
        assert out[0, 0] == 0.35933333333333334

    def test_code_outside_its_region_domain(self):
        # Stored codes reach decode through unfold_regions: every signed 4-bit
        # combined code unfolds into its region's domain (3-bit tails stop at
        # 3, the 4-bit center goes down to -8), and anything wider is refused.
        combined = np.arange(-8, 8)
        for tail in (0, 1):
            regions, codes = unfold_regions(np.full(16, tail), combined, 4)
            lo, hi = (-4, 3) if tail else (-8, 7)
            assert codes.min() == lo and codes.max() == hi
        with pytest.raises(CodeOutOfDomain):
            unfold_regions(np.array([0, 1]), np.array([0, 8]), 4)
        with pytest.raises(CodeOutOfDomain):
            unfold_regions(np.array([1]), np.array([-9]), 4)


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
        _, regions, _ = quantize_rows(values[None], bits, np.array([p]))
        assert np.array_equal(regions[0] == CENTER, np.abs(values) <= p)
        assert np.array_equal(regions[0] == NEG_TAIL, values < -p)
        assert np.array_equal(regions[0] == POS_TAIL, values > p)

    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_pieces_confine_their_reconstructions(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        m = float(np.abs(values).max())
        p = breakpoint_approx(m)
        records, regions, codes = quantize_rows(values[None], bits, np.array([p]))
        rec = dequantize_rows(records, regions, codes)[0]
        center = regions[0] == CENTER
        tail = ~center
        center_step = records["center"]["scale"][0]
        tail_step = records["pos_tail"]["scale"][0]
        # Decoded values stay inside their piece, within one rounding step.
        assert np.all(np.abs(rec[center]) <= p + center_step)
        if tail.any():
            assert np.all(np.abs(rec[tail]) >= p - tail_step)
            assert np.all(np.abs(rec[tail]) <= m + tail_step)

    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bound_per_piece(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        p = breakpoint_approx(float(np.abs(values).max()))
        records, regions, codes = quantize_rows(values[None], bits, np.array([p]))
        err = np.abs(dequantize_rows(records, regions, codes)[0] - values)
        step = np.where(regions[0] == CENTER,
                        records["center"]["scale"][0], records["pos_tail"]["scale"][0])
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
        regions = np.array(regions, dtype=np.uint8)
        values = np.array(values, dtype=np.int64)
        tail_bits, combined = fold_regions(regions, values, bits)
        assert combined.min() >= -half and combined.max() <= half - 1
        assert np.array_equal(tail_bits.astype(bool), regions != CENTER)
        back_regions, back_values = unfold_regions(tail_bits, combined, bits)
        assert np.array_equal(back_regions, regions)
        assert np.array_equal(back_values, values)


class TestBruteforce:
    def test_tie_breaks_toward_smaller_breakpoint(self):
        # Oracle: candidate mses over grid {.25, .5, .75} plus the closed-form
        # estimate; .5 and .75 reconstruct +-1 exactly, smaller wins.
        cands = sorted({0.25, 0.5, 0.75, oracle.breakpoint_approx(1.0)})
        best = min(cands, key=lambda r: (oracle.pwlq_mse([1.0, -1.0], 4, r), r))
        assert best == 0.5
        assert search_breakpoints(np.array([[1.0, -1.0]]), 4, grid_points=3).tolist() == [0.5]

    def test_never_worse_than_approx(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=4000)
        p_grid = search_breakpoints(values[None], 4)[0]
        assert qdq_mse(values, 4, p_grid) <= qdq_mse(
            values, 4, breakpoint_approx(float(np.abs(values).max())))

    def test_uniform_data_prefers_balanced_split(self):
        # For uniform data the analytic mse model m^2/12 * (4r^3/225 + (1-r)^3/49)
        # at k=4 has its minimum at r = 15/29 ~ 0.517; the empirical grid search
        # must land in that neighborhood, not at either clamp.
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, size=20000)
        m = float(np.abs(values).max())
        ratio = search_breakpoints(values[None], 4)[0] / m
        assert 0.4 < ratio < 0.65

    def test_argument_validation(self):
        with pytest.raises(InvalidInput):
            search_breakpoints(np.array([[1.0, -1.0]]), 4, grid_points=2)


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

    def test_filter_wise_beats_affine_on_conv_sized_weights(self):
        # At std 0.02 every group's max magnitude is far below 1; the
        # breakpoint must still leave most weights in the dense center.
        t = gaussian_tensor((256, 64, 3, 3), seed=0, scale=0.02)
        piecewise = quantize_tensor(t, FILTER_WISE, PWLQ, 4)
        affine = quantize_tensor(t, FILTER_WISE, AFFINE, 4)
        assert piecewise.error.mse < affine.error.mse
