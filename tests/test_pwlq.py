import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    AFFINE,
    FILTER_WISE,
    PWLQ,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    quantize_tensor,
)
from convquant.errors import BitsTooSmall, BreakpointOutOfRange, CodeOutOfDomain, InvalidInput
from convquant.pwlq import decode, encode, group_records, piece_table, ratios_from_squares

from conftest import bruteforce, closed_form, gaussian_tensor, matrix_tensor
from masked_pwlq import CENTER, NEG_TAIL, POS_TAIL, fold_regions, unfold_regions
import scalar_oracle as oracle


def one_group(values, bits, p):
    """The record of ``values`` as one group split at ``p``."""
    return group_records(bits, np.min(values, keepdims=True),
                         np.max(values, keepdims=True), np.array([p]))


def encode_regions(values, records, bits):
    """Region labels, per-region codes and the float64 decode of values,
    through the table kernels."""
    tail, folded, decoded = encode(np.asarray(values, dtype=np.float64),
                                   piece_table(records, bits), bits)
    return (*unfold_regions(tail, folded, bits), decoded)


def decode_regions(records, regions, codes, bits):
    """The float64 decode of region labels and per-region codes."""
    return decode(piece_table(records, bits), *fold_regions(regions, codes, bits))


def qdq_mse(values, bits, p):
    records = one_group(values, bits, p)
    regions, codes, _ = encode_regions(values, records, bits)
    return float(np.mean((values - decode_regions(records, regions, codes, bits)) ** 2))


def affine_mse(values, bits):
    q = quantize_tensor(matrix_tensor([values]), FILTER_WISE, AFFINE, bits)
    return float(np.mean((values - dequantize_tensor(q).values) ** 2))


class TestBreakpointApprox:
    # m is a group's max magnitude in units of its RMS.
    def test_unit_bound(self):
        assert oracle.breakpoint_approx(1.0) == 0.3847860968997636
        assert closed_form(1.0) == 0.3847860968997636

    def test_small_bound_clamps(self):
        assert oracle.breakpoint_approx(0.1) == 0.005000000000000001
        assert closed_form(0.1) == pytest.approx(0.005, rel=1e-9)

    def test_huge_bound_clamps(self):
        assert closed_form(100.0) == pytest.approx(5.0, rel=1e-12)

    def test_all_zero_group_takes_the_unit_bound(self):
        assert ratios_from_squares(np.zeros(1), np.zeros(1), 4).tolist() == [0.3847860968997636]

    def test_ratio_stays_interior(self):
        for m in (0.01, 0.3, 1.0, 2.0, 4.0, 50.0, 1000.0):
            p = closed_form(m)
            assert 0.05 * m <= p <= 0.95 * m


class TestRowBreakpoints:
    @pytest.mark.parametrize("mode", ["approx", "bruteforce"])
    def test_power_of_two_scaling_scales_only_the_breakpoint(self, mode):
        # The closed form sees m in units of the row's RMS, so scaling a row
        # by 2^j scales its breakpoint by exactly 2^j and keeps its codes.
        rng = np.random.default_rng(21)
        mat = rng.normal(0, 0.02, size=(16, 72))
        mat[3] = 0.0
        q = quantize_tensor(matrix_tensor(mat), FILTER_WISE, PWLQ, 4,
                            breakpoint_mode=mode, grid_points=16)
        for j in (-6, -1, 3, 9):
            q_j = quantize_tensor(matrix_tensor(mat * 2.0 ** j), FILTER_WISE, PWLQ, 4,
                                  breakpoint_mode=mode, grid_points=16)
            assert np.array_equal(q_j.params["p"], q.params["p"] * 2.0 ** j)
            assert np.array_equal(q_j.region_bits, q.region_bits)
            assert np.array_equal(q_j.codes, q.codes)

    def test_tiny_float64_groups_keep_their_ratio(self):
        # Squares of values near 1e-300 underflow to 0, so the RMS must come
        # from each row scaled exactly by a power of two: the breakpoints are
        # those of the same tensor at unit scale, scaled back.
        values = np.random.default_rng(8).normal(0.0, 1e-300, size=4 * 4 * 3 * 3)
        q = quantize_tensor(WeightTensor("tiny", TensorShape(4, 4, 3, 3), values),
                            FILTER_WISE, PWLQ, 4)
        unit = quantize_tensor(WeightTensor("unit", TensorShape(4, 4, 3, 3), values * 2.0 ** 996),
                               FILTER_WISE, PWLQ, 4)
        assert np.array_equal(q.params["p"], unit.params["p"] * 2.0 ** -996)


# One group with m = 1 and p = 0.385, as the examples below assume.
RECORDS = one_group([1.0, -1.0], 4, 0.385)


class TestPwlqQuantize:
    def test_zero_is_center_code_zero(self):
        regions, codes, _ = encode_regions([0.0, 1.0], RECORDS, 4)
        assert regions[0] == CENTER
        assert codes[0] == 0

    def test_positive_tail_example(self):
        assert oracle.pwlq_encode(0.9, 4, 1.0, 0.385) == ("pos", 2)
        records = one_group([0.9, -1.0], 4, 0.385)
        regions, codes, decoded = encode_regions([0.9, -1.0], records, 4)
        assert regions.tolist() == [POS_TAIL, NEG_TAIL]
        assert codes[0] == 2
        assert records["pos_tail"]["scale"][0] == 0.08785714285714286
        assert records["pos_tail"]["zero_point"][0] == -8
        assert records["neg_tail"]["zero_point"][0] == 7
        assert decoded[0] == 0.8785714285714286
        assert decode_regions(records, regions, codes, 4)[0] == 0.8785714285714286

    def test_boundary_belongs_to_center(self):
        regions, _, _ = encode_regions([0.385, 1.0], RECORDS, 4)
        assert regions[0] == CENTER

    def test_breakpoint_bounds(self):
        with pytest.raises(BreakpointOutOfRange):
            one_group([1.0, -1.0], 4, 0.0)
        with pytest.raises(BreakpointOutOfRange):
            one_group([1.0, -1.0], 4, 1.0)

    def test_bits_too_small(self):
        with pytest.raises(BitsTooSmall):
            one_group([1.0, -1.0], 2, 0.5)

    def test_embedded_params_shape(self):
        center = RECORDS["center"][0]
        assert center["bits"] == 4 and center["zero_point"] == 0
        assert RECORDS["neg_tail"]["bits"][0] == 3 and RECORDS["pos_tail"]["bits"][0] == 3
        assert center["scale"] == 0.051333333333333335


class TestPwlqDequantize:
    def test_center_zero(self):
        assert decode_regions(RECORDS, [CENTER], [0], 4).tolist() == [0.0]

    def test_positive_tail_code(self):
        assert oracle.pwlq_decode("pos", 2, 4, 1.0, 0.385) == 0.8785714285714286
        out = decode_regions(RECORDS, [POS_TAIL], [2], 4)
        assert out.tolist() == [0.8785714285714286]

    def test_center_code_seven(self):
        assert oracle.pwlq_decode("center", 7, 4, 1.0, 0.385) == 0.35933333333333334
        out = decode_regions(RECORDS, [CENTER], [7], 4)
        assert out.tolist() == [0.35933333333333334]

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
        regions, _, _ = encode_regions(values, one_group(values, bits, p), bits)
        assert np.array_equal(regions == CENTER, np.abs(values) <= p)
        assert np.array_equal(regions == NEG_TAIL, values < -p)
        assert np.array_equal(regions == POS_TAIL, values > p)

    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_pieces_confine_their_reconstructions(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        m = float(np.abs(values).max())
        p = oracle.breakpoint_approx(m)
        records = one_group(values, bits, p)
        regions, codes, _ = encode_regions(values, records, bits)
        rec = decode_regions(records, regions, codes, bits)
        center = regions == CENTER
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
        p = oracle.breakpoint_approx(float(np.abs(values).max()))
        records = one_group(values, bits, p)
        regions, codes, _ = encode_regions(values, records, bits)
        err = np.abs(decode_regions(records, regions, codes, bits) - values)
        step = np.where(regions == CENTER,
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
        assert bruteforce(matrix_tensor([[1.0, -1.0]]), FILTER_WISE, 4, 3).tolist() == [0.5]

    def test_never_worse_than_approx(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=4000)
        t = matrix_tensor(values[None])
        p_grid = bruteforce(t, FILTER_WISE, 4)[0]
        p_approx = quantize_tensor(t, FILTER_WISE, PWLQ, 4).params["p"][0]
        assert qdq_mse(values, 4, p_grid) <= qdq_mse(values, 4, p_approx)

    def test_uniform_data_prefers_balanced_split(self):
        # For uniform data the analytic mse model m^2/12 * (4r^3/225 + (1-r)^3/49)
        # at k=4 has its minimum at r = 15/29 ~ 0.517; the empirical grid search
        # must land in that neighborhood, not at either clamp.
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, size=20000)
        m = float(np.abs(values).max())
        ratio = bruteforce(matrix_tensor(values[None]), FILTER_WISE, 4)[0] / m
        assert 0.4 < ratio < 0.65

    def test_argument_validation(self):
        with pytest.raises(InvalidInput):
            bruteforce(matrix_tensor([[1.0, -1.0]]), FILTER_WISE, 4, grid_points=2)


class TestAgainstUniformQuantization:
    def test_beats_affine_on_bell_shaped_data(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = rng.normal(size=10000)
            p = oracle.breakpoint_approx(float(np.abs(values).max()))
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
