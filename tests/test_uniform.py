import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convquant import (
    AFFINE,
    FILTER_WISE,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    code_domain,
    dequantize_tensor,
    quantize_tensor,
    round_half_away,
)
from convquant.errors import CodeOutOfDomain, DegenerateRange, IncompatibleBits
from convquant.uniform import (
    check_bits,
    check_code_range,
    decode,
    encode,
    range_records,
)

from conftest import matrix_tensor, unpacked
import scalar_oracle as oracle


class TestClip:
    """encode saturates codes to the domain it is given."""

    def test_identity_in_range(self):
        assert encode(np.array([0.0]), 1.0, 0, -1, 1).tolist() == [0]

    def test_saturates_low(self):
        assert encode(np.array([-2.0]), 1.0, 0, -1, 1).tolist() == [-1]

    def test_saturates_high(self):
        assert encode(np.array([3.0]), 1.0, 0, -1, 1).tolist() == [1]

    def test_array(self):
        out = encode(np.array([-2.0, 0.0, 2.0]), 1.0, 0, -1, 1)
        assert out.tolist() == [-1, 0, 1]


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1.0), (-0.5, -1.0), (2.5, 3.0), (-2.5, -3.0),
        (-7.5, -8.0), (7.5, 8.0), (1.4, 1.0), (-1.6, -2.0), (0.0, 0.0),
    ])
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestParamDerivation:
    def test_affine_symmetric_unit_range(self):
        # Crosscheck against the scalar oracle, then freeze: s = 2/15, z = 0.
        assert oracle.affine_params(-1.0, 1.0, 4) == (0.13333333333333333, 0)
        rec = range_records(AFFINE, 4, np.array([-1.0]), np.array([1.0]))[0]
        assert rec["scale"] == 0.13333333333333333
        assert rec["zero_point"] == 0

    def test_affine_nonnegative_range(self):
        assert oracle.affine_params(0.0, 1.0, 8) == (0.00392156862745098, -128)
        rec = range_records(AFFINE, 8, np.array([0.0]), np.array([1.0]))[0]
        assert rec["scale"] == 1.0 / 255.0
        assert rec["zero_point"] == -128

    def test_affine_degenerate(self):
        # A point range has no step; it becomes the exact record s = |v|, z = 0.
        rec = range_records(AFFINE, 4, np.array([1.0]), np.array([1.0]))[0]
        assert (rec["kind"], rec["scale"], rec["zero_point"]) == (0, 1.0, 0)
        assert (rec["beta"], rec["alpha"]) == (1.0, 1.0)

    def test_symmetric_restricted_scale(self):
        assert oracle.symmetric_scale(1.0, 8, "restricted") == 1.0 / 127.0
        rec = range_records(SYMMETRIC_RESTRICTED, 8, np.array([-1.0]), np.array([1.0]))[0]
        assert rec["scale"] == 1.0 / 127.0
        assert rec["zero_point"] == 0
        assert code_domain(SYMMETRIC_RESTRICTED, 8) == (-127, 127)

    def test_symmetric_full_scale(self):
        assert oracle.symmetric_scale(1.0, 8, "full") == 2.0 / 255.0
        rec = range_records(SYMMETRIC_FULL, 8, np.array([-1.0]), np.array([1.0]))[0]
        assert rec["scale"] == 2.0 / 255.0
        assert code_domain(SYMMETRIC_FULL, 8) == (-128, 127)

    def test_symmetric_degenerate(self):
        # alpha = 0 admits no symmetric scale; the group takes the exact
        # affine record s = 1, z = 0 of an all-zero group.
        rec = range_records(SYMMETRIC_RESTRICTED, 8, np.array([0.0]), np.array([0.0]))[0]
        assert (rec["kind"], rec["scale"], rec["zero_point"]) == (0, 1.0, 0)

    @pytest.mark.parametrize("bits", [0, 1, 9, 16])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(IncompatibleBits):
            check_bits(bits)


class TestQuantizeDequantize:
    def test_quantize_midpoint(self):
        rec = range_records(AFFINE, 4, np.array([-1.0]), np.array([1.0]))[0]
        assert oracle.quantize(0.5, rec["scale"], rec["zero_point"], -8, 7) == 4
        assert encode(np.array([0.5]), rec["scale"], rec["zero_point"], -8, 7).tolist() == [4]

    def test_zero_maps_to_zero_symmetric(self):
        for scheme in (SYMMETRIC_RESTRICTED, SYMMETRIC_FULL):
            rec = range_records(scheme, 5, np.array([-3.7]), np.array([3.7]))[0]
            codes = encode(np.array([0.0]), rec["scale"], 0, *code_domain(scheme, 5))
            assert codes.tolist() == [0]

    def test_saturation_at_code_max(self):
        rec = range_records(AFFINE, 4, np.array([-1.0]), np.array([1.0]))[0]
        assert encode(np.array([10.0]), rec["scale"], rec["zero_point"], -8, 7).tolist() == [7]

    def test_dequantize(self):
        rec = range_records(AFFINE, 4, np.array([-1.0]), np.array([1.0]))[0]
        assert oracle.dequantize(4, rec["scale"], rec["zero_point"]) == 0.5333333333333333
        assert decode(np.array([4]), rec["scale"], rec["zero_point"]).tolist() == [
            0.5333333333333333]

    def test_zero_code_reconstructs_zero(self):
        rec = range_records(SYMMETRIC_FULL, 6, np.array([-2.5]), np.array([2.5]))[0]
        assert decode(np.array([0]), rec["scale"], rec["zero_point"]).tolist() == [0.0]

    def test_restricted_rejects_unused_min_code(self):
        rec = range_records(SYMMETRIC_RESTRICTED, 8, np.array([-1.0]), np.array([1.0]))[0]
        with pytest.raises(CodeOutOfDomain):
            check_code_range(rec[None], np.array([-128]), np.array([-128]))


class TestQuantizeSlice:
    def test_three_point_slice(self):
        assert oracle.quantize_slice_affine([-1.0, 0.0, 1.0], 4) == (
            0.13333333333333333, 0, [-8, 0, 7])
        q = quantize_tensor(matrix_tensor([[-1.0, 0.0, 1.0]]), FILTER_WISE, AFFINE, 4)
        assert unpacked(q)[0].tolist() == [-8, 0, 7]
        assert q.params["scale"][0] == 0.13333333333333333
        assert q.params["zero_point"][0] == 0

    def test_constant_slice_reconstructs_exactly(self):
        for scheme in (AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL):
            q = quantize_tensor(matrix_tensor([[0.7, 0.7, 0.7]]), FILTER_WISE, scheme, 4)
            assert dequantize_tensor(q).values.tolist() == [0.7, 0.7, 0.7]

    def test_all_zero_slice(self):
        q = quantize_tensor(matrix_tensor([[0.0, 0.0]]), FILTER_WISE, AFFINE, 4)
        assert unpacked(q)[0].tolist() == [0, 0]
        assert dequantize_tensor(q).values.tolist() == [0.0, 0.0]

    def test_two_bit_affine_slice(self):
        # Oracle-derived under half-away-from-zero rounding: 0.5/s + z is an
        # exact -0.5 tie in float64, so 0.5 rounds down to code -1.
        s, z, codes = oracle.quantize_slice_affine([0.0, 0.25, 0.5, 1.0], 2)
        assert (s, z, codes) == (0.3333333333333333, -2, [-2, -1, -1, 1])
        q = quantize_tensor(matrix_tensor([[0.0, 0.25, 0.5, 1.0]]), FILTER_WISE, AFFINE, 2)
        assert unpacked(q)[0].tolist() == [-2, -1, -1, 1]
        assert dequantize_tensor(q).values.tolist() == [
            0.0, 0.3333333333333333, 0.3333333333333333, 1.0]

    def test_non_finite_slice(self):
        # A NaN extreme gives no positive step; the records name the group.
        with pytest.raises(DegenerateRange, match="group 1"):
            range_records(AFFINE, 4, np.array([0.0, 0.0]), np.array([1.0, np.nan]))

    def test_degenerate_params_shape(self):
        rec = range_records(AFFINE, 4, np.array([-0.25]), np.array([-0.25]))[0]
        assert rec["scale"] == 0.25 and rec["zero_point"] == 0
        assert decode(-1, rec["scale"], rec["zero_point"]) == -0.25


ranges = st.tuples(st.floats(-8, 8), st.floats(1e-3, 8)).map(
    lambda t: (t[0], t[0] + t[1]))


class TestProperties:
    @given(rng=ranges, bits=st.integers(2, 8),
           scheme=st.sampled_from([AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL]),
           fractions=st.lists(st.floats(0, 1), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_within_one_step(self, rng, bits, scheme, fractions):
        beta, alpha = rng
        rec = range_records(scheme, bits, np.array([beta]), np.array([alpha]))[0]
        beta, alpha = rec["beta"], rec["alpha"]  # [-max|r|, max|r|] if symmetric
        values = np.array([beta + f * (alpha - beta) for f in fractions])
        codes = encode(values, rec["scale"], rec["zero_point"], *code_domain(scheme, bits))
        err = np.abs(decode(codes, rec["scale"], rec["zero_point"]) - values)
        assert np.all(err <= rec["scale"] + 1e-12)

    @given(rng=ranges, bits=st.integers(2, 8),
           pair=st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    @settings(max_examples=200, deadline=None)
    def test_order_preserved(self, rng, bits, pair):
        rec = range_records(AFFINE, bits, np.array([rng[0]]), np.array([rng[1]]))[0]
        codes = encode(np.array([min(pair), max(pair)]), rec["scale"], rec["zero_point"],
                       *code_domain(AFFINE, bits))
        assert codes[0] <= codes[1]

    @given(rng=ranges, bits=st.integers(2, 8),
           scheme=st.sampled_from([AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL]))
    @settings(max_examples=100, deadline=None)
    def test_codes_are_fixed_points(self, rng, bits, scheme):
        rec = range_records(scheme, bits, np.array([rng[0]]), np.array([rng[1]]))[0]
        lo, hi = code_domain(scheme, bits)
        codes = np.arange(lo, hi + 1)
        values = decode(codes, rec["scale"], rec["zero_point"])
        again = encode(values, rec["scale"], rec["zero_point"], lo, hi)
        assert np.array_equal(again, codes)

    @given(alpha=st.floats(1e-3, 8), bits=st.integers(2, 8),
           r=st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_negation(self, alpha, bits, r):
        rec = range_records(SYMMETRIC_FULL, bits, np.array([-alpha]), np.array([alpha]))[0]
        plus, minus = encode(np.array([abs(r), -abs(r)]), rec["scale"], 0,
                             *code_domain(SYMMETRIC_FULL, bits))
        if plus < (1 << (bits - 1)) - 1:  # skip saturation at the lopsided end
            assert minus == -plus

    @given(values=st.lists(st.floats(-5, 5), min_size=2, max_size=40),
           bits=st.integers(2, 8))
    @example(values=[0.0, 5e-324], bits=2)  # the step underflows to 0
    @settings(max_examples=200, deadline=None)
    def test_slice_codes_in_domain_and_endpoints(self, values, bits):
        q = quantize_tensor(matrix_tensor([values]), FILTER_WISE, AFFINE, bits)
        lo, hi = code_domain(AFFINE, bits)
        codes, _ = unpacked(q)
        assert codes.min() >= lo and codes.max() <= hi
        rec = dequantize_tensor(q).values
        scale = q.params["scale"][0]
        vmin, vmax = min(values), max(values)
        i_min, i_max = values.index(vmin), values.index(vmax)
        assert abs(rec[i_min] - vmin) <= scale / 2 + 1e-12
        assert abs(rec[i_max] - vmax) <= scale / 2 + 1e-12

    @given(values=st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           bits=st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_restricted_never_uses_extreme_code(self, values, bits):
        q = quantize_tensor(matrix_tensor([values]), FILTER_WISE, SYMMETRIC_RESTRICTED, bits)
        assert unpacked(q)[0].min() >= -(1 << (bits - 1)) + 1
