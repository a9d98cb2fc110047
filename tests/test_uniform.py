import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convquant import (
    AFFINE,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    ClipRange,
    affine_params,
    clip,
    degenerate_params,
    dequantize_slice,
    quantize_slice,
    round_half_away,
    symmetric_params,
    uniform_dequantize,
    uniform_quantize,
)
from convquant.errors import (
    CodeOutOfDomain,
    DegenerateRange,
    EmptySlice,
    IncompatibleBits,
    InvalidBounds,
    InvalidValue,
)

import scalar_oracle as oracle


class TestClip:
    def test_identity_in_range(self):
        assert clip(0.5, -1, 1) == 0.5

    def test_saturates_low(self):
        assert clip(-2, -1, 1) == -1

    def test_saturates_high(self):
        assert clip(3, -1, 1) == 1

    def test_inverted_bounds(self):
        with pytest.raises(InvalidBounds):
            clip(0.0, 1.0, -1.0)

    def test_array(self):
        out = clip(np.array([-2.0, 0.0, 2.0]), -1, 1)
        assert out.tolist() == [-1.0, 0.0, 1.0]


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
        p = affine_params(ClipRange(-1.0, 1.0), 4)
        assert p.scale == 0.13333333333333333
        assert p.zero_point == 0

    def test_affine_nonnegative_range(self):
        assert oracle.affine_params(0.0, 1.0, 8) == (0.00392156862745098, -128)
        p = affine_params(ClipRange(0.0, 1.0), 8)
        assert p.scale == 1.0 / 255.0
        assert p.zero_point == -128

    def test_affine_degenerate(self):
        with pytest.raises(DegenerateRange):
            affine_params(ClipRange(1.0, 1.0), 4)

    def test_inverted_range(self):
        with pytest.raises(InvalidBounds):
            ClipRange(1.0, -1.0)

    def test_symmetric_restricted_scale(self):
        assert oracle.symmetric_scale(1.0, 8, "restricted") == 1.0 / 127.0
        p = symmetric_params(1.0, 8, "restricted")
        assert p.scale == 1.0 / 127.0
        assert p.zero_point == 0
        assert p.code_domain() == (-127, 127)

    def test_symmetric_full_scale(self):
        assert oracle.symmetric_scale(1.0, 8, "full") == 2.0 / 255.0
        p = symmetric_params(1.0, 8, "full")
        assert p.scale == 2.0 / 255.0
        assert p.code_domain() == (-128, 127)

    def test_symmetric_degenerate(self):
        with pytest.raises(DegenerateRange):
            symmetric_params(0.0, 8, "restricted")

    @pytest.mark.parametrize("bits", [0, 1, 9, 16])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(IncompatibleBits):
            affine_params(ClipRange(-1.0, 1.0), bits)


class TestQuantizeDequantize:
    def test_quantize_midpoint(self):
        p = affine_params(ClipRange(-1.0, 1.0), 4)
        assert oracle.quantize(0.5, p.scale, p.zero_point, -8, 7) == 4
        assert uniform_quantize(0.5, p) == 4

    def test_zero_maps_to_zero_symmetric(self):
        for variant in ("restricted", "full"):
            p = symmetric_params(3.7, 5, variant)
            assert uniform_quantize(0.0, p) == 0

    def test_saturation_at_code_max(self):
        p = affine_params(ClipRange(-1.0, 1.0), 4)
        assert uniform_quantize(10.0, p) == 7

    def test_dequantize(self):
        p = affine_params(ClipRange(-1.0, 1.0), 4)
        assert oracle.dequantize(4, p.scale, p.zero_point) == 0.5333333333333333
        assert uniform_dequantize(4, p) == 0.5333333333333333

    def test_zero_code_reconstructs_zero(self):
        p = symmetric_params(2.5, 6, "full")
        assert uniform_dequantize(0, p) == 0.0

    def test_restricted_rejects_unused_min_code(self):
        p = symmetric_params(1.0, 8, "restricted")
        with pytest.raises(CodeOutOfDomain):
            uniform_dequantize(-128, p)


class TestQuantizeSlice:
    def test_three_point_slice(self):
        assert oracle.quantize_slice_affine([-1.0, 0.0, 1.0], 4) == (
            0.13333333333333333, 0, [-8, 0, 7])
        params, codes = quantize_slice([-1.0, 0.0, 1.0], AFFINE, 4)
        assert codes.tolist() == [-8, 0, 7]
        assert params.scale == 0.13333333333333333
        assert params.zero_point == 0

    def test_constant_slice_reconstructs_exactly(self):
        for scheme in (AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL):
            params, codes = quantize_slice([0.7, 0.7, 0.7], scheme, 4)
            assert dequantize_slice(codes, params).tolist() == [0.7, 0.7, 0.7]

    def test_all_zero_slice(self):
        params, codes = quantize_slice([0.0, 0.0], AFFINE, 4)
        assert codes.tolist() == [0, 0]
        assert dequantize_slice(codes, params).tolist() == [0.0, 0.0]

    def test_two_bit_affine_slice(self):
        # Oracle-derived under half-away-from-zero rounding: 0.5/s + z is an
        # exact -0.5 tie in float64, so 0.5 rounds down to code -1.
        s, z, codes = oracle.quantize_slice_affine([0.0, 0.25, 0.5, 1.0], 2)
        assert (s, z, codes) == (0.3333333333333333, -2, [-2, -1, -1, 1])
        params, got = quantize_slice([0.0, 0.25, 0.5, 1.0], AFFINE, 2)
        assert got.tolist() == [-2, -1, -1, 1]
        assert dequantize_slice(got, params).tolist() == [
            0.0, 0.3333333333333333, 0.3333333333333333, 1.0]

    def test_empty_slice(self):
        with pytest.raises(EmptySlice):
            quantize_slice([], AFFINE, 4)

    def test_non_finite_slice(self):
        with pytest.raises(InvalidValue):
            quantize_slice([0.0, np.nan], AFFINE, 4)

    def test_degenerate_params_shape(self):
        p = degenerate_params(-0.25, 4)
        assert p.scale == 0.25 and p.zero_point == 0
        assert uniform_dequantize(-1, p) == -0.25


ranges = st.tuples(st.floats(-8, 8), st.floats(1e-3, 8)).map(
    lambda t: (t[0], t[0] + t[1]))


class TestProperties:
    @given(rng=ranges, bits=st.integers(2, 8),
           scheme=st.sampled_from([AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL]),
           fractions=st.lists(st.floats(0, 1), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_within_one_step(self, rng, bits, scheme, fractions):
        beta, alpha = rng
        if scheme == AFFINE:
            params = affine_params(ClipRange(beta, alpha), bits)
        else:
            bound = max(abs(beta), abs(alpha))
            variant = "restricted" if scheme == SYMMETRIC_RESTRICTED else "full"
            params = symmetric_params(bound, bits, variant)
            beta, alpha = -bound, bound
        values = np.array([beta + f * (alpha - beta) for f in fractions])
        codes = uniform_quantize(values, params)
        err = np.abs(uniform_dequantize(codes, params) - values)
        assert np.all(err <= params.scale + 1e-12)

    @given(rng=ranges, bits=st.integers(2, 8),
           pair=st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    @settings(max_examples=200, deadline=None)
    def test_order_preserved(self, rng, bits, pair):
        params = affine_params(ClipRange(*rng), bits)
        r1, r2 = min(pair), max(pair)
        assert uniform_quantize(r1, params) <= uniform_quantize(r2, params)

    @given(rng=ranges, bits=st.integers(2, 8),
           scheme=st.sampled_from([AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL]))
    @settings(max_examples=100, deadline=None)
    def test_codes_are_fixed_points(self, rng, bits, scheme):
        beta, alpha = rng
        if scheme == AFFINE:
            params = affine_params(ClipRange(beta, alpha), bits)
        else:
            variant = "restricted" if scheme == SYMMETRIC_RESTRICTED else "full"
            params = symmetric_params(max(abs(beta), abs(alpha)), bits, variant)
        lo, hi = params.code_domain()
        codes = np.arange(lo, hi + 1)
        again = uniform_quantize(uniform_dequantize(codes, params), params)
        assert np.array_equal(again, codes)

    @given(alpha=st.floats(1e-3, 8), bits=st.integers(2, 8),
           r=st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_negation(self, alpha, bits, r):
        params = symmetric_params(alpha, bits, "full")
        plus = uniform_quantize(abs(r), params)
        if plus < (1 << (bits - 1)) - 1:  # skip saturation at the lopsided end
            assert uniform_quantize(-abs(r), params) == -plus

    @given(values=st.lists(st.floats(-5, 5), min_size=2, max_size=40),
           bits=st.integers(2, 8))
    @example(values=[0.0, 5e-324], bits=2)  # the step underflows to 0
    @settings(max_examples=200, deadline=None)
    def test_slice_codes_in_domain_and_endpoints(self, values, bits):
        params, codes = quantize_slice(values, AFFINE, bits)
        lo, hi = params.code_domain()
        assert codes.min() >= lo and codes.max() <= hi
        rec = dequantize_slice(codes, params)
        vmin, vmax = min(values), max(values)
        i_min, i_max = values.index(vmin), values.index(vmax)
        assert abs(rec[i_min] - vmin) <= params.scale / 2 + 1e-12
        assert abs(rec[i_max] - vmax) <= params.scale / 2 + 1e-12

    @given(values=st.lists(st.floats(-5, 5), min_size=1, max_size=40),
           bits=st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_restricted_never_uses_extreme_code(self, values, bits):
        params, codes = quantize_slice(values, SYMMETRIC_RESTRICTED, bits)
        assert codes.min() >= -(1 << (bits - 1)) + 1
