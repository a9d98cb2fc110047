import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    AFFINE,
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    GRANULARITIES,
    LAYER_WISE,
    PWLQ,
    SYMMETRIC_RESTRICTED,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    element_index,
    pack_codes,
    quantize_tensor,
    tensor_store,
)
from convquant.errors import BreakpointOutOfRange, CorruptCodes, IncompatibleBits, InvalidInput
from convquant.granularity import (
    GROUP_LAYOUT,
    _as_group_matrix,
    _Blocks,
    _view_dims,
    group_count,
)
from convquant.pwlq import PWLQ_KIND, scaled_squares
from convquant.uniform import KIND_BY_SCHEME

from conftest import gaussian_tensor, unpacked
import scalar_oracle as oracle

shapes = st.tuples(st.integers(1, 5), st.integers(1, 5),
                   st.integers(1, 4), st.integers(1, 4))


def expected_group_count(dims, scheme):
    n, c, h, w = dims
    return {LAYER_WISE: 1, FILTER_WISE: n, CHANNEL_WISE: n * c,
            F_SHAPE_WISE: c * h * w, C_SHAPE_WISE: n * h * w}[scheme]


class TestPartition:
    def test_layer_wise_single_group(self):
        assert group_count(TensorShape(2, 3, 4, 5), LAYER_WISE) == 1

    def test_f_shape_group_count_and_size(self):
        # Enumeration oracle: distinct (c, h, w) tuples.
        shape = TensorShape(2, 3, 4, 5)
        distinct = {(c, h, w) for c in range(3) for h in range(4) for w in range(5)}
        assert len(distinct) == 60
        assert group_count(shape, F_SHAPE_WISE) == 60
        assert shape.element_count // group_count(shape, F_SHAPE_WISE) == 2

    def test_channel_wise_on_1x1_kernels(self):
        shape = TensorShape(64, 64, 1, 1)
        assert group_count(shape, CHANNEL_WISE) == 4096
        assert shape.element_count // group_count(shape, CHANNEL_WISE) == 1

    def test_unknown_scheme(self):
        with pytest.raises(InvalidInput):
            group_count(TensorShape(1, 1, 1, 1), "per-banana")

    def test_group_counts_on_a_thousand_random_shapes(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            dims = tuple(int(d) for d in rng.integers(1, 65, size=4))
            scheme = GRANULARITIES[int(rng.integers(len(GRANULARITIES)))]
            count = group_count(TensorShape(*dims), scheme)
            assert count == expected_group_count(dims, scheme)
            assert TensorShape(*dims).element_count % count == 0

    @given(dims=shapes, scheme=st.sampled_from(GRANULARITIES))
    @settings(max_examples=100, deadline=None)
    def test_group_ids_cover_and_balance(self, dims, scheme):
        shape = TensorShape(*dims)
        count = expected_group_count(dims, scheme)
        assert group_count(shape, scheme) == count
        mat = _as_group_matrix(np.arange(shape.element_count), shape, scheme)
        assert mat.shape == (count, shape.element_count // count)
        assert np.array_equal(np.sort(mat, axis=None), np.arange(shape.element_count))


def reference_group(dims, scheme, n, c, h, w):
    """Group id of element (n, c, h, w), from the granularity definitions."""
    _, C, H, W = dims
    return {LAYER_WISE: 0, FILTER_WISE: n, CHANNEL_WISE: n * C + c,
            F_SHAPE_WISE: (c * H + h) * W + w, C_SHAPE_WISE: (n * H + h) * W + w}[scheme]


def _from_group_matrix(mat, shape, scheme):
    """Inverse of _as_group_matrix; returns a flat row-major array."""
    order = sum(GROUP_LAYOUT[scheme], ())
    dims = _view_dims(shape)
    grouped = mat.reshape([dims[axis] for axis in order]).transpose(np.argsort(order))
    return np.ascontiguousarray(grouped).reshape(-1)


class TestGatherScatter:
    @given(dims=shapes, scheme=st.sampled_from(GRANULARITIES))
    @settings(max_examples=100, deadline=None)
    def test_matrix_round_trip_is_identity(self, dims, scheme):
        shape = TensorShape(*dims)
        flat = np.arange(shape.element_count)
        mat = _as_group_matrix(flat, shape, scheme)
        count = group_count(shape, scheme)
        assert mat.shape == (count, shape.element_count // count)
        assert np.array_equal(_from_group_matrix(mat, shape, scheme), flat)

    @given(dims=shapes, scheme=st.sampled_from(GRANULARITIES))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_groups_in_ascending_flat_order(self, dims, scheme):
        shape = TensorShape(*dims)
        members = {}
        for n, c, h, w in np.ndindex(*dims):
            g = reference_group(dims, scheme, n, c, h, w)
            members.setdefault(g, []).append(element_index(shape, n, c, h, w))
        mat = _as_group_matrix(np.arange(shape.element_count), shape, scheme)
        assert len(mat) == len(members)
        for g, expected in members.items():
            assert np.array_equal(np.asarray(mat[g]), sorted(expected))


def reference_square_sums(flat, shape, scheme, m):
    """Per group, each filter's part of it summed with np.add.reduce as one
    contiguous row, then the parts added in filter order."""
    groups, runs = GROUP_LAYOUT[scheme]
    dims = _view_dims(shape)
    squares = scaled_squares(flat.astype(np.float64).reshape(dims),
                             m.reshape([d if a in groups else 1 for a, d in enumerate(dims)]))
    per_filter = len(m) // shape.n if 0 in groups else len(m)
    sums = [0.0] * len(m)
    for f, part in enumerate(squares):
        part = np.ascontiguousarray(part.transpose([a - 1 for a in groups + runs if a]))
        for i, row in enumerate(part.reshape(per_filter, -1)):
            g = f * per_filter + i if 0 in groups else i
            sums[g] = sums[g] + np.add.reduce(row)
    return np.array(sums)


SQUARE_SUM_CASES = ([(LAYER_WISE, (64, 64, 3, 3))]
                    + [(scheme, (40, 8, 3, 3)) for scheme in GRANULARITIES]
                    + [(F_SHAPE_WISE, (20, 1, 1, 1)), (C_SHAPE_WISE, (1, 300, 3, 3))])


class TestSquareSums:
    @pytest.mark.parametrize("scheme,dims", SQUARE_SUM_CASES,
                             ids=[f"{s}-{'x'.join(map(str, d))}" for s, d in SQUARE_SUM_CASES])
    def test_sums_follow_the_defined_order_in_any_blocks(self, monkeypatch, scheme, dims):
        # 64x64x3x3 spans several blocks. With f32 values the order shows:
        # in another one, such as pairwise over a whole group, most of these
        # sums move by ulps.
        shape = TensorShape(*dims)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            flat = rng.laplace(0.0, 0.05, shape.element_count).astype(np.float32)
            m = np.abs(_as_group_matrix(flat.astype(np.float64), shape, scheme)).max(axis=1)
            expected = reference_square_sums(flat, shape, scheme, m).tobytes()
            for block in (1, 97, tensor_store.BLOCK):
                monkeypatch.setattr(tensor_store, "BLOCK", block)
                sums = _Blocks(shape, scheme).square_sums(WeightTensor("t", shape, flat), m)
                assert sums.tobytes() == expected, (seed, block)


class TestQuantizeTensor:
    def test_filter_wise_two_bit_example(self):
        sA, zA, cA = oracle.quantize_slice_affine([1.0, 2.0], 2)
        sB, zB, cB = oracle.quantize_slice_affine([3.0, 4.0], 2)
        assert (sA, zA, cA) == (0.3333333333333333, -5, [-2, 1])
        assert (sB, zB, cB) == (0.3333333333333333, -11, [-2, 1])

        t = WeightTensor("t", TensorShape(2, 1, 1, 2), np.array([1.0, 2.0, 3.0, 4.0]))
        q = quantize_tensor(t, FILTER_WISE, AFFINE, 2)
        assert unpacked(q)[0].tolist() == [-2, 1, -2, 1]
        assert q.params[["scale", "zero_point"]].tolist() == [
            (0.3333333333333333, -5), (0.3333333333333333, -11)]
        rec = dequantize_tensor(q)
        assert rec.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("scheme", GRANULARITIES)
    def test_constant_tensor_reconstructs_exactly(self, scheme):
        t = WeightTensor("t", TensorShape(2, 3, 2, 2), np.full(24, 0.7))
        q = quantize_tensor(t, scheme, AFFINE, 4)
        assert not q.passthrough
        assert dequantize_tensor(q).values.tolist() == [0.7] * 24

    def test_channel_wise_1x1_passthrough(self):
        t = gaussian_tensor((8, 8, 1, 1), seed=1)
        q = quantize_tensor(t, CHANNEL_WISE, AFFINE, 4)
        assert q.passthrough
        assert q.codes is None
        assert np.array_equal(dequantize_tensor(q).values, t.values)

    def test_channel_wise_normal_kernel_still_quantizes(self):
        t = gaussian_tensor((4, 4, 3, 3), seed=2)
        q = quantize_tensor(t, CHANNEL_WISE, AFFINE, 4)
        assert not q.passthrough
        assert q.group_count == 16

    def test_pwlq_rejects_two_bits(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=3)
        with pytest.raises(IncompatibleBits):
            quantize_tensor(t, FILTER_WISE, PWLQ, 2)

    def test_bits_out_of_range(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=3)
        with pytest.raises(IncompatibleBits):
            quantize_tensor(t, FILTER_WISE, AFFINE, 9)

    def test_pwlq_round_trip_and_regions(self):
        t = gaussian_tensor((4, 4, 3, 3), seed=4)
        q = quantize_tensor(t, FILTER_WISE, PWLQ, 4)
        assert q.region_bits is not None and len(unpacked(q)[1]) == 144
        assert np.all(q.params["kind"] == PWLQ_KIND)
        rec = dequantize_tensor(q)
        worst = max(q.params["center"]["scale"].max(), q.params["pos_tail"]["scale"].max())
        assert np.max(np.abs(rec.values - t.values)) <= worst + 1e-12

    def test_pwlq_all_zero_group_degenerates_to_uniform(self):
        values = np.concatenate([np.zeros(9), np.random.default_rng(5).normal(size=9)])
        t = WeightTensor("t", TensorShape(2, 1, 3, 3), values)
        q = quantize_tensor(t, FILTER_WISE, PWLQ, 4)
        assert q.params["kind"].tolist() == [KIND_BY_SCHEME[AFFINE], PWLQ_KIND]
        rec = dequantize_tensor(q)
        assert rec.values[:9].tolist() == [0.0] * 9

    def test_pwlq_constant_nonzero_group_routes_to_tail(self):
        t = WeightTensor("t", TensorShape(1, 1, 2, 2), np.full(4, 0.25))
        q = quantize_tensor(t, LAYER_WISE, PWLQ, 4)
        assert q.params["kind"][0] == PWLQ_KIND
        assert np.all(unpacked(q)[1] == 1)

    @pytest.mark.parametrize("mode", ["approx", "bruteforce"])
    def test_kernel_errors_name_the_tensor_and_group(self, mode):
        # The last filter's only nonzero value is the smallest subnormal, so
        # every breakpoint p/m < 1/2 rounds to 0. Each filter is longer than
        # one block of the breakpoint search.
        values = np.random.default_rng(10).normal(0, 0.05, size=3 * 9000)
        values[2 * 9000:] = 0.0
        values[2 * 9000] = 5e-324
        t = WeightTensor("conv.w", TensorShape(3, 1, 1, 9000), values, 32)
        with pytest.raises(BreakpointOutOfRange, match=r"^conv\.w: group 2: "):
            quantize_tensor(t, FILTER_WISE, PWLQ, 4, breakpoint_mode=mode)

    @pytest.mark.parametrize("scheme", GRANULARITIES)
    def test_reconstruction_error_bounded_by_group_steps(self, scheme):
        t = gaussian_tensor((4, 3, 3, 3), seed=6)
        q = quantize_tensor(t, scheme, AFFINE, 4)
        if q.passthrough:
            return
        bound = q.params["scale"].max()
        err = np.abs(dequantize_tensor(q).values - t.values)
        assert np.max(err) <= bound + 1e-12

    def test_deterministic(self):
        t = gaussian_tensor((4, 4, 3, 3), seed=8)
        a = quantize_tensor(t, C_SHAPE_WISE, PWLQ, 4)
        b = quantize_tensor(t, C_SHAPE_WISE, PWLQ, 4)
        (codes_a, regions_a), (codes_b, regions_b) = unpacked(a), unpacked(b)
        assert np.array_equal(codes_a, codes_b)
        assert np.array_equal(regions_a, regions_b)
        assert np.array_equal(a.params, b.params)


class TestDequantizeTensor:
    def test_corrupt_codes_detected(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=9)
        # Packed 3-bit codes lie in [-4, 3]; -4 is outside the
        # symmetric-restricted domain.
        q = quantize_tensor(t, FILTER_WISE, SYMMETRIC_RESTRICTED, 3)
        codes, _ = unpacked(q)
        codes[0] = -4
        q.codes = pack_codes(codes, 3)
        with pytest.raises(CorruptCodes):
            dequantize_tensor(q)

    def test_wrong_code_length_detected(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=9)
        q = quantize_tensor(t, FILTER_WISE, AFFINE, 3)
        q.codes = pack_codes(unpacked(q)[0][:-1], 3)
        with pytest.raises(CorruptCodes):
            dequantize_tensor(q)

    def test_missing_region_bitmap_detected(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=10)
        q = quantize_tensor(t, FILTER_WISE, PWLQ, 4)
        q.region_bits = None
        with pytest.raises(CorruptCodes):
            dequantize_tensor(q)


class TestStatisticalRefinement:
    def test_finer_grouping_reduces_error_on_gaussian_tensors(self):
        wins = 0
        for seed in range(30):
            t = gaussian_tensor((16, 8, 3, 3), seed=seed)
            mses = {}
            for scheme in (LAYER_WISE, FILTER_WISE):
                q = quantize_tensor(t, scheme, AFFINE, 4)
                rec = dequantize_tensor(q)
                mses[scheme] = float(np.mean((rec.values - t.values) ** 2))
            if mses[LAYER_WISE] >= mses[FILTER_WISE]:
                wins += 1
        assert wins >= 27
