import itertools

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
    MemoryModel,
    TensorShape,
    WeightTensor,
    figure_of_merit,
    make_passthrough,
    memory_bytes,
    quantize_tensor,
    select_granularity,
)
from convquant import granularity, metrics
from convquant.cli import AUTO_CANDIDATES
from convquant.errors import InvalidInput, NoViableCandidate
from convquant.granularity import group_layout
from convquant.metrics import SELECTION_PREFERENCE, baseline_bytes

from conftest import decoded_error, gaussian_tensor, memory_saving, unpacked
import scalar_oracle as oracle

ALL_FOUR = (FILTER_WISE, CHANNEL_WISE, F_SHAPE_WISE, C_SHAPE_WISE)


class TestMeasuredError:
    def test_passthrough_reports_zero(self):
        t = gaussian_tensor((4, 4, 1, 1), seed=0)
        q = quantize_tensor(t, CHANNEL_WISE, AFFINE, 4)
        report = q.error
        assert report.mse == 0.0 and report.max_abs == 0.0
        assert report.element_count == 16

    def test_exact_reconstruction_reports_zero(self):
        t = WeightTensor("t", TensorShape(2, 1, 1, 2), np.array([1.0, 2.0, 3.0, 4.0]))
        q = quantize_tensor(t, FILTER_WISE, AFFINE, 2)
        report = q.error
        assert report.mse == 0.0 and report.max_abs == 0.0

    def test_two_bit_layer_example(self):
        # [0, 1] hits both endpoints exactly; [0, 0.5, 1] leaves one interior
        # error of 1/6 (oracle-computed).
        t = WeightTensor("t", TensorShape(2, 1, 1, 1), np.array([0.0, 1.0]))
        q = quantize_tensor(t, LAYER_WISE, AFFINE, 2)
        assert q.error.mse == 0.0

        s, z, codes = oracle.quantize_slice_affine([0.0, 0.5, 1.0], 2)
        rec = [oracle.dequantize(c, s, z) for c in codes]
        assert oracle.mse([0.0, 0.5, 1.0], rec) == 0.00925925925925926

        t3 = WeightTensor("t", TensorShape(3, 1, 1, 1), np.array([0.0, 0.5, 1.0]))
        q3 = quantize_tensor(t3, LAYER_WISE, AFFINE, 2)
        report = q3.error
        assert report.mse == pytest.approx(0.00925925925925926, rel=1e-12)
        assert report.max_abs == pytest.approx(0.16666666666666669, rel=1e-12)


class TestSelectGranularity:
    def test_tie_breaks_by_preference_order(self):
        t = WeightTensor("t", TensorShape(2, 3, 2, 2), np.full(24, 0.7))
        scheme, q = select_granularity(t, {FILTER_WISE, F_SHAPE_WISE}, AFFINE, 4)
        assert scheme == F_SHAPE_WISE  # both mse 0, f-shape preferred

    def test_single_passthrough_candidate_is_returned(self):
        t = gaussian_tensor((4, 4, 1, 1), seed=2)
        for method, mode in ((AFFINE, "approx"), (PWLQ, "bruteforce")):
            scheme, q = select_granularity(t, {CHANNEL_WISE}, method, 4, breakpoint_mode=mode)
            assert scheme == CHANNEL_WISE and q.passthrough

    def test_passthrough_excluded_when_alternatives_exist(self):
        t = gaussian_tensor((4, 4, 1, 1), seed=3)
        scheme, q = select_granularity(t, ALL_FOUR, AFFINE, 4)
        assert scheme != CHANNEL_WISE and not q.passthrough

    def test_returns_the_minimum_mse_candidate(self):
        t = gaussian_tensor((16, 8, 3, 3), seed=4)
        scheme, q = select_granularity(t, ALL_FOUR, AFFINE, 4)
        chosen = decoded_error(t, q).mse
        individually = {
            s: decoded_error(t, quantize_tensor(t, s, AFFINE, 4)).mse
            for s in ALL_FOUR}
        assert chosen == min(individually.values())
        assert individually[scheme] == chosen

    def test_empty_candidates(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=5)
        with pytest.raises(NoViableCandidate):
            select_granularity(t, set(), AFFINE, 4)

    def test_unknown_candidate(self):
        t = gaussian_tensor((2, 2, 2, 2), seed=5)
        with pytest.raises(InvalidInput):
            select_granularity(t, {"nope"}, AFFINE, 4)

    def test_pwlq_selection(self):
        t = gaussian_tensor((8, 4, 3, 3), seed=6)
        scheme, q = select_granularity(t, (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE),
                                       PWLQ, 4)
        assert q.method == PWLQ and scheme in (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE)

    @pytest.mark.parametrize("seed", range(4))
    def test_bruteforce_searches_only_the_closed_form_winner(self, monkeypatch, seed):
        t = gaussian_tensor((16, 8, 3, 3), seed=seed, scale=0.05)
        auto3 = (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE)
        scheme, q = select_granularity(t, auto3, PWLQ, 4)
        searches = []
        search = granularity._search_breakpoints
        monkeypatch.setattr(granularity, "_search_breakpoints",
                            lambda *args: searches.append(args) or search(*args))
        found_scheme, found = select_granularity(t, auto3, PWLQ, 4, breakpoint_mode="bruteforce")
        assert (found_scheme, len(searches)) == (scheme, 1)
        assert found.error.mse <= q.error.mse
        assert unpacked(found)[0].tobytes() == unpacked(quantize_tensor(
            t, scheme, PWLQ, 4, breakpoint_mode="bruteforce"))[0].tobytes()


# Shapes with and without unit axes: a k x k kernel, a 1x1 kernel, one input
# channel, one filter and a single weight.
UNIT_AXIS_SHAPES = {"kxk": (6, 4, 3, 3), "1x1": (8, 6, 1, 1), "c1": (6, 1, 3, 3),
                    "n1": (1, 5, 3, 3), "1x1x1x1": (1, 1, 1, 1)}


def spread_tensor(dims, seed):
    """f16-snapped Gaussian weights whose filters and input channels have
    log-normally spread scales, so that different granularities win."""
    rng = np.random.default_rng(seed)
    n, c = dims[:2]
    values = (0.05 * rng.normal(size=dims) * np.exp(rng.normal(0.0, 1.0, (n, 1, 1, 1)))
              * np.exp(rng.normal(0.0, 1.0, (1, c, 1, 1))))
    return WeightTensor("t", TensorShape(*dims),
                        values.astype(np.float16).astype(np.float64).reshape(-1))


def select_every_candidate(t, candidates, method, bits, mode, grid_points):
    """select_granularity as it would run quantizing every candidate."""
    ranked = [s for s in SELECTION_PREFERENCE if s in set(candidates)]
    search = method == PWLQ and mode == "bruteforce"
    best = None
    for scheme in ranked:
        q = quantize_tensor(t, scheme, method, bits, "approx" if search else mode)
        if q.passthrough:
            if len(ranked) == 1:
                return scheme, q
            continue
        if best is None or q.error.mse < best[1].error.mse:
            best = (scheme, q)
    if search:
        best = best[0], quantize_tensor(t, best[0], method, bits, mode, grid_points)
    return best


def same_result(a, b) -> bool:
    """Byte-identical params, codes, region bits and values, and equal errors."""
    def same(x, y):
        return (x is None) == (y is None) and (x is None or bytes(x) == bytes(y))
    return (a.passthrough == b.passthrough and a.error == b.error
            and same(a.codes and a.codes.data, b.codes and b.codes.data)
            and all(same(getattr(a, f), getattr(b, f))
                    for f in ("params", "region_bits", "values")))


class TestLayoutDedupe:
    @pytest.mark.parametrize("method,mode", [(AFFINE, "approx"), (PWLQ, "approx"),
                                             (PWLQ, "bruteforce")])
    @pytest.mark.parametrize("auto", sorted(AUTO_CANDIDATES))
    @pytest.mark.parametrize("dims", UNIT_AXIS_SHAPES.values(), ids=UNIT_AXIS_SHAPES)
    def test_matches_quantizing_every_candidate(self, dims, auto, method, mode):
        for seed in range(3):
            t = spread_tensor(dims, seed)
            args = (t, AUTO_CANDIDATES[auto], method, 4)
            scheme, q = select_granularity(*args, breakpoint_mode=mode, grid_points=8)
            expected_scheme, expected = select_every_candidate(*args, mode, 8)
            assert scheme == expected_scheme
            assert same_result(q, expected)

    @pytest.mark.parametrize("method", [AFFINE, PWLQ])
    @pytest.mark.parametrize("dims", UNIT_AXIS_SHAPES.values(), ids=UNIT_AXIS_SHAPES)
    def test_equal_layouts_quantize_alike(self, dims, method):
        t = spread_tensor(dims, 0)
        for a, b in itertools.combinations(GRANULARITIES, 2):
            qa, qb = (quantize_tensor(t, scheme, method, 4) for scheme in (a, b))
            if qa.passthrough or qb.passthrough:
                continue
            if group_layout(t.shape, a) == group_layout(t.shape, b):
                assert same_result(qa, qb), (a, b)
            else:
                assert not same_result(qa, qb), (a, b)

    @pytest.mark.parametrize("dims,auto,calls", [
        ("kxk", "auto3", 3), ("kxk", "auto", 4), ("1x1", "auto3", 2), ("1x1", "auto", 3),
        ("c1", "auto", 3), ("n1", "auto", 4), ("1x1x1x1", "auto", 1)])
    def test_one_quantization_per_distinct_layout(self, monkeypatch, dims, auto, calls):
        made = []
        quantize = metrics.quantize_tensor
        monkeypatch.setattr(metrics, "quantize_tensor",
                            lambda t, scheme, *args, **kwargs:
                            made.append(scheme) or quantize(t, scheme, *args, **kwargs))
        select_granularity(spread_tensor(UNIT_AXIS_SHAPES[dims], 0), AUTO_CANDIDATES[auto],
                           PWLQ, 4)
        assert len(made) == calls, made


def quantized(shape_dims, scheme, method=AFFINE, bits=4, seed=0):
    t = gaussian_tensor(shape_dims, seed=seed)
    return quantize_tensor(t, scheme, method, bits)


class TestMemoryModel:
    def test_worked_f_shape_example(self):
        assert oracle.group_bytes(36864, 4, 576, 4) == 20736
        q = quantized((64, 64, 3, 3), F_SHAPE_WISE)
        mm = MemoryModel()
        assert memory_bytes(q, mm) == 20736
        assert baseline_bytes(q, mm) == 73728
        assert memory_saving([q]) == pytest.approx(3.5556, abs=5e-5)

    def test_worked_layer_example(self):
        assert oracle.group_bytes(36864, 4, 1, 4) == 18436
        q = quantized((64, 64, 3, 3), LAYER_WISE)
        mm = MemoryModel()
        assert memory_bytes(q, mm) == 18436
        assert memory_saving([q]) == pytest.approx(3.9991, abs=5e-5)

    def test_passthrough_counts_at_baseline(self):
        q = quantized((16, 16, 1, 1), CHANNEL_WISE)
        assert q.passthrough
        mm = MemoryModel()
        assert memory_bytes(q, mm) == baseline_bytes(q, mm) == 512
        assert memory_saving([q]) == 1.0

    def test_region_bits_charged_only_for_pwlq(self):
        mm_off = MemoryModel()
        mm_on = MemoryModel(charge_region_bits=True)
        qp = quantized((8, 8, 3, 3), FILTER_WISE, method=PWLQ)
        qa = quantized((8, 8, 3, 3), FILTER_WISE, method=AFFINE)
        extra = -(-qp.element_count // 8)
        assert memory_bytes(qp, mm_on) == memory_bytes(qp, mm_off) + extra
        assert memory_bytes(qa, mm_on) == memory_bytes(qa, mm_off)

    def test_param_cost_per_method(self):
        mm = MemoryModel()
        q_sym = quantized((4, 4, 3, 3), FILTER_WISE, method="symmetric-full")
        q_aff = quantized((4, 4, 3, 3), FILTER_WISE, method=AFFINE)
        q_pw = quantized((4, 4, 3, 3), FILTER_WISE, method=PWLQ)
        codes = -(-q_aff.element_count * 4 // 8)
        assert memory_bytes(q_sym, mm) == codes + 4 * 2
        assert memory_bytes(q_aff, mm) == codes + 4 * 4
        assert memory_bytes(q_pw, mm) == codes + 4 * 10

    def test_ratio_approaches_bit_ratio_for_large_groups(self):
        q = quantized((8, 32, 8, 8), LAYER_WISE)  # G/E = 1/16384
        ratio = memory_saving([q])
        assert ratio <= 16 / 4
        assert ratio > (16 / 4) * 0.99

    def test_excluded_tensor_drags_ratio_toward_one(self):
        kept = quantized((8, 8, 3, 3), F_SHAPE_WISE)
        skipped = make_passthrough(gaussian_tensor((8, 8, 3, 3), seed=1),
                                   LAYER_WISE, AFFINE, 4)
        both = memory_saving([kept, skipped])
        assert 1.0 < both < memory_saving([kept])

    def test_model_validation(self):
        with pytest.raises(InvalidInput):
            MemoryModel(param_bytes_affine=0)


class TestMixedSelection:
    def test_auto_selection_never_beaten_by_fixed_choice(self):
        tensors = [gaussian_tensor((8, 4, 3, 3), seed=s) for s in range(6)]
        candidates = (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE)
        auto_sse = 0.0
        fixed_sse = {s: 0.0 for s in candidates}
        for t in tensors:
            _, q = select_granularity(t, candidates, AFFINE, 4)
            auto_sse += decoded_error(t, q).mse * t.shape.element_count
            for s in candidates:
                fixed = quantize_tensor(t, s, AFFINE, 4)
                fixed_sse[s] += decoded_error(t, fixed).mse * t.shape.element_count
        for s in candidates:
            assert auto_sse <= fixed_sse[s] + 1e-15


class TestFigureOfMerit:
    def test_known_values(self):
        assert figure_of_merit(3.86, 1.0) == 1.93
        assert figure_of_merit(3.92, 2.5) == pytest.approx(1.12, abs=5e-3)

    def test_zero_loss_identity(self):
        assert figure_of_merit(4.0, 0.0) == 4.0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            figure_of_merit(0.0, 1.0)
        with pytest.raises(InvalidInput):
            figure_of_merit(4.0, -0.5)

    @given(saving=st.floats(0.1, 100), loss=st.floats(0, 100),
           more=st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, saving, loss, more):
        base = figure_of_merit(saving, loss)
        assert figure_of_merit(saving + more, loss) > base
        assert figure_of_merit(saving, loss + more) < base
