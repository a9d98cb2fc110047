"""Acceptance suite: one test per release criterion, each printing a
summary line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values tagged "oracle" below were computed with the pure-Python
scalar reference in scalar_oracle.py and frozen; integer codes must match
exactly and reals to 1e-6 relative.
"""

import csv
import os

import numpy as np
import pytest

from convquant import (
    AFFINE,
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    LAYER_WISE,
    PWLQ,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    MemoryModel,
    TensorShape,
    WeightTensor,
    baseline_bytes,
    dequantize_tensor,
    element_index,
    figure_of_merit,
    iter_manifest,
    make_passthrough,
    memory_bytes,
    open_container,
    pack_codes,
    quantize_tensor,
    resolve_exclusions,
    select_granularity,
    unpack_codes,
    write_container,
)
from convquant import pwlq, uniform
from convquant.cli import main
from convquant.granularity import group_count

from conftest import (bruteforce, closed_form, decoded_error, gaussian_tensor, matrix_tensor,
                      memory_saving, unpacked, write_manifest)
import masked_pwlq as masked
from masked_pwlq import CENTER, POS_TAIL
import scalar_oracle as oracle


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def slice_mse(values, method, bits):
    """MSE of ``values`` quantized as one group (pwlq: closed-form breakpoint)."""
    q = quantize_tensor(matrix_tensor([values]), FILTER_WISE, method, bits)
    return float(np.mean((values - dequantize_tensor(q).values) ** 2))


def pwlq_mse(values, bits, p):
    records = pwlq.group_records(bits, np.min(values, keepdims=True),
                                 np.max(values, keepdims=True), np.array([p]))
    table = pwlq.piece_table(records, bits)
    tail, codes, _ = pwlq.encode(values, table, bits)
    return float(np.mean((values - pwlq.decode(table, tail, codes)) ** 2))


# ---------------------------------------------------------------------------
# Criterion 1: scalar oracle suite
# ---------------------------------------------------------------------------

def scalar_cases():
    """(name, oracle value, frozen value, library value) for derived examples."""
    cases = []

    def case(name, oracle_value, frozen, library_value):
        cases.append((name, oracle_value, frozen, library_value))

    t2345 = TensorShape(2, 3, 4, 5)
    case("element_index interior",
         oracle.element_index_by_enumeration((2, 3, 4, 5), (1, 2, 3, 4)),
         119, element_index(t2345, 1, 2, 3, 4))
    case("glob exclusion",
         oracle.resolve_exclusions(["conv1", "bn1"], ["bn*"]),
         ["bn1"], sorted(resolve_exclusions(["conv1", "bn1"], ["bn*"])))

    minus_one, zero, one = np.array([-1.0]), np.array([0.0]), np.array([1.0])
    p_a4 = uniform.range_records(AFFINE, 4, minus_one, one)[0]
    p_a8 = uniform.range_records(AFFINE, 8, zero, one)[0]
    case("affine scale [-1,1] k4", oracle.affine_params(-1.0, 1.0, 4)[0],
         0.13333333333333333, p_a4["scale"])
    case("affine zero-point [-1,1] k4", oracle.affine_params(-1.0, 1.0, 4)[1],
         0, p_a4["zero_point"])
    case("affine scale [0,1] k8", oracle.affine_params(0.0, 1.0, 8)[0],
         0.00392156862745098, p_a8["scale"])
    case("affine zero-point [0,1] k8", oracle.affine_params(0.0, 1.0, 8)[1],
         -128, p_a8["zero_point"])
    case("symmetric restricted scale", oracle.symmetric_scale(1.0, 8, "restricted"),
         0.007874015748031496,
         uniform.range_records(SYMMETRIC_RESTRICTED, 8, minus_one, one)["scale"][0])
    case("symmetric full scale", oracle.symmetric_scale(1.0, 8, "full"),
         0.00784313725490196,
         uniform.range_records(SYMMETRIC_FULL, 8, minus_one, one)["scale"][0])

    case("quantize 0.5 at affine k4",
         oracle.quantize(0.5, *oracle.affine_params(-1.0, 1.0, 4), -8, 7),
         4, int(uniform.encode(np.array([0.5]), p_a4["scale"], p_a4["zero_point"],
                               -8, 7)[0]))
    case("dequantize code 4",
         oracle.dequantize(4, *oracle.affine_params(-1.0, 1.0, 4)),
         0.5333333333333333,
         uniform.decode(np.array([4]), p_a4["scale"], p_a4["zero_point"])[0])

    q3 = quantize_tensor(matrix_tensor([[-1.0, 0.0, 1.0]]), FILTER_WISE, AFFINE, 4)
    case("slice [-1,0,1] codes", oracle.quantize_slice_affine([-1.0, 0.0, 1.0], 4)[2],
         [-8, 0, 7], unpacked(q3)[0].tolist())

    q2 = quantize_tensor(matrix_tensor([[0.0, 0.25, 0.5, 1.0]]), FILTER_WISE, AFFINE, 2)
    os2, oz2, oc2 = oracle.quantize_slice_affine([0.0, 0.25, 0.5, 1.0], 2)
    case("slice 2-bit codes", oc2, [-2, -1, -1, 1], unpacked(q2)[0].tolist())
    case("slice 2-bit dequant", [oracle.dequantize(c, os2, oz2) for c in oc2],
         [0.0, 0.3333333333333333, 0.3333333333333333, 1.0],
         dequantize_tensor(q2).values.tolist())

    case("breakpoint approx m=1", oracle.breakpoint_approx(1.0),
         0.3847860968997636, closed_form(1.0))
    case("breakpoint approx m=0.1 clamps", oracle.breakpoint_approx(0.1),
         0.005000000000000001, closed_form(0.1))

    # m = max|r| = 1 and p = 0.385 for the group [0.9, -1.0].
    pw = pwlq.group_records(4, np.array([-1.0]), np.array([0.9]), np.array([0.385]))
    pwt = pwlq.piece_table(pw, 4)
    pregions, pcodes = masked.unfold_regions(*pwlq.encode(np.array([0.9, -1.0]), pwt, 4)[:2], 4)
    case("pwlq tail region of 0.9", oracle.pwlq_encode(0.9, 4, 1.0, 0.385)[0] == "pos",
         True, bool(pregions[0] == POS_TAIL))
    case("pwlq tail code of 0.9", oracle.pwlq_encode(0.9, 4, 1.0, 0.385)[1],
         2, int(pcodes[0]))
    case("pwlq decode (pos,2)", oracle.pwlq_decode("pos", 2, 4, 1.0, 0.385),
         0.8785714285714286,
         float(pwlq.decode(pwt, *masked.fold_regions([POS_TAIL], [2], 4))[0]))
    case("pwlq decode (center,7)", oracle.pwlq_decode("center", 7, 4, 1.0, 0.385),
         0.35933333333333334,
         float(pwlq.decode(pwt, *masked.fold_regions([CENTER], [7], 4))[0]))

    case("f-shape group count",
         len({(c, h, w) for c in range(3) for h in range(4) for w in range(5)}),
         60, group_count(t2345, F_SHAPE_WISE))

    t = WeightTensor("t", TensorShape(2, 1, 1, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    q = quantize_tensor(t, FILTER_WISE, AFFINE, 2)
    og0 = oracle.quantize_slice_affine([1.0, 2.0], 2)
    og1 = oracle.quantize_slice_affine([3.0, 4.0], 2)
    case("filter-wise group params", [og0[:2], og1[:2]],
         [(0.3333333333333333, -5), (0.3333333333333333, -11)],
         q.params[["scale", "zero_point"]].tolist())
    case("filter-wise codes", og0[2] + og1[2], [-2, 1, -2, 1], unpacked(q)[0].tolist())
    rec = [oracle.dequantize(c, *og0[:2]) for c in og0[2]] + \
          [oracle.dequantize(c, *og1[:2]) for c in og1[2]]
    case("filter-wise reconstruction", rec, [1.0, 2.0, 3.0, 4.0],
         dequantize_tensor(q).values.tolist())
    case("filter-wise mse", oracle.mse([1.0, 2.0, 3.0, 4.0], rec),
         0.0, q.error.mse)

    case("memory bytes f-shape worked example", oracle.group_bytes(36864, 4, 576, 4),
         20736, memory_bytes(
             quantize_tensor(gaussian_tensor((64, 64, 3, 3), 0), F_SHAPE_WISE,
                             AFFINE, 4), MemoryModel()))
    case("memory bytes layer worked example", oracle.group_bytes(36864, 4, 1, 4),
         18436, memory_bytes(
             quantize_tensor(gaussian_tensor((64, 64, 3, 3), 0), LAYER_WISE,
                             AFFINE, 4), MemoryModel()))

    case("pack [1,-1] k4", oracle.pack_bits([1, -1], 4), b"\x79",
         pack_codes([1, -1], 4).data)
    case("pack [-8] k4", oracle.pack_bits([-8], 4), b"\x00",
         pack_codes([-8], 4).data)

    case("figure of merit 3.86 vs 1.0", 3.86 / (1.0 + 1.0),
         1.93, figure_of_merit(3.86, 1.0))
    case("figure of merit 3.92 vs 2.5", 3.92 / (2.5 + 1.0),
         1.1199999999999999, figure_of_merit(3.92, 2.5))
    return cases


def test_criterion_01_scalar_oracle_suite():
    cases = scalar_cases()
    assert len(cases) >= 20
    for name, oracle_value, frozen, library_value in cases:
        assert oracle_value == frozen, f"{name}: oracle drifted from frozen value"
        if isinstance(frozen, float):
            assert library_value == pytest.approx(frozen, rel=1e-6), name
        elif isinstance(frozen, list) and frozen and isinstance(frozen[0], float):
            assert library_value == pytest.approx(frozen, rel=1e-6), name
        else:
            assert library_value == frozen, name
    report(1, f"{len(cases)} oracle-derived cases matched")


# ---------------------------------------------------------------------------
# Criterion 2: uniform round-trip bound
# ---------------------------------------------------------------------------

def test_criterion_02_round_trip_bound():
    rng = np.random.default_rng(2024)
    total = 0
    violations = 0
    for _ in range(500):
        bits = int(rng.integers(2, 9))
        scheme = [AFFINE, SYMMETRIC_RESTRICTED, SYMMETRIC_FULL][int(rng.integers(3))]
        if scheme == AFFINE:
            beta = float(rng.uniform(-6, 6))
            alpha = beta + float(rng.uniform(1e-3, 8))
        else:
            alpha = float(rng.uniform(1e-3, 8))
            beta = -alpha
        params = uniform.range_records(scheme, bits, np.array([beta]), np.array([alpha]))
        values = rng.uniform(beta, alpha, size=200)
        codes = uniform.encode(values, params["scale"], params["zero_point"],
                               *uniform.code_domain(scheme, bits))
        err = np.abs(uniform.decode(codes, params["scale"], params["zero_point"]) - values)
        total += values.size
        violations += int(np.sum(err > params["scale"]))
    assert total == 100_000
    assert violations == 0
    report(2, f"{total} cases, 0 violations of |dq(q(r)) - r| <= s")


# ---------------------------------------------------------------------------
# Criterion 3: pack/unpack bijection and container round trip
# ---------------------------------------------------------------------------

def _mixed_five_tensor_model():
    return [
        quantize_tensor(gaussian_tensor((4, 4, 3, 3), 0, name="a"), FILTER_WISE,
                        AFFINE, 4),
        quantize_tensor(gaussian_tensor((4, 2, 3, 3), 1, name="b"), F_SHAPE_WISE,
                        SYMMETRIC_RESTRICTED, 5),
        quantize_tensor(gaussian_tensor((2, 4, 2, 2), 2, name="c"), C_SHAPE_WISE,
                        SYMMETRIC_FULL, 3),
        quantize_tensor(gaussian_tensor((4, 4, 3, 3), 3, name="d"), LAYER_WISE,
                        PWLQ, 4),
        quantize_tensor(gaussian_tensor((8, 8, 1, 1), 4, name="e"), CHANNEL_WISE,
                        AFFINE, 4),
    ]


def _assert_field_exact_post_f16(orig, back):
    def check_records(a, b):
        # Kind, bits and zero-points exact; scales, bounds, m and p as binary16.
        assert b.dtype == a.dtype
        for field in a.dtype.names:
            if a.dtype[field].names:
                check_records(a[field], b[field])
            elif field in ("kind", "bits", "zero_point"):
                assert np.array_equal(b[field], a[field])
            else:
                assert np.array_equal(b[field], a[field].astype(np.float16).astype(np.float64))

    assert (back.name, back.shape, back.method, back.scheme, back.bits,
            back.passthrough, back.source_bits) == (
        orig.name, orig.shape, orig.method, orig.scheme, orig.bits,
        orig.passthrough, orig.source_bits)
    if orig.passthrough:
        assert np.array_equal(back.values, orig.values)
        return
    (codes, region_bits), (orig_codes, orig_region_bits) = unpacked(back), unpacked(orig)
    assert np.array_equal(codes, orig_codes)
    if orig.method == PWLQ:
        assert np.array_equal(region_bits, orig_region_bits)
    check_records(orig.params, back.params)


def test_criterion_03_packing_and_container(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(1000):
        bits = int(rng.integers(2, 9))
        half = 1 << (bits - 1)
        codes = rng.integers(-half, half, size=int(rng.integers(0, 120)))
        assert np.array_equal(unpack_codes(pack_codes(codes, bits)), codes)

    tensors = _mixed_five_tensor_model()
    path = tmp_path / "model.qnt"
    write_container(tensors, MemoryModel(), path)
    with open_container(path) as (mm, loaded):
        assert mm == MemoryModel()
        for orig, back in zip(tensors, loaded, strict=True):
            _assert_field_exact_post_f16(orig, back)
    report(3, "1000 pack/unpack round trips and 5-tensor container round trip")


# ---------------------------------------------------------------------------
# Criteria 4 and 5: breakpoint quality on Gaussian data
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_breakpoint_study():
    rows = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=10_000)
        mse_affine = slice_mse(values, AFFINE, 4)
        mse_approx = slice_mse(values, PWLQ, 4)
        p_grid = bruteforce(matrix_tensor(values[None]), FILTER_WISE, 4)[0]
        mse_grid = pwlq_mse(values, 4, p_grid)
        rows.append((mse_affine, mse_approx, mse_grid))
    return rows


def test_criterion_04_pwlq_beats_uniform(gaussian_breakpoint_study):
    wins = sum(1 for affine, approx, _ in gaussian_breakpoint_study
               if approx < affine)
    assert wins >= 95
    report(4, f"pwlq(approx) < whole-range affine in {wins}/100 seeds")


def test_criterion_05_breakpoint_quality(gaussian_breakpoint_study):
    never_worse = sum(1 for _, approx, grid in gaussian_breakpoint_study
                      if grid <= approx)
    assert never_worse == 100
    close = sum(1 for _, approx, grid in gaussian_breakpoint_study
                if approx <= 1.10 * grid)
    assert close >= 90
    report(5, f"grid <= approx in 100/100 seeds; approx within 1.10x in {close}/100")


# ---------------------------------------------------------------------------
# Criterion 6: selector optimality
# ---------------------------------------------------------------------------

def test_criterion_06_selector_optimality():
    auto3 = (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE)
    tensors = [gaussian_tensor((8, 8, 3, 3), seed=100 + i, name=f"t{i}")
               for i in range(50)]

    auto_sse = 0.0
    fixed_sse = dict.fromkeys(auto3, 0.0)
    for t in tensors:
        scheme, q = select_granularity(t, auto3, AFFINE, 4)
        chosen = decoded_error(t, q).mse
        recomputed = {s: decoded_error(t, quantize_tensor(t, s, AFFINE, 4)).mse
                      for s in auto3}
        assert chosen == min(recomputed.values())
        assert recomputed[scheme] == chosen
        auto_sse += chosen * t.shape.element_count
        for s in auto3:
            fixed_sse[s] += recomputed[s] * t.shape.element_count

    assert all(auto_sse <= fixed_sse[s] for s in auto3)
    report(6, "50 tensors: selected mse equals recomputed minimum; "
              "mixed total <= every fixed total")


# ---------------------------------------------------------------------------
# Criterion 7: memory-model arithmetic
# ---------------------------------------------------------------------------

def test_criterion_07_memory_model():
    big = gaussian_tensor((64, 64, 3, 3), seed=0)
    fshape = quantize_tensor(big, F_SHAPE_WISE, AFFINE, 4)
    layer = quantize_tensor(big, LAYER_WISE, AFFINE, 4)
    ratio_fshape = memory_saving([fshape])
    ratio_layer = memory_saving([layer])
    assert round(ratio_fshape, 4) == 3.5556
    assert round(ratio_layer, 4) == 3.9991

    sparse_groups = quantize_tensor(gaussian_tensor((8, 32, 8, 8), seed=1),
                                    LAYER_WISE, AFFINE, 4)
    assert 1 / sparse_groups.element_count < 1e-4  # G/E below 1e-4
    ratio = memory_saving([sparse_groups])
    assert 3.96 <= ratio < 4.00
    report(7, f"worked ratios {ratio_fshape:.4f} / {ratio_layer:.4f}; "
              f"large-group ratio {ratio:.5f}")


# ---------------------------------------------------------------------------
# Criterion 8: optional real-checkpoint reproduction
# ---------------------------------------------------------------------------

REAL_MANIFEST_VAR = "CONVQUANT_YOLOV7_MANIFEST"


@pytest.mark.skipif(REAL_MANIFEST_VAR not in os.environ,
                    reason=f"set {REAL_MANIFEST_VAR} to a converted YOLOv7 "
                           "manifest to run the real-checkpoint check")
def test_criterion_08_real_checkpoint_ratios():
    excluded, tensors, _ = iter_manifest(os.environ[REAL_MANIFEST_VAR])
    mm = MemoryModel()
    runs = [(F_SHAPE_WISE, AFFINE), (F_SHAPE_WISE, PWLQ), (CHANNEL_WISE, AFFINE)]
    base, quantized = 0, [0] * len(runs)
    for t in tensors:   # one tensor at a time, every run's bytes summed
        for i, (scheme, method) in enumerate(runs):
            quantize = make_passthrough if t.name in excluded else quantize_tensor
            q = quantize(t, scheme, method, 4)
            quantized[i] += memory_bytes(q, mm)
        base += baseline_bytes(q, mm)

    affine_fshape, pwlq_fshape, channel = (base / b for b in quantized)
    assert affine_fshape == pytest.approx(3.93, abs=0.10)
    assert pwlq_fshape == pytest.approx(3.87, abs=0.10)
    assert channel == pytest.approx(1.68, abs=0.15)
    report(8, f"real checkpoint ratios {affine_fshape:.2f} / {pwlq_fshape:.2f} "
              f"/ {channel:.2f}")


# ---------------------------------------------------------------------------
# Criterion 9: bit-width sweep monotonicity
# ---------------------------------------------------------------------------

def test_criterion_09_sweep_monotonicity(tmp_path):
    rng = np.random.default_rng(9)
    tensors = []
    for i, shape in enumerate([(32, 32, 3, 3), (64, 32, 3, 3), (32, 64, 3, 3),
                               (64, 64, 3, 3)]):
        values = rng.normal(0, 0.07, size=int(np.prod(shape)))
        tensors.append((f"conv{i}", shape, values, "f16"))
    manifest = write_manifest(tmp_path, tensors)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--manifest", str(manifest), "--method", "pwlq",
               "--granularity", "auto3", "--bits", "3:8", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["bits"] for r in rows] == ["3", "4", "5", "6", "7", "8"]
    mses = [float(r["total_mse"]) for r in rows]
    ratios = [float(r["memory_saving"]) for r in rows]
    assert all(a >= b for a, b in zip(mses, mses[1:]))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    report(9, f"mse {mses[0]:.2e} -> {mses[-1]:.2e} non-increasing; "
              f"ratio {ratios[0]:.3f} -> {ratios[-1]:.3f} strictly decreasing")
