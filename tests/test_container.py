import json

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
    dequantize_tensor,
    quantize_tensor,
    read_container,
    write_container,
)
from convquant.errors import (
    CorruptHeader,
    InvalidInput,
    OffsetOutOfBounds,
    QuantError,
    VersionMismatch,
)

from conftest import gaussian_tensor


def f16(x):
    return np.asarray(x).astype(np.float16).astype(np.float64)


def mixed_model():
    """Five tensors covering every method plus a passthrough."""
    return [
        quantize_tensor(gaussian_tensor((4, 4, 3, 3), 0, name="a"), FILTER_WISE, AFFINE, 4),
        quantize_tensor(gaussian_tensor((4, 2, 3, 3), 1, name="b"), F_SHAPE_WISE,
                        SYMMETRIC_RESTRICTED, 5),
        quantize_tensor(gaussian_tensor((2, 4, 2, 2), 2, name="c"), C_SHAPE_WISE,
                        SYMMETRIC_FULL, 3),
        quantize_tensor(gaussian_tensor((4, 4, 3, 3), 3, name="d"), LAYER_WISE, PWLQ, 4),
        quantize_tensor(gaussian_tensor((8, 8, 1, 1), 4, name="e"), CHANNEL_WISE, AFFINE, 4),
    ]


def assert_params_equal_post_f16(written, loaded):
    """Kind, bits and zero-points exact; scales, bounds, m and p as binary16."""
    assert loaded.dtype == written.dtype
    for field in written.dtype.names:
        if written.dtype[field].names:
            assert_params_equal_post_f16(written[field], loaded[field])
        elif field in ("kind", "bits", "zero_point"):
            assert np.array_equal(loaded[field], written[field])
        else:
            assert np.array_equal(loaded[field], f16(written[field]))


class TestRoundTrip:
    def test_mixed_model_field_exact(self, tmp_path):
        tensors = mixed_model()
        mm = MemoryModel(charge_region_bits=True, param_bytes_pwlq=12)
        path = tmp_path / "model.qnt"
        write_container(tensors, mm, path)
        loaded, mm_back = read_container(path)

        assert mm_back == mm
        assert len(loaded) == len(tensors)
        for orig, back in zip(tensors, loaded):
            assert back.name == orig.name
            assert back.shape == orig.shape
            assert back.method == orig.method
            assert back.scheme == orig.scheme
            assert back.bits == orig.bits
            assert back.passthrough == orig.passthrough
            assert back.source_bits == orig.source_bits
            if orig.passthrough:
                assert np.array_equal(back.values, orig.values)
                continue
            assert np.array_equal(back.codes, orig.codes)
            if orig.method == PWLQ:
                assert np.array_equal(back.region_bits, orig.region_bits)
            assert back.group_count == orig.group_count
            assert_params_equal_post_f16(orig.params, back.params)

    def test_loaded_tensors_decode(self, tmp_path):
        tensors = mixed_model()
        path = tmp_path / "model.qnt"
        write_container(tensors, MemoryModel(), path)
        loaded, _ = read_container(path)
        for orig, back in zip(tensors, loaded):
            a = dequantize_tensor(orig).values
            b = dequantize_tensor(back).values
            # Params are f16-rounded on disk, so reconstructions agree loosely.
            assert np.allclose(a, b, atol=2e-3, rtol=2e-3)

    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.qnt"
        write_container([], MemoryModel(), path)
        loaded, mm = read_container(path)
        assert loaded == [] and mm == MemoryModel()

    def test_deterministic_bytes(self, tmp_path):
        tensors = mixed_model()
        a, b = tmp_path / "a.qnt", tmp_path / "b.qnt"
        write_container(tensors, MemoryModel(), a)
        write_container(tensors, MemoryModel(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_codes_section_matches_memory_model_term(self, tmp_path):
        tensors = mixed_model()
        path = tmp_path / "model.qnt"
        write_container(tensors, MemoryModel(), path)
        blob = path.read_bytes()
        header_len = int(blob.split(b"\n", 1)[0].split()[1])
        start = blob.index(b"\n") + 1
        header = json.loads(blob[start:start + header_len])
        for record, q in zip(header["tensors"], tensors):
            if record["passthrough"]:
                continue
            _, length = record["sections"]["codes"]
            assert length == -(-q.element_count * q.bits // 8)

    def test_file_size_matches_declared_lengths(self, tmp_path):
        path = tmp_path / "model.qnt"
        write_container(mixed_model(), MemoryModel(), path)
        blob = path.read_bytes()
        newline = blob.index(b"\n")
        header_len = int(blob[:newline].split()[1])
        header = json.loads(blob[newline + 1:newline + 1 + header_len])
        assert len(blob) == newline + 1 + header_len + header["payload_size"]


def _write_sample(tmp_path):
    path = tmp_path / "model.qnt"
    write_container(mixed_model(), MemoryModel(), path)
    return path


def _patch_header(path, mutate):
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    header_len = int(blob[:newline].split()[1])
    header = json.loads(blob[newline + 1:newline + 1 + header_len])
    mutate(header)
    new_header = json.dumps(header).encode()
    prelude = f"qnt/1 {len(new_header)}\n".encode()
    path.write_bytes(prelude + new_header + blob[newline + 1 + header_len:])


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qnt"
        path.write_bytes(b"garbage all the way down")
        with pytest.raises(CorruptHeader):
            read_container(path)

    def test_version_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"qnt/9" + blob[5:])
        with pytest.raises(VersionMismatch):
            read_container(path)

    def test_truncated_header(self, tmp_path):
        path = _write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        with pytest.raises(CorruptHeader):
            read_container(path)

    def test_offset_past_eof(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["sections"]["codes"][0] = header["payload_size"] + 100

        _patch_header(path, mutate)
        with pytest.raises(OffsetOutOfBounds):
            read_container(path)

    def test_overlapping_sections(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            codes = header["tensors"][0]["sections"]["codes"]
            params = header["tensors"][0]["sections"]["params"]
            codes[0] = params[0]  # force the two sections onto each other

        _patch_header(path, mutate)
        with pytest.raises(OffsetOutOfBounds):
            read_container(path)

    @pytest.mark.parametrize("source_bits", [8, [16], "16", None])
    def test_bad_source_precision(self, tmp_path, source_bits):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["source_bits"] = source_bits

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_container(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptHeader):
            read_container(path)

    def test_wrong_codes_length(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["sections"]["codes"][1] -= 1

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_container(path)

    def test_unknown_method(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["method"] = "wavelet"

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_container(path)


class TestParamsBitFlips:
    def test_single_bit_flips_raise_only_quant_errors(self, tmp_path):
        tensors = [gaussian_tensor((8, 4, 3, 3), seed, name=f"t{seed}") for seed in range(3)]
        zeroed = tensors[0].values.copy()
        zeroed[:36] = 0.0  # one all-zero filter: a short uniform record among pwlq ones
        tensors[0] = WeightTensor("t0", TensorShape(8, 4, 3, 3), zeroed)
        path = tmp_path / "model.qnt"
        write_container([quantize_tensor(t, FILTER_WISE, PWLQ, 4) for t in tensors],
                        MemoryModel(), path)
        blob = path.read_bytes()
        newline = blob.index(b"\n")
        header_len = int(blob[:newline].split()[1])
        header = json.loads(blob[newline + 1:newline + 1 + header_len])
        payload = newline + 1 + header_len
        spans = [(payload + r["sections"]["params"][0], r["sections"]["params"][1])
                 for r in header["tensors"]]

        rng = np.random.default_rng(600)
        rejected = 0
        for _ in range(600):
            start, length = spans[int(rng.integers(len(spans)))]
            bit = int(rng.integers(length * 8))
            flipped = bytearray(blob)
            flipped[start + bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                loaded, _ = read_container(path)
                for q in loaded:
                    dequantize_tensor(q)
            except QuantError:
                rejected += 1
        assert rejected > 0


def one_zero_pwlq_tensor():
    """A one-weight all-zero tensor, pwlq layer-wise at 3 bits: one degenerate
    record and one code byte, which is one byte at 2 bits too."""
    t = WeightTensor("z", TensorShape(1, 1, 1, 1), np.zeros(1))
    return quantize_tensor(t, LAYER_WISE, PWLQ, 3)


class TestBitWidths:
    def test_writer_rejects_pwlq_below_three_bits(self, tmp_path):
        q = one_zero_pwlq_tensor()
        q.bits = 2
        q.params["bits"] = 2
        q.params["center"]["bits"] = 2
        path = tmp_path / "model.qnt"
        with pytest.raises(InvalidInput):
            write_container([q], MemoryModel(), path)
        assert not path.exists()

    def test_reader_rejects_pwlq_below_three_bits(self, tmp_path):
        path = tmp_path / "model.qnt"
        write_container([one_zero_pwlq_tensor()], MemoryModel(), path)
        blob = bytearray(path.read_bytes())
        newline = blob.index(b"\n")
        header_len = int(blob[:newline].split()[1])
        payload = newline + 1 + header_len
        sections = json.loads(blob[newline + 1:payload])["tensors"][0]["sections"]
        params = payload + sections["params"][0]
        codes = payload + sections["codes"][0]
        assert (blob[params + 1], blob[codes]) == (3, 4)  # bits; code 0 biased by 4
        blob[params + 1], blob[codes] = 2, 2             # the same group at 2 bits
        path.write_bytes(bytes(blob))
        _patch_header(path, lambda header: header["tensors"][0].update(bits=2))
        with pytest.raises(CorruptHeader):
            read_container(path)
