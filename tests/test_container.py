import json
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
    PackedCodes,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    open_container,
    quantize_tensor,
    write_container,
)
from convquant import container, tensor_store
from convquant.cli import main
from convquant.metrics import MEMORY_MODEL
from convquant.errors import (
    CorruptHeader,
    InvalidInput,
    OffsetOutOfBounds,
    QuantError,
    VersionMismatch,
)

from conftest import gaussian_tensor, split_container, unpacked


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


def read_all(path):
    """Every tensor of a container, decoded from its records."""
    with open_container(path) as tensors:
        return list(tensors)


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
        path = tmp_path / "model.qnt"
        write_container(tensors, path)
        header, _ = split_container(path.read_bytes())
        assert json.loads(header)["memory_model"] == MEMORY_MODEL
        with open_container(path) as loaded:
            pairs = list(zip(tensors, loaded, strict=True))

        for orig, back in pairs:
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
            (codes, region_bits), (orig_codes, orig_region_bits) = unpacked(back), unpacked(orig)
            assert np.array_equal(codes, orig_codes)
            if orig.method == PWLQ:
                assert np.array_equal(region_bits, orig_region_bits)
            assert back.group_count == orig.group_count
            assert_params_equal_post_f16(orig.params, back.params)

    def test_loaded_tensors_decode(self, tmp_path):
        tensors = mixed_model()
        path = tmp_path / "model.qnt"
        write_container(tensors, path)
        with open_container(path) as loaded:
            for orig, back in zip(tensors, loaded, strict=True):
                a = dequantize_tensor(orig).values
                b = dequantize_tensor(back).values
                # Params are f16-rounded on disk, so reconstructions agree loosely.
                assert np.allclose(a, b, atol=2e-3, rtol=2e-3)

    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.qnt"
        write_container([], path)
        assert read_all(path) == []

    def test_deterministic_bytes(self, tmp_path):
        tensors = mixed_model()
        a, b = tmp_path / "a.qnt", tmp_path / "b.qnt"
        write_container(tensors, a)
        write_container(tensors, b)
        assert a.read_bytes() == b.read_bytes()

    def test_codes_section_matches_memory_model_term(self, tmp_path):
        tensors = mixed_model()
        path = tmp_path / "model.qnt"
        write_container(tensors, path)
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
        write_container(mixed_model(), path)
        blob = path.read_bytes()
        newline = blob.index(b"\n")
        header_len = int(blob[:newline].split()[1])
        header = json.loads(blob[newline + 1:newline + 1 + header_len])
        assert len(blob) == newline + 1 + header_len + header["payload_size"]


class TestHeader:
    def test_header_is_compact_sorted_json(self, tmp_path):
        path = _write_sample(tmp_path)
        header, _ = split_container(path.read_bytes())
        assert header == json.dumps(json.loads(header), separators=(",", ":"),
                                    sort_keys=True).encode()

    def test_indented_header_still_reads(self, tmp_path):
        # Containers written before the header was compact have indent=1 JSON.
        path = _write_sample(tmp_path)

        def decodes(tensors):
            return [dequantize_tensor(q, np.float16).values.tobytes() for q in tensors]

        compact = decodes(read_all(path))
        _patch_header(path, lambda header: None, indent=1)
        assert b'\n "format": "qnt/1",\n' in path.read_bytes()
        assert decodes(read_all(path)) == compact

    def test_rewriting_what_was_read_gives_the_same_bytes(self, tmp_path):
        # A tensor read from a container keeps its codes and region bits
        # packed; the writer stores them as they are.
        path = _write_sample(tmp_path)
        loaded = read_all(path)
        assert all(isinstance(q.codes, PackedCodes) for q in loaded if not q.passthrough)
        again = tmp_path / "again.qnt"
        write_container(loaded, again)
        assert again.read_bytes() == path.read_bytes()


class TestReadBack:
    def test_every_section_is_read_back(self, tmp_path, monkeypatch):
        spans = []
        read_tensor = container._read_tensor

        def recording(q, sections, read):
            def recorded(span):
                spans.append(tuple(span))
                return read(span)
            return read_tensor(q, sections, recorded)

        monkeypatch.setattr(container, "_read_tensor", recording)
        path = _write_sample(tmp_path)
        header, _ = split_container(path.read_bytes())
        stored = [tuple(span) for record in json.loads(header)["tensors"]
                  for span in record["sections"].values()]
        assert len(stored) == 10 and sorted(spans) == sorted(stored)

    def test_the_file_is_written_through_the_descriptor_that_created_it(self, tmp_path,
                                                                        monkeypatch):
        opened = []

        def recording_open(file, mode="r", *args, **kwargs):
            opened.append((file, mode))
            return open(file, mode, *args, **kwargs)

        for module in (container, tensor_store):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        _write_sample(tmp_path)
        # The other open is the read-back's, of the staging file.
        writes = [file for file, mode in opened if mode != "rb"]
        assert len(writes) == 1 and isinstance(writes[0], int)
        assert [p.name for p in tmp_path.iterdir()] == ["model.qnt"]

    @pytest.mark.parametrize("name,last_group", [("a", 3), ("b", 17), ("c", 7), ("d", 0)])
    def test_every_params_record_is_validated(self, tmp_path, monkeypatch, name, last_group):
        # The writer checks the records it narrows and the read-back what it
        # wrote: a tensor's last record, written with the wrong bit width, is
        # refused, and nothing is left behind.
        pack_params = container._pack_params

        def corrupt_last(q):
            records = pack_params(q)
            if q.name == name:
                disk = container._PWLQ_DISK if q.method == PWLQ else container._UNIFORM_DISK
                size, records = disk.itemsize, records.copy()
                records.view(np.uint8).reshape(-1)[1 - size] += 1     # its bits field
            return records

        monkeypatch.setattr(container, "_pack_params", corrupt_last)
        path = tmp_path / "model.qnt"
        with pytest.raises(CorruptHeader,
                           match=f"^{name}: group {last_group}: invalid parameter record"):
            write_container(mixed_model(), path)
        assert list(tmp_path.iterdir()) == []


def _write_sample(tmp_path):
    path = tmp_path / "model.qnt"
    write_container(mixed_model(), path)
    return path


def _patch_header(path, mutate, indent=None):
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    header_len = int(blob[:newline].split()[1])
    header = json.loads(blob[newline + 1:newline + 1 + header_len])
    mutate(header)
    new_header = json.dumps(header, indent=indent, sort_keys=True).encode()
    prelude = f"qnt/1 {len(new_header)}\n".encode()
    path.write_bytes(prelude + new_header + blob[newline + 1 + header_len:])


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qnt"
        path.write_bytes(b"garbage all the way down")
        with pytest.raises(CorruptHeader):
            read_all(path)

    def test_version_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"qnt/9" + blob[5:])
        with pytest.raises(VersionMismatch):
            read_all(path)

    def test_truncated_header(self, tmp_path):
        path = _write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:40])
        with pytest.raises(CorruptHeader):
            read_all(path)

    def test_offset_past_eof(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["sections"]["codes"][0] = header["payload_size"] + 100

        _patch_header(path, mutate)
        with pytest.raises(OffsetOutOfBounds, match=r"^a: section 'codes' \["):
            read_all(path)

    def test_overlapping_sections(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            codes = header["tensors"][0]["sections"]["codes"]
            params = header["tensors"][0]["sections"]["params"]
            codes[0] = params[0]  # force the two sections onto each other

        _patch_header(path, mutate)
        with pytest.raises(OffsetOutOfBounds,
                           match=r"^a: section 'params' overlaps a: section 'codes'$"):
            read_all(path)

    def test_sections_of_two_tensors_that_overlap_are_both_named(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            codes = [record["sections"]["codes"] for record in header["tensors"][:2]]
            codes[1][0] = codes[0][0]   # b's 45 bytes of codes inside a's 72

        _patch_header(path, mutate)
        with pytest.raises(OffsetOutOfBounds,
                           match=r"^b: section 'codes' overlaps a: section 'codes'$"):
            read_all(path)

    def test_pwlq_params_that_do_not_tile_name_the_tensor(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][3]["sections"]["params"][1] -= 1     # d: one 36-byte record

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader, match="^d: parameter records do not tile"):
            read_all(path)

    def test_file_cut_short_while_read_names_the_tensor(self, tmp_path):
        # The codes (18 KB) lie past what the open file has buffered.
        path = tmp_path / "model.qnt"
        t = gaussian_tensor((64, 64, 3, 3), 0, name="big")
        write_container([quantize_tensor(t, LAYER_WISE, AFFINE, 4)], path)
        with open_container(path) as tensors:
            os.truncate(path, path.stat().st_size - 1)
            with pytest.raises(CorruptHeader, match="^big: container cut short while it was read$"):
                list(tensors)

    @pytest.mark.parametrize("source_bits", [8, [16], "16", None])
    def test_bad_source_precision(self, tmp_path, source_bits):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["source_bits"] = source_bits

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_all(path)

    @pytest.mark.parametrize("name", [5, ["a"], None])
    def test_name_that_is_not_a_string(self, tmp_path, name):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["name"] = name

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader, match="name must be a string"):
            read_all(path)
        # The header is refused before dequantize makes its output directory.
        assert main(["dequantize", str(path), str(tmp_path / "out" / "model.json")]) == 1
        assert not (tmp_path / "out").exists()

    def test_payload_size_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptHeader):
            read_all(path)

    def test_wrong_codes_length(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["sections"]["codes"][1] -= 1

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_all(path)

    @pytest.mark.parametrize("mutate", [
        lambda header: header["memory_model"].update(param_bytes_pwlq=12),
        lambda header: header.pop("memory_model"),
    ], ids=["other-charges", "missing"])
    def test_memory_model_is_the_papers(self, tmp_path, mutate):
        path = _write_sample(tmp_path)
        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader, match="memory_model"):
            read_all(path)

    @pytest.mark.parametrize("mutate,name", [
        (lambda header: header["tensors"][4].update(shape=[8, 8, True, 1]), "e"),
        (lambda header: header["tensors"][3].update(group_count=True), "d"),
        (lambda header: header["tensors"][0]["sections"]["params"].__setitem__(0, False), "a"),
        (lambda header: header["tensors"][4].update(passthrough="false"), "e"),
        (lambda header: header["tensors"][3].update(passthrough=0), "d"),
    ], ids=["shape", "group-count", "offset", "passthrough-string", "passthrough-int"])
    def test_json_booleans_and_integers_are_told_apart(self, tmp_path, mutate, name):
        path = _write_sample(tmp_path)
        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader, match=f"^{name}: "):
            read_all(path)
        assert main(["dequantize", str(path), str(tmp_path / "out" / "model.json")]) == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_method(self, tmp_path):
        path = _write_sample(tmp_path)

        def mutate(header):
            header["tensors"][0]["method"] = "wavelet"

        _patch_header(path, mutate)
        with pytest.raises(CorruptHeader):
            read_all(path)


class TestParamsBitFlips:
    def test_single_bit_flips_raise_only_quant_errors(self, tmp_path):
        tensors = [gaussian_tensor((8, 4, 3, 3), seed, name=f"t{seed}") for seed in range(3)]
        zeroed = tensors[0].values.copy()
        zeroed[:36] = 0.0  # one all-zero filter: a short uniform record among pwlq ones
        tensors[0] = WeightTensor("t0", TensorShape(8, 4, 3, 3), zeroed)
        path = tmp_path / "model.qnt"
        write_container([quantize_tensor(t, FILTER_WISE, PWLQ, 4) for t in tensors], path)
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
                for q in read_all(path):
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
            write_container([q], path)
        assert not path.exists()

    def test_reader_rejects_pwlq_below_three_bits(self, tmp_path):
        path = tmp_path / "model.qnt"
        write_container([one_zero_pwlq_tensor()], path)
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
            read_all(path)


def _params_section(path):
    """The container's bytes and the span of its first tensor's params section."""
    blob = bytearray(path.read_bytes())
    newline = blob.index(b"\n")
    header_len = int(blob[:newline].split()[1])
    payload = newline + 1 + header_len
    start, length = json.loads(blob[newline + 1:payload])["tensors"][0]["sections"]["params"]
    return blob, payload + start, length


class TestRecordValidation:
    def test_uniform_mask_is_a_kind_membership_test(self):
        rng = np.random.default_rng(17)
        records = np.zeros(4000, container.UNIFORM_RECORD)
        records["kind"] = rng.integers(0, 5, len(records))
        records["bits"] = rng.integers(3, 6, len(records))
        records["scale"] = rng.choice([0.5, 0.0, -1.0, np.inf, np.nan], len(records))
        records["zero_point"] = rng.choice([0.0, 3.0], len(records))
        records["beta"] = rng.choice([-1.0, 2.0, np.nan], len(records))
        records["alpha"] = rng.choice([1.0, -np.inf], len(records))
        for kinds in ((0,), (1, 0), (2, 0), (0, 2)):
            scale, beta, alpha = records["scale"], records["beta"], records["alpha"]
            expected = (~np.isin(records["kind"], kinds) | (records["bits"] != 4)
                        | ~(scale > 0) | ~np.isfinite(scale)
                        | ((records["kind"] != 0) & (records["zero_point"] != 0))
                        | ~(beta <= alpha) | ~np.isfinite(beta) | ~np.isfinite(alpha))
            assert np.array_equal(container._invalid_uniform(records, kinds, 4), expected)

    def test_tails_with_different_scales_are_refused(self, tmp_path):
        # Decode reads one scale for both tails, which the writer always
        # stores equal; a record whose tails differ is corrupt.
        path = tmp_path / "model.qnt"
        write_container([quantize_tensor(gaussian_tensor((4, 4, 3, 3), 0), FILTER_WISE, PWLQ, 4)],
                        path)
        blob, start, length = _params_section(path)
        records = np.frombuffer(blob[start:start + length], container._PWLQ_DISK).copy()
        assert np.array_equal(records["neg_tail"]["scale"], records["pos_tail"]["scale"])
        records["neg_tail"]["scale"][2] *= 2
        blob[start:start + length] = records.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeader, match="group 2: invalid parameter record"):
            read_all(path)

    def test_degenerate_center_with_a_zero_point_is_refused(self, tmp_path):
        # A piecewise tensor's all-zero group decodes as its affine center
        # with zero-point 0, which the writer always stores.
        path = tmp_path / "model.qnt"
        write_container([one_zero_pwlq_tensor()], path)
        blob, start, length = _params_section(path)
        record = np.frombuffer(blob[start:start + length], container._UNIFORM_DISK).copy()
        assert record["kind"][0] == 0 and record["zero_point"][0] == 0
        record["zero_point"] = 1
        blob[start:start + length] = record.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeader, match="group 0: invalid parameter record"):
            read_all(path)
