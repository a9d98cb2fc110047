import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    TensorShape,
    WeightTensor,
    element_index,
    export_manifest,
    iter_manifest,
    resolve_exclusions,
)
from convquant.errors import (
    DuplicateName,
    IndexOutOfRange,
    InvalidInput,
    InvalidValue,
    ManifestError,
    MissingFile,
    ShapeMismatch,
)
from convquant import tensor_store
from convquant.tensor_store import check_manifest, staging_file

from conftest import write_manifest
import scalar_oracle as oracle


class TestElementIndex:
    def test_origin(self):
        assert element_index(TensorShape(2, 3, 4, 5), 0, 0, 0, 0) == 0

    def test_interior_matches_enumeration(self):
        assert oracle.element_index_by_enumeration((2, 3, 4, 5), (1, 2, 3, 4)) == 119
        assert element_index(TensorShape(2, 3, 4, 5), 1, 2, 3, 4) == 119

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            element_index(TensorShape(2, 3, 4, 5), 2, 0, 0, 0)
        with pytest.raises(IndexOutOfRange):
            element_index(TensorShape(2, 3, 4, 5), 0, 0, 0, -1)

    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4),
                          st.integers(1, 4), st.integers(1, 4)))
    @settings(max_examples=50, deadline=None)
    def test_bijective_over_the_box(self, dims):
        shape = TensorShape(*dims)
        seen = {element_index(shape, n, c, h, w)
                for n in range(dims[0]) for c in range(dims[1])
                for h in range(dims[2]) for w in range(dims[3])}
        assert seen == set(range(shape.element_count))


class TestTypes:
    def test_shape_must_be_positive(self):
        with pytest.raises(ManifestError):
            TensorShape(0, 1, 1, 1)

    def test_tensor_length_checked(self):
        with pytest.raises(ShapeMismatch):
            WeightTensor("t", TensorShape(2, 1, 1, 1), np.zeros(3))

    def test_tensor_rejects_nan(self):
        with pytest.raises(InvalidValue):
            WeightTensor("t", TensorShape(2, 1, 1, 1), np.array([0.0, np.nan]))


def read_all(manifest, extra_exclude=()):
    """The excluded names and every tensor of a manifest, in order."""
    excluded, tensors, _ = iter_manifest(manifest, extra_exclude)
    return excluded, list(tensors)


class TestLoadManifest:
    def test_minimal_manifest(self, tmp_path):
        manifest = write_manifest(tmp_path, [("conv1", (2, 1, 1, 1), [1.0, 2.0], "f16")])
        _, tensors = read_all(manifest)
        assert [t.name for t in tensors] == ["conv1"]
        assert tensors[0].load().tolist() == [1.0, 2.0]
        assert tensors[0].source_precision_bits == 16

    def test_byte_length_mismatch(self, tmp_path):
        manifest = write_manifest(tmp_path, [("conv1", (2, 1, 1, 1), [1.0, 2.0], "f16")])
        (tmp_path / "conv1.bin").write_bytes(b"\x00" * 10)
        with pytest.raises(ShapeMismatch):
            iter_manifest(manifest)

    def test_exclusion_patterns(self, tmp_path):
        assert oracle.resolve_exclusions(["conv1", "bn1"], ["bn*"]) == ["bn1"]
        manifest = write_manifest(
            tmp_path,
            [("conv1", (2, 1, 1, 1), [1.0, 2.0], "f16"),
             ("bn1", (2, 1, 1, 1), [0.5, 0.5], "f16")],
            exclude=["bn*"])
        excluded, _, _ = iter_manifest(manifest)
        assert excluded == frozenset({"bn1"})

    def test_extra_exclude_merges(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("conv1", (1, 1, 1, 1), [1.0], "f16"),
             ("head", (1, 1, 1, 1), [1.0], "f16")])
        excluded, _, _ = iter_manifest(manifest, extra_exclude=["head"])
        assert excluded == frozenset({"head"})

    def test_missing_data_file(self, tmp_path):
        manifest = write_manifest(tmp_path, [("conv1", (1, 1, 1, 1), [1.0], "f16")])
        (tmp_path / "conv1.bin").unlink()
        with pytest.raises(MissingFile):
            iter_manifest(manifest)

    def test_directory_is_not_a_data_file(self, tmp_path):
        manifest = write_manifest(tmp_path, [("conv1", (1, 1, 1, 1), [1.0], "f16")])
        (tmp_path / "conv1.bin").unlink()
        (tmp_path / "conv1.bin").mkdir()
        with pytest.raises(MissingFile):
            iter_manifest(manifest)

    def test_data_file_identities(self, tmp_path):
        manifest = write_manifest(tmp_path, [("a", (1,), [1.0], "f16"),
                                             ("b", (1,), [2.0], "f16")])
        _, _, files = iter_manifest(manifest)
        stats = [os.stat(tmp_path / name) for name in ("a.bin", "b.bin")]
        assert files == {(info.st_dev, info.st_ino) for info in stats}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            iter_manifest(tmp_path / "nope.json")

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            iter_manifest(path)

    def test_empty_tensor_list(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"tensors": []}')
        with pytest.raises(ManifestError, match="no tensors"):
            iter_manifest(path)

    def test_duplicate_names_in_manifest(self, tmp_path):
        entries = [{"name": "a", "shape": [1], "dtype": "f16", "file": "a.bin"},
                   {"name": "a", "shape": [1], "dtype": "f16", "file": "a.bin"}]
        (tmp_path / "a.bin").write_bytes(b"\x00\x00")
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"tensors": entries}))
        with pytest.raises(DuplicateName):
            iter_manifest(path)

    def test_nan_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [("conv1", (1, 1, 1, 1), [1.0], "f16")])
        (tmp_path / "conv1.bin").write_bytes(
            np.array([np.nan], dtype="<f2").tobytes())
        with pytest.raises(InvalidValue):
            read_all(manifest)

    def test_every_entry_checked_before_reading(self, tmp_path):
        manifest = write_manifest(tmp_path, [("a", (1,), [1.0], "f16"),
                                             ("b", (2,), [1.0, 2.0], "f16")])
        (tmp_path / "b.bin").write_bytes(b"\x00")
        with pytest.raises(ShapeMismatch, match="b: 1 bytes"):
            iter_manifest(manifest)

    def test_block_read_back_checks_every_piece(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tensor_store, "BLOCK", 2)
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        manifest = write_manifest(tmp_path, [("a", (2,), [1.0, 2.0], "f32"),
                                             ("b", (5,), values, "f16")])
        assert check_manifest(manifest) == 2
        values[4] = np.inf      # in the last, short piece
        (tmp_path / "b.bin").write_bytes(values.astype("<f2").tobytes())
        with pytest.raises(InvalidValue, match="^b: non-finite"):
            check_manifest(manifest)
        (tmp_path / "b.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(ShapeMismatch, match="b: 12 bytes"):
            check_manifest(manifest)

    def test_tensors_read_when_asked_for(self, tmp_path):
        manifest = write_manifest(tmp_path, [("a", (1,), [1.0], "f16")])
        _, tensors, _ = iter_manifest(manifest)
        (tmp_path / "a.bin").write_bytes(np.array([3.0], dtype="<f2").tobytes())
        assert [t.load().tolist() for t in tensors] == [[3.0]]

    def test_short_shapes_pad_to_4d(self, tmp_path):
        manifest = write_manifest(tmp_path, [("fc", (6,), np.arange(6), "f32")])
        _, tensors = read_all(manifest)
        assert tensors[0].shape.dims == (6, 1, 1, 1)

    def test_f32_ingestion(self, tmp_path):
        values = np.array([0.1, -0.2, 0.3], dtype="<f4")
        manifest = write_manifest(tmp_path, [("w", (3, 1, 1, 1), values, "f32")])
        _, tensors = read_all(manifest)
        assert tensors[0].load().tolist() == values.astype(np.float64).tolist()
        assert tensors[0].source_precision_bits == 32


class TestWriteBack:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        raw16 = rng.normal(0, 0.1, 24).astype("<f2")
        raw32 = rng.normal(0, 0.1, 8).astype("<f4")
        src = tmp_path / "src"
        src.mkdir()
        manifest = write_manifest(
            src,
            [("conv1", (2, 3, 2, 2), raw16, "f16"),
             ("head", (8, 1, 1, 1), raw32, "f32")],
            exclude=["head"])
        _, tensors = read_all(manifest)

        dst = tmp_path / "dst"
        written = export_manifest(tensors, dst / "model.json")
        assert written == [dst / "conv1.bin", dst / "head.bin", dst / "model.json"]
        assert sorted(dst.iterdir()) == sorted(written)
        excluded, reloaded = read_all(dst / "model.json")
        assert (dst / "conv1.bin").read_bytes() == raw16.tobytes()
        assert (dst / "head.bin").read_bytes() == raw32.tobytes()
        assert excluded == frozenset()
        for a, b in zip(tensors, reloaded, strict=True):
            assert a.name == b.name and a.shape == b.shape
            assert np.array_equal(a.load(), b.load())

    def test_colliding_file_stems_get_serials(self, tmp_path):
        tensors = [WeightTensor(name, TensorShape(1, 1, 1, 1), np.array([value]))
                   for name, value in (("a/b", 1.0), ("a_b", 2.0), ("a:b", 3.0))]
        export_manifest(tensors, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert [e["file"] for e in doc["tensors"]] == ["a_b.bin", "a_b.1.bin", "a_b.2.bin"]
        _, back = read_all(tmp_path / "model.json")
        assert [(t.name, t.load().tolist()) for t in back] == [
            ("a/b", [1.0]), ("a_b", [2.0]), ("a:b", [3.0])]

    def test_failing_source_leaves_no_files(self, tmp_path):
        def tensors():
            yield WeightTensor("a", TensorShape(1, 1, 1, 1), np.zeros(1))
            raise InvalidValue("b: non-finite value")

        out = tmp_path / "out"
        with pytest.raises(InvalidValue):
            export_manifest(tensors(), out / "model.json")
        assert list(out.iterdir()) == []

    def test_failing_source_keeps_earlier_export(self, tmp_path):
        def tensors(fail):
            yield WeightTensor("a", TensorShape(1, 1, 1, 1), np.array([fail + 1.0]))
            if fail:
                raise InvalidValue("b: non-finite value")
            yield WeightTensor("b", TensorShape(1, 1, 1, 1), np.array([2.0]))

        out = tmp_path / "out"
        export_manifest(tensors(False), out / "model.json")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(InvalidValue):
            export_manifest(tensors(True), out / "model.json")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_replaces_only_files_the_manifest_lists(self, tmp_path):
        def tensors(*names):
            return [WeightTensor(name, TensorShape(1, 1, 1, 1), np.array([1.0]))
                    for name in names]

        export_manifest(tensors("a"), tmp_path / "model.json")
        export_manifest(tensors("a"), tmp_path / "model.json")   # a.bin is listed
        (tmp_path / "b.bin").write_bytes(b"not an export")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(InvalidInput, match="b.bin"):
            export_manifest(tensors("a", "b"), tmp_path / "model.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_staging_files_are_new_with_a_new_file_s_permissions(self, tmp_path):
        (tmp_path / "x.bin.tmp").write_text("keep")
        usual = tmp_path / "usual"
        usual.write_text("")
        staged = {staging_file(tmp_path / "x.bin") for _ in range(3)}
        assert len(staged) == 3 and (tmp_path / "x.bin.tmp").read_text() == "keep"
        for path in staged:
            assert path.parent == tmp_path and path.read_bytes() == b""
            assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(usual.stat().st_mode)


class TestExclusionResolution:
    def test_order_independent(self):
        names = ["conv1", "bn1", "bn2", "head"]
        a = resolve_exclusions(names, ["bn*", "head"])
        b = resolve_exclusions(names, ["head", "bn*"])
        assert a == b == frozenset({"bn1", "bn2", "head"})

    def test_no_match_is_empty(self):
        assert resolve_exclusions(["conv1"], ["bn*"]) == frozenset()
