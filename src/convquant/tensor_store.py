"""Reading, writing and addressing model weights, one tensor at a time.

Weights enter the toolkit through a JSON manifest next to raw little-endian
binary files, one per tensor:

    {
      "exclude": ["bn*"],
      "tensors": [
        {"name": "conv1", "shape": [64, 3, 3, 3], "dtype": "f16",
         "file": "conv1.bin"}
      ]
    }

``dtype`` is "f16" (IEEE binary16) or "f32" (binary32); ``file`` is resolved
relative to the manifest. Shapes with fewer than four dimensions are padded
with trailing 1s. Values are held at the precision they were read in (a
tensor built in Python from anything else holds float64); the arithmetic
downstream upcasts BLOCK elements to float64 at a time, so a tensor's
working set does not grow with the tensor. The source precision is also
remembered in bits, so files can be written back byte-identically.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateName,
    IndexOutOfRange,
    InvalidInput,
    InvalidValue,
    ManifestError,
    MissingFile,
    ShapeMismatch,
)

DTYPE_BITS = {"f16": 16, "f32": 32}
# Source precision in bits -> little-endian numpy dtype.
NUMPY_DTYPES = {16: np.dtype("<f2"), 32: np.dtype("<f4")}
# Elements that a consumer of WeightTensor.values works on at once.
BLOCK = 1 << 15


@dataclass(frozen=True)
class TensorShape:
    """Filter count, channel count, kernel height, kernel width."""

    n: int
    c: int
    h: int
    w: int

    def __post_init__(self):
        for name, dim in zip("nchw", self.dims):
            if not isinstance(dim, int) or dim < 1:
                raise ManifestError(f"dimension {name}={dim!r} must be a positive integer")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.n, self.c, self.h, self.w)

    @property
    def element_count(self) -> int:
        return self.n * self.c * self.h * self.w


@dataclass
class WeightTensor:
    """A named conv weight tensor, flattened row-major over (n, c, h, w).

    ``values`` keeps a float16, float32 or float64 array as it is; any other
    input becomes float64.
    """

    name: str
    shape: TensorShape
    values: np.ndarray
    source_precision_bits: int = 16

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype not in (np.float16, np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values.ravel()
        if self.values.size != self.shape.element_count:
            raise ShapeMismatch(
                f"{self.name}: {self.values.size} values for shape {self.shape.dims}")
        for start in range(0, self.values.size, BLOCK):
            if not np.isfinite(self.values[start:start + BLOCK]).all():
                raise InvalidValue(f"{self.name}: non-finite value in weight data")
        if self.source_precision_bits not in NUMPY_DTYPES:
            raise ManifestError(
                f"{self.name}: unsupported source precision {self.source_precision_bits}")


def element_index(shape: TensorShape, n: int, c: int, h: int, w: int) -> int:
    """Row-major flat index of coordinate (n, c, h, w)."""
    if not (0 <= n < shape.n and 0 <= c < shape.c
            and 0 <= h < shape.h and 0 <= w < shape.w):
        raise IndexOutOfRange(f"({n}, {c}, {h}, {w}) outside {shape.dims}")
    return ((n * shape.c + c) * shape.h + h) * shape.w + w


def resolve_exclusions(names, patterns) -> frozenset[str]:
    """Match glob patterns against tensor names; order of patterns is irrelevant."""
    return frozenset(name for name in names
                     if any(fnmatchcase(name, pat) for pat in patterns))


def _parse_shape(raw, name: str) -> TensorShape:
    if (not isinstance(raw, list) or not 1 <= len(raw) <= 4
            or not all(isinstance(d, int) and d >= 1 for d in raw)):
        raise ManifestError(f"{name}: shape must be a list of 1-4 positive integers, got {raw!r}")
    dims = list(raw) + [1] * (4 - len(raw))
    return TensorShape(*dims)


def _check_size(name: str, shape: TensorShape, bits: int, size: int) -> None:
    expected = shape.element_count * bits // 8
    if size != expected:
        raise ShapeMismatch(
            f"{name}: {size} bytes on disk, shape {shape.dims} at "
            f"{bits}-bit needs {expected}")


def _read_tensor(name: str, shape: TensorShape, bits: int, data_path: Path) -> WeightTensor:
    with open(data_path, "rb") as fh:
        _check_size(name, shape, bits, os.fstat(fh.fileno()).st_size)
        values = np.fromfile(fh, dtype=NUMPY_DTYPES[bits])
    return WeightTensor(name, shape, values, bits)


def iter_manifest(manifest_path,
                  extra_exclude=()) -> tuple[frozenset[str], Iterator[WeightTensor]]:
    """Check that the manifest lists at least one tensor and check every
    entry (keys, unique name, shape, dtype, data file size), then return the
    excluded names and an iterator that reads each tensor, in manifest
    order, only when it is asked for. ``extra_exclude`` adds glob patterns
    on top of the manifest's own ``exclude`` list.
    """
    path = Path(manifest_path)
    if not path.is_file():
        raise MissingFile(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("tensors"), list):
        raise ManifestError(f"{path}: manifest must be an object with a 'tensors' list")
    if not doc["tensors"]:
        raise ManifestError(f"{path}: manifest lists no tensors")

    patterns = doc.get("exclude", [])
    if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
        raise ManifestError(f"{path}: 'exclude' must be a list of glob patterns")
    patterns = list(patterns) + list(extra_exclude)

    entries = []
    names = set()
    for entry in doc["tensors"]:
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}: tensor entry must be an object, got {entry!r}")
        try:
            name = entry["name"]
            shape = _parse_shape(entry["shape"], str(name))
            dtype = entry["dtype"]
            file_rel = entry["file"]
        except KeyError as exc:
            raise ManifestError(f"{path}: tensor entry missing key {exc}") from exc
        if not isinstance(name, str):
            raise ManifestError(f"{path}: tensor name must be a string, got {name!r}")
        if name in names:
            raise DuplicateName(f"tensor name {name!r} appears twice")
        names.add(name)
        if dtype not in DTYPE_BITS:
            raise ManifestError(f"{name}: unknown dtype tag {dtype!r}")
        bits = DTYPE_BITS[dtype]

        data_path = path.parent / file_rel
        if not data_path.is_file():
            raise MissingFile(f"{name}: data file not found: {data_path}")
        _check_size(name, shape, bits, data_path.stat().st_size)
        entries.append((name, shape, bits, data_path))

    excluded = resolve_exclusions(names, patterns)
    return excluded, (_read_tensor(*entry) for entry in entries)


def _tmp_path(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _file_stem(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "tensor"


def _listed_files(manifest: Path) -> set[Path]:
    """The data files that a manifest already at this path lists, if any."""
    try:
        doc = json.loads(manifest.read_text("utf-8"))
        return {manifest.parent / entry["file"] for entry in doc["tensors"]}
    except (OSError, UnicodeDecodeError, ValueError, LookupError, TypeError):
        return set()


def export_manifest(tensors: Iterable[WeightTensor], manifest_path) -> list[Path]:
    """Write each tensor's raw binary as it arrives, then the manifest;
    returns every path written.

    Values are stored at each tensor's source precision, so a freshly loaded
    model writes back byte-identically. Every file is first written under
    its name plus ``.tmp``, and all are moved into place, the manifest last,
    only once every one is written. If a write fails or ``tensors`` raises,
    the ``.tmp`` files and the files already moved into place are removed
    before the error propagates. A file in the way that the manifest already
    at ``manifest_path`` does not list, such as a source weight, is never replaced.
    """
    path = Path(manifest_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    replaceable = _listed_files(path)
    entries = []
    staged = []     # final paths, each written first under its _tmp_path
    placed = []
    used = set()
    try:
        for tensor in tensors:
            stem = _file_stem(tensor.name)
            file_rel = f"{stem}.bin"
            serial = 1
            while file_rel in used:
                file_rel = f"{stem}.{serial}.bin"
                serial += 1
            used.add(file_rel)
            dtype = NUMPY_DTYPES[tensor.source_precision_bits]
            final = path.parent / file_rel
            if os.path.lexists(final) and final not in replaceable:
                raise InvalidInput(f"refusing to replace {final}: {path} does not list it")
            staged.append(final)
            _tmp_path(staged[-1]).write_bytes(tensor.values.astype(dtype, copy=False))
            entries.append({
                "name": tensor.name,
                "shape": list(tensor.shape.dims),
                "dtype": "f16" if tensor.source_precision_bits == 16 else "f32",
                "file": file_rel,
            })
        doc = {"exclude": [], "tensors": entries}
        staged.append(path)
        _tmp_path(path).write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
        for final in staged:
            os.replace(_tmp_path(final), final)
            placed.append(final)
    except BaseException:
        for leftover in [_tmp_path(p) for p in staged] + placed:
            leftover.unlink(missing_ok=True)
        raise
    return placed
