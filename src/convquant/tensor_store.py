"""Loading and addressing model weights.

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
with trailing 1s. Values are held in float64 for all downstream arithmetic;
the original precision is remembered so files can be written back
byte-identically.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateName,
    IndexOutOfRange,
    InvalidValue,
    ManifestError,
    MissingFile,
    ShapeMismatch,
)

DTYPE_BITS = {"f16": 16, "f32": 32}
# Source precision in bits -> little-endian numpy dtype.
NUMPY_DTYPES = {16: np.dtype("<f2"), 32: np.dtype("<f4")}


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
    """A named conv weight tensor, flattened row-major over (n, c, h, w)."""

    name: str
    shape: TensorShape
    values: np.ndarray
    source_precision_bits: int = 16

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.shape.element_count:
            raise ShapeMismatch(
                f"{self.name}: {self.values.size} values for shape {self.shape.dims}")
        if not np.all(np.isfinite(self.values)):
            raise InvalidValue(f"{self.name}: non-finite value in weight data")
        if self.source_precision_bits not in NUMPY_DTYPES:
            raise ManifestError(
                f"{self.name}: unsupported source precision {self.source_precision_bits}")


@dataclass
class ModelWeights:
    """All tensors of one checkpoint plus the names exempt from quantization."""

    tensors: list[WeightTensor]
    excluded: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        names = [t.name for t in self.tensors]
        seen = set()
        for name in names:
            if name in seen:
                raise DuplicateName(f"tensor name {name!r} appears twice")
            seen.add(name)
        stray = set(self.excluded) - seen
        if stray:
            raise ManifestError(f"excluded names not in model: {sorted(stray)}")

    @property
    def names(self) -> list[str]:
        return [t.name for t in self.tensors]


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


def load_manifest(manifest_path, extra_exclude=()) -> ModelWeights:
    """Read a manifest and all referenced tensor data.

    ``extra_exclude`` adds glob patterns on top of the manifest's own
    ``exclude`` list.
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

    patterns = doc.get("exclude", [])
    if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
        raise ManifestError(f"{path}: 'exclude' must be a list of glob patterns")
    patterns = list(patterns) + list(extra_exclude)

    tensors = []
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
        if dtype not in DTYPE_BITS:
            raise ManifestError(f"{name}: unknown dtype tag {dtype!r}")
        bits = DTYPE_BITS[dtype]

        data_path = path.parent / file_rel
        if not data_path.is_file():
            raise MissingFile(f"{name}: data file not found: {data_path}")
        data = data_path.read_bytes()
        expected = shape.element_count * bits // 8
        if len(data) != expected:
            raise ShapeMismatch(
                f"{name}: {len(data)} bytes on disk, shape {shape.dims} at "
                f"{bits}-bit needs {expected}")
        values = np.frombuffer(data, dtype=NUMPY_DTYPES[bits]).astype(np.float64)
        tensors.append(WeightTensor(name, shape, values, bits))

    excluded = resolve_exclusions([t.name for t in tensors], patterns)
    return ModelWeights(tensors, excluded)


def _file_stem(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "tensor"


def save_manifest(model: ModelWeights, manifest_path) -> list[Path]:
    """Write a manifest plus raw binaries; returns every path created.

    Values are stored at each tensor's source precision, so a freshly loaded
    model writes back byte-identically. If a write fails, the files already
    written are removed before the error propagates.
    """
    path = Path(manifest_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    written = []
    used = set()
    try:
        for tensor in model.tensors:
            stem = _file_stem(tensor.name)
            file_rel = f"{stem}.bin"
            serial = 1
            while file_rel in used:
                file_rel = f"{stem}.{serial}.bin"
                serial += 1
            used.add(file_rel)
            dtype = NUMPY_DTYPES[tensor.source_precision_bits]
            data_path = path.parent / file_rel
            data_path.write_bytes(tensor.values.astype(dtype).tobytes())
            written.append(data_path)
            entries.append({
                "name": tensor.name,
                "shape": list(tensor.shape.dims),
                "dtype": "f16" if tensor.source_precision_bits == 16 else "f32",
                "file": file_rel,
            })
        doc = {"exclude": sorted(model.excluded), "tensors": entries}
        path.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
        written.append(path)
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return written
