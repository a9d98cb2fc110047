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
with trailing 1s. A tensor read through :func:`iter_manifest` keeps its
values in its data file, which each pass over them reads a block at a time;
one built in Python holds float16, float32 or float64 values. The
arithmetic downstream upcasts BLOCK elements to float64 at a time, in
arrays that a :class:`Buffers` reuses from block to block, so a tensor's
working set does not grow with the tensor. The source precision
is also remembered in bits, so files can be written back byte-identically.

Writing back streams: :func:`export_manifest` writes each tensor's blocks
to disk as they arrive, and reads each file back BLOCK values at a time
before any moves into place, so it holds no whole tensor it is not given.
Every writer stages its outputs in a :func:`staged_outputs` transaction,
which moves them all into place or, on any exception, removes them all.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from .errors import (
    DuplicateName,
    IndexOutOfRange,
    InvalidInput,
    InvalidValue,
    ManifestError,
    MissingFile,
    ShapeMismatch,
    SourceChanged,
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
            if type(dim) is not int or dim < 1:     # not a bool (JSON true)
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
    input becomes float64. A tensor read from a manifest keeps its values
    in its ``data_file`` instead: the path, and the file's ``(st_ino,
    st_size, st_mtime_ns)`` when it was read, which :meth:`pieces` checks.
    """

    name: str
    shape: TensorShape
    values: np.ndarray | None
    source_precision_bits: int = 16
    data_file: tuple[Path, tuple[int, int, int]] | None = None

    def __post_init__(self):
        if self.source_precision_bits not in NUMPY_DTYPES:
            raise ManifestError(
                f"{self.name}: unsupported source precision {self.source_precision_bits}")
        if self.values is None and self.data_file is not None:
            return
        values = np.asarray(self.values)
        if values.dtype not in (np.float16, np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values.ravel()
        if self.values.size != self.shape.element_count:
            raise ShapeMismatch(
                f"{self.name}: {self.values.size} values for shape {self.shape.dims}")
        check_finite(self.name, self.values)

    def pieces(self, step: int) -> Iterator[np.ndarray]:
        """The flat values in order, ``step`` at a time: slices of
        ``values``, or pieces of the data file read into one reused array."""
        if self.values is None:
            return _read_pieces(self, step)
        return (self.values[i:i + step] for i in range(0, self.values.size, step))

    def load(self) -> np.ndarray:
        """The flat values, read whole from the data file if they are kept there."""
        values, = self.pieces(self.shape.element_count)
        return values

    @property
    def blocks(self) -> Iterator[np.ndarray]:
        """The values, as the blocks that :func:`export_manifest` writes."""
        return self.pieces(BLOCK)


class TensorBlocks(NamedTuple):
    """A tensor for :func:`export_manifest` as the blocks of its flat values,
    in order, each at the source precision; read once, as they are written."""

    name: str
    shape: TensorShape
    source_precision_bits: int
    blocks: Iterable[np.ndarray]


class Buffers:
    """Block-sized arrays, by name, that a loop over blocks reuses from block
    to block; :meth:`take` views each in a block's shape and a dtype,
    growing it only for a larger block. A name is one array whatever the
    dtype, so that steps which do not overlap can share one."""

    def __init__(self):
        self._arrays = {}

    def take(self, shape, dtype, *names) -> list[np.ndarray]:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views = []
        for name in names:
            array = self._arrays.get(name)
            if array is None or array.size < size:
                array = self._arrays[name] = np.empty(size, np.uint8)
            views.append(array[:size].view(dtype).reshape(shape))
        return views


def all_finite(values: np.ndarray) -> bool:
    """Whether every one of ``values`` is finite. A binary16 value is tested
    on its bits, finite when its magnitude bits lie below infinity's: numpy
    evaluates isfinite on binary16 in software, about 9x slower."""
    if values.dtype.kind == "f" and values.itemsize == 2:
        magnitudes = values.view(values.dtype.str.replace("f", "u")) & 0x7FFF
        return int(magnitudes.max(initial=0)) < 0x7C00
    return bool(np.isfinite(values).all())


def check_finite(name: str, values: np.ndarray) -> None:
    """Raise InvalidValue naming the tensor unless every one of the flat
    ``values`` is finite; looks at BLOCK of them at a time."""
    for start in range(0, values.size, BLOCK):
        if not all_finite(values[start:start + BLOCK]):
            raise InvalidValue(f"{name}: non-finite value in weight data")


def cast_into(out: np.ndarray, values: np.ndarray, name: str) -> None:
    """Cast the flat ``values`` into ``out``; one beyond the largest finite
    magnitude of out's dtype saturates to it, and InvalidValue names the
    tensor if one is still not finite."""
    with np.errstate(over="ignore"):
        np.copyto(out, values)
    if not all_finite(out):
        limit = np.finfo(out.dtype).max
        np.copyto(out, np.clip(values, -limit, limit))
        check_finite(name, out)


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
            or not all(type(d) is int and d >= 1 for d in raw)):     # not a bool
        raise ManifestError(f"{name}: shape must be a list of 1-4 positive integers, got {raw!r}")
    dims = list(raw) + [1] * (4 - len(raw))
    return TensorShape(*dims)


def _check_size(name: str, shape: TensorShape, bits: int, size: int) -> None:
    expected = shape.element_count * bits // 8
    if size != expected:
        raise ShapeMismatch(
            f"{name}: {size} bytes on disk, shape {shape.dims} at "
            f"{bits}-bit needs {expected}")


def _signature(info: os.stat_result) -> tuple[int, int, int]:
    return info.st_ino, info.st_size, info.st_mtime_ns


def _read_pieces(t: WeightTensor, step: int) -> Iterator[np.ndarray]:
    """Yield the values in ``t``'s data file in order, ``step`` at a time,
    each piece read into one reused array; SourceChanged unless the file is
    as it was read first, when it is opened and after its last piece."""
    path, signature = t.data_file

    def same_file(fh):
        if _signature(os.fstat(fh.fileno())) != signature:
            raise SourceChanged(f"{t.name}: {path} changed since its values were checked")

    count = t.shape.element_count
    with open(path, "rb") as fh:
        same_file(fh)
        step = min(step, count)
        buf = np.empty(step, NUMPY_DTYPES[t.source_precision_bits])
        for start in range(0, count, step):
            piece = buf[:min(step, count - start)]
            if fh.readinto(piece) != piece.nbytes:
                raise ShapeMismatch(f"{t.name}: {path} was cut short while it was read")
            yield piece
        same_file(fh)


def _checked(name: str, shape: TensorShape, bits: int, data_path: Path,
             load: bool = False) -> WeightTensor:
    """A manifest entry's tensor, its data file read once, BLOCK values at a
    time, to check every one finite. The values stay in the file, or with
    ``load`` are kept as read."""
    info = os.stat(data_path)
    _check_size(name, shape, bits, info.st_size)
    t = WeightTensor(name, shape, None, bits, (data_path, _signature(info)))
    if load:
        return WeightTensor(name, shape, t.load(), bits)
    for piece in t.pieces(BLOCK):
        check_finite(name, piece)
    return t


def iter_manifest(manifest_path, extra_exclude=()) -> tuple[
        frozenset[str], Iterator[WeightTensor], frozenset[tuple[int, int]]]:
    """Check that the manifest lists at least one tensor and check every
    entry (keys, unique name, shape, dtype, data file size), then return the
    excluded names, an iterator that reads each tensor, in manifest order,
    only when it is asked for, and the ``(st_dev, st_ino)`` of every data
    file, by which a path that leads to one can be told. A tensor's read
    checks its values finite and leaves them in the file, which must not
    change while they are used; an excluded tensor's are loaded, as they
    are written raw. ``extra_exclude`` adds glob patterns on top of the
    manifest's own ``exclude`` list.
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

    entries, names, files = [], set(), set()
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
        if not isinstance(dtype, str) or dtype not in DTYPE_BITS:
            raise ManifestError(f"{name}: unknown dtype tag {dtype!r}")
        if not isinstance(file_rel, str):
            raise ManifestError(f"{name}: data file must be a path string, got {file_rel!r}")
        bits = DTYPE_BITS[dtype]

        data_path = path.parent / file_rel
        try:
            info = data_path.stat()
        except OSError:
            info = None
        if info is None or not stat.S_ISREG(info.st_mode):
            raise MissingFile(f"{name}: data file not found: {data_path}")
        _check_size(name, shape, bits, info.st_size)
        files.add((info.st_dev, info.st_ino))
        entries.append((name, shape, bits, data_path))

    excluded = resolve_exclusions(names, patterns)
    return (excluded, (_checked(*entry, entry[0] in excluded) for entry in entries),
            frozenset(files))


@contextlib.contextmanager
def staged_outputs():
    """A transaction over output files. Yields ``stage(path)``, which creates
    an empty file beside ``path`` under a name no file had, with a new file's
    usual permissions (not mkstemp's 0600), and returns its path and the
    file, open for writing through the descriptor that created it, for the
    caller to close. On a clean exit the staged files move into place in
    order; any exception (KeyboardInterrupt too), from the block or a move,
    first removes every file staged or moved. Only paths are held."""
    staged, placed = [], []     # (staging file, final path); final paths moved

    def stage(path) -> tuple[Path, BinaryIO]:
        path = Path(path)
        while True:
            tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((tmp, path))
                return tmp, open(fd, "wb")

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in [tmp for tmp, _ in staged] + placed:
            leftover.unlink(missing_ok=True)
        raise


def _file_stem(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "tensor"


def _listed_files(manifest: Path) -> set[Path]:
    """The data files that a manifest already at this path lists, if any."""
    try:
        doc = json.loads(manifest.read_text("utf-8"))
        return {manifest.parent / entry["file"] for entry in doc["tensors"]}
    except (OSError, UnicodeDecodeError, ValueError, LookupError, TypeError):
        return set()


def export_manifest(tensors: Iterable[WeightTensor | TensorBlocks], manifest_path) -> list[Path]:
    """Write each tensor's raw binary as it arrives, then the manifest;
    returns every path written, the manifest last.

    Values are stored at each tensor's source precision, so a freshly loaded
    model writes back byte-identically. A tensor's blocks go to its file as
    they arrive, so beyond what ``tensors`` holds, the export holds one
    block at a time; a WeightTensor's are BLOCK values. A data file is named
    after its tensor, with a serial where the name is taken, by another
    tensor or by the manifest itself. Every file is written in one
    :func:`staged_outputs` transaction, where a data file is read back as
    :func:`iter_manifest` reads one (its size, then every value finite,
    BLOCK at a time); all move into place, the manifest last, once every
    one is checked. On any failure, an empty ``tensors`` or a repeated name,
    the transaction removes its files and the export the directories it
    made before the error propagates. A file in the way that the manifest
    already at ``manifest_path`` does not list, such as a source weight, is
    never replaced.
    """
    path = Path(manifest_path)
    new_dirs = [d for d in path.parents if not d.exists()]     # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    replaceable = _listed_files(path)
    entries = []
    names, used = set(), {path.name}
    try:
        with staged_outputs() as stage:
            for tensor in tensors:
                if tensor.name in names:
                    raise DuplicateName(f"tensor name {tensor.name!r} appears twice")
                names.add(tensor.name)
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
                tmp, fh = stage(final)
                with fh:
                    fh.writelines(block.astype(dtype, copy=False) for block in tensor.blocks)
                _checked(tensor.name, tensor.shape, tensor.source_precision_bits, tmp)
                entries.append({
                    "name": tensor.name,
                    "shape": list(tensor.shape.dims),
                    "dtype": "f16" if tensor.source_precision_bits == 16 else "f32",
                    "file": file_rel,
                })
                del tensor      # not held while the next one is made
            if not entries:
                raise ManifestError(f"{path}: manifest lists no tensors")
            doc = {"exclude": [], "tensors": entries}
            _, fh = stage(path)
            with fh:
                fh.write((json.dumps(doc, indent=1) + "\n").encode("utf-8"))
    except BaseException:
        for new_dir in new_dirs:
            with contextlib.suppress(OSError):
                new_dir.rmdir()
        raise
    return [path.parent / entry["file"] for entry in entries] + [path]
