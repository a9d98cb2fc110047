import json
import os

import numpy as np
import pytest

from convquant import (
    PWLQ,
    ErrorReport,
    TensorShape,
    WeightTensor,
    cli,
    dequantize_tensor,
    pwlq,
    quantize_tensor,
    unpack_codes,
)
from convquant.granularity import _Blocks
from convquant.packing import pack_into, packed_stream


def write_manifest(dir_path, tensors, exclude=()):
    """Write raw binaries plus a manifest; tensors are (name, shape, values, dtype)."""
    entries = []
    for name, shape, values, dtype in tensors:
        np_dtype = np.dtype("<f2") if dtype == "f16" else np.dtype("<f4")
        fname = name.replace("/", "_").replace(".", "_") + ".bin"
        data = np.asarray(values, dtype=np.float64).astype(np_dtype).tobytes()
        (dir_path / fname).write_bytes(data)
        entries.append({"name": name, "shape": list(shape), "dtype": dtype,
                        "file": fname})
    manifest = dir_path / "model.json"
    manifest.write_text(json.dumps({"exclude": list(exclude), "tensors": entries}))
    return manifest


def replace_halved(path):
    """Put a new file in the place of the f16 data file ``path``: its
    values halved, so the same size under another inode."""
    fresh = path.with_name(path.name + ".new")
    fresh.write_bytes((np.frombuffer(path.read_bytes(), "<f2") * 0.5).astype("<f2").tobytes())
    os.replace(fresh, path)


def gaussian_tensor(shape, seed, scale=1.0, name="t"):
    """Seeded Gaussian WeightTensor; values snapped to f16 representables."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, scale, size=int(np.prod(shape)))
    values = values.astype(np.float16).astype(np.float64)
    return WeightTensor(name, TensorShape(*shape), values)


def matrix_tensor(mat, name="t"):
    """A (rows, size) matrix as a float64 tensor whose filter-wise group
    matrix is the matrix itself."""
    mat = np.asarray(mat, dtype=np.float64)
    return WeightTensor(name, TensorShape(*mat.shape, 1, 1), mat.ravel(), 32)


def split_container(blob):
    """A qnt/1 container's bytes as (its JSON header's bytes, the payload)."""
    newline = blob.index(b"\n")
    payload = newline + 1 + int(blob[:newline].split()[1])
    return blob[newline + 1:payload], blob[payload:]


def pack_codes(codes, bits):
    """Signed codes in [-2^(k-1), 2^(k-1)-1] as a PackedCodes, packed as
    quantize_tensor packs them (the domain is not checked)."""
    codes = np.ravel(codes).astype(np.int8, copy=False)
    out = np.empty(-(-codes.size // 8) * bits, dtype=np.uint8)
    pack_into(out, 0, codes, bits)
    return packed_stream(out, codes.size, bits)


def unpacked(q):
    """The int8 codes and uint8 region bits (None for the uniform methods)
    of a quantized tensor, one per element."""
    regions = None
    if q.region_bits is not None:
        regions = np.unpackbits(np.frombuffer(q.region_bits, np.uint8),
                                count=q.element_count, bitorder="little")
    return unpack_codes(q.codes), regions


def decoded_error(t, q):
    """MSE and max |error| of q's decode against t, computed with plain
    numpy, independently of the error that quantize_tensor measures."""
    diff = t.values.astype(np.float64) - dequantize_tensor(q).values
    return ErrorReport(float(np.mean(diff * diff)), float(np.abs(diff).max()), diff.size)


def memory_saving(tensors):
    """The whole-model memory saving that the CLI's report prints for tensors."""
    return cli._totals([cli._summary(q, False) for q in tensors])["memory_saving"]


def bruteforce(t, scheme, bits, grid_points=pwlq.DEFAULT_GRID_POINTS):
    """The breakpoints that the bruteforce search gives t's groups."""
    return quantize_tensor(t, scheme, PWLQ, bits, breakpoint_mode="bruteforce",
                           grid_points=grid_points).params["p"]


def closed_form(m):
    """The package's closed-form breakpoint of a group whose max magnitude
    is ``m`` RMS: a one-value group [0.5] with the square sum of an RMS of
    0.5 / m."""
    ratio = pwlq.ratios_from_squares(np.array([0.5]), np.array([(0.5 / m) ** 2]), 1)
    return m * float(ratio[0])


def group_sse(t, scheme, bits, p):
    """Per group of t, the sum of squared errors of its decode with
    breakpoints ``p``, in the order of _Blocks.fold."""
    blocks = _Blocks(t.shape, scheme)
    vmin, vmax = blocks.extremes(t)
    table = pwlq.piece_table(pwlq.group_records(bits, vmin, vmax, p), bits)
    sse = np.zeros(blocks.count)
    for f0, f1, x in blocks.walk(t):
        *_, decoded = pwlq.encode(x, blocks.of(table, f0, f1), bits)
        blocks.fold(sse, (x - decoded) ** 2, f0, f1)
    return sse


@pytest.fixture
def small_gaussian():
    return gaussian_tensor((8, 4, 3, 3), seed=7, scale=0.1)
