import json

import numpy as np
import pytest

from convquant import TensorShape, WeightTensor


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


@pytest.fixture
def small_gaussian():
    return gaussian_tensor((8, 4, 3, 3), seed=7, scale=0.1)
