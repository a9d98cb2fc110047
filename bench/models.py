"""Seeded synthetic conv checkpoints in convquant's manifest format.

Shapes follow the YOLOv7 and YOLOv7-tiny layer lists (training form: every
Conv carries a batch norm, RepConv keeps its 3x3 and 1x1 branches). Weights
are zero-centred and heavy-tailed (Laplace). A layer's std is
``FAN_IN_GAIN / sqrt(fan_in)``, about 1e-2 for a 256-channel 3x3 conv, the
magnitude of trained conv weights; each filter's scale then spreads
log-normally around it. Layer scales and the set of filter scales depend on
the shape alone (the seed orders them), so whole-model error figures barely
move between seeds. Weights are deliberately not rescaled to unit variance.
Every conv has four batch-norm vectors named ``*.bn.*``, which the manifest
excludes from quantization.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

FAN_IN_GAIN = 0.5
FILTER_SPREAD = 0.3   # sigma of the per-filter log-normal scale factor


def _elan(c_in, c_mid):
    """Backbone ELAN: two 1x1 stems and four chained 3x3s; four outputs concatenated."""
    return [(c_in, c_mid, 1), (c_in, c_mid, 1)] + [(c_mid, c_mid, 3)] * 4, 4 * c_mid


def _elan_head(c_in, c_a, c_b):
    """Head ELAN: two 1x1 stems, one 3x3 down to c_b, three more 3x3s; all six concatenated."""
    convs = [(c_in, c_a, 1), (c_in, c_a, 1), (c_a, c_b, 3)] + [(c_b, c_b, 3)] * 3
    return convs, 2 * c_a + 4 * c_b


def yolov7_convs() -> list[tuple[int, int, int]]:
    """(c_in, c_out, k) of every conv in yolov7.yaml, in layer order."""
    convs = [(3, 32, 3), (32, 64, 3), (64, 64, 3), (64, 128, 3)]
    # backbone: one ELAN, then three times a max-pool/conv transition and an ELAN
    for c_in, c_mid, c_out in ((128, 64, 256), (256, 128, 512),
                               (512, 256, 1024), (1024, 256, 1024)):
        if c_in != 128:
            convs += [(c_in, c_in // 2, 1), (c_in, c_in // 2, 1), (c_in // 2, c_in // 2, 3)]
        block, cat = _elan(c_in, c_mid)
        convs += block + [(cat, c_out, 1)]
    # SPPCSPC
    convs += [(1024, 512, 1), (1024, 512, 1), (512, 512, 3), (512, 512, 1),
              (2048, 512, 1), (512, 512, 3), (1024, 512, 1)]
    # top-down path
    convs += [(512, 256, 1), (1024, 256, 1)]
    block, cat = _elan_head(512, 256, 128)
    convs += block + [(cat, 256, 1), (256, 128, 1), (512, 128, 1)]
    block, cat = _elan_head(256, 128, 64)
    convs += block + [(cat, 128, 1)]
    # bottom-up path
    convs += [(128, 128, 1), (128, 128, 1), (128, 128, 3)]
    block, cat = _elan_head(512, 256, 128)
    convs += block + [(cat, 256, 1)]
    convs += [(256, 256, 1), (256, 256, 1), (256, 256, 3)]
    block, cat = _elan_head(1024, 512, 256)
    convs += block + [(cat, 512, 1)]
    # RepConv (3x3 and 1x1 branches) and the detect convs
    for c_in, c_out in ((128, 256), (256, 512), (512, 1024)):
        convs += [(c_in, c_out, 3), (c_in, c_out, 1)]
    convs += [(256, 255, 1), (512, 255, 1), (1024, 255, 1)]
    return convs


def _tiny_elan(c_in, c_mid):
    """YOLOv7-tiny ELAN: two 1x1 stems and two chained 3x3s; four outputs concatenated."""
    return [(c_in, c_mid, 1), (c_in, c_mid, 1), (c_mid, c_mid, 3), (c_mid, c_mid, 3)], 4 * c_mid


def yolov7_tiny_convs() -> list[tuple[int, int, int]]:
    """(c_in, c_out, k) of every conv in yolov7-tiny.yaml, in layer order."""
    convs = [(3, 32, 3), (32, 64, 3)]
    for c_in, c_mid, c_out in ((64, 32, 64), (64, 64, 128),
                               (128, 128, 256), (256, 256, 512)):
        block, cat = _tiny_elan(c_in, c_mid)
        convs += block + [(cat, c_out, 1)]
    # SPPCSPC-tiny
    convs += [(512, 256, 1), (512, 256, 1), (1024, 256, 1), (512, 256, 1)]
    # top-down path
    convs += [(256, 128, 1), (256, 128, 1)]
    block, cat = _tiny_elan(256, 64)
    convs += block + [(cat, 128, 1), (128, 64, 1), (128, 64, 1)]
    block, cat = _tiny_elan(128, 32)
    convs += block + [(cat, 64, 1)]
    # bottom-up path
    convs += [(64, 128, 3)]
    block, cat = _tiny_elan(256, 64)
    convs += block + [(cat, 128, 1), (128, 256, 3)]
    block, cat = _tiny_elan(512, 128)
    convs += block + [(cat, 256, 1)]
    # output convs and the detect convs
    convs += [(64, 128, 3), (128, 256, 3), (256, 512, 3)]
    convs += [(128, 255, 1), (256, 255, 1), (512, 255, 1)]
    return convs


def width_scaled(convs, width: float) -> list[tuple[int, int, int]]:
    """Scale every hidden channel count by ``width``, rounded to a multiple of 8.

    The 3 image channels and the 255 detect outputs keep their size.
    """
    def scale(c):
        return c if c in (3, 255) else max(8, int(round(c * width / 8)) * 8)
    return [(scale(c_in), scale(c_out), k) for c_in, c_out, k in convs]


# A few YOLOv7 convs, 3x3 and 1x1, 256 filters in all: the breakpoint grid
# search dominates, and I/O is negligible.
BRUTEFORCE_CONVS = [(64, 64, 3), (32, 64, 3), (128, 64, 1), (64, 64, 1)]


def conv_weights(rng, c_in, c_out, k) -> np.ndarray:
    """Laplace weights with a fan-in layer std and log-normal per-filter scales.

    The per-filter factors are the log-normal's ``c_out`` quantiles in a seeded
    order, so every seed has the same set of filter scales.
    """
    layer = FAN_IN_GAIN / np.sqrt(c_in * k * k)
    normal = NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / c_out) for i in range(c_out)])
    per_filter = layer * np.exp(FILTER_SPREAD * rng.permutation(z))
    w = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(c_out, c_in * k * k))
    return (w * per_filter[:, None]).astype(np.float16).reshape(c_out, c_in, k, k)


def bn_vectors(rng, c_out) -> dict[str, np.ndarray]:
    return {
        "weight": 1.0 + 0.1 * rng.standard_normal(c_out),
        "bias": 0.1 * rng.standard_normal(c_out),
        "running_mean": 0.1 * rng.standard_normal(c_out),
        "running_var": np.exp(0.5 * rng.standard_normal(c_out)),
    }


def write_model(convs, seed: int, directory) -> Path:
    """Write the manifest and one f16 binary per tensor; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []

    def add(name, array):
        file = f"{name}.bin"
        array.astype("<f2").tofile(directory / file)
        entries.append({"name": name, "shape": list(array.shape),
                        "dtype": "f16", "file": file})

    for i, (c_in, c_out, k) in enumerate(convs):
        add(f"model.{i}.conv.weight", conv_weights(rng, c_in, c_out, k))
        for field, vector in bn_vectors(rng, c_out).items():
            add(f"model.{i}.bn.{field}", vector)
    manifest = directory / "model.json"
    manifest.write_text(json.dumps({"exclude": ["*bn*"], "tensors": entries}, indent=1) + "\n")
    return manifest
