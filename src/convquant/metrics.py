"""Granularity auto-selection and memory accounting.

Candidates are ranked on the error that :func:`quantize_tensor` measures
while it encodes (``QuantizedTensor.error``); nothing here decodes again.

The memory model charges ceil(E * k / 8) bytes for the packed codes of an
E-element tensor plus a fixed per-group cost for the stored parameters
(16-bit scale, 16-bit zero-point and so on). Piecewise-quantized tensors
physically also need one region bit per element; whether that bit is charged
is a policy flag (``charge_region_bits``), off by default, since per-group
parameter overhead rather than region storage is what published
memory-saving figures for this family of quantizers reflect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, NoViableCandidate
from .granularity import (
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    LAYER_WISE,
    QuantizedTensor,
    group_layout,
    quantize_tensor,
)
from .pwlq import DEFAULT_GRID_POINTS, PWLQ
from .tensor_store import WeightTensor
from .uniform import AFFINE

# Fixed preference order for breaking mse ties, finest data-adaptivity first.
SELECTION_PREFERENCE = (C_SHAPE_WISE, F_SHAPE_WISE, FILTER_WISE,
                        CHANNEL_WISE, LAYER_WISE)


@dataclass(frozen=True)
class MemoryModel:
    """Byte-cost assumptions for the memory-saving ratio."""

    baseline_bits_per_element: int = 16
    param_bytes_affine: int = 4        # 16-bit scale + 16-bit zero-point
    param_bytes_symmetric: int = 2     # 16-bit scale
    param_bytes_pwlq: int = 10         # breakpoint, 2 scales, 2 zero-points
    charge_region_bits: bool = False

    def __post_init__(self):
        for name in ("baseline_bits_per_element", "param_bytes_affine",
                     "param_bytes_symmetric", "param_bytes_pwlq"):
            if getattr(self, name) <= 0:
                raise InvalidInput(f"{name} must be positive")

    def param_bytes(self, method: str) -> int:
        if method == PWLQ:
            return self.param_bytes_pwlq
        if method == AFFINE:
            return self.param_bytes_affine
        return self.param_bytes_symmetric


def select_granularity(t: WeightTensor, candidates, method: str, bits: int,
                       breakpoint_mode: str = "approx",
                       grid_points: int = DEFAULT_GRID_POINTS) -> tuple[str, QuantizedTensor]:
    """Quantize under every candidate granularity and keep the lowest-mse one.

    Candidates are ranked on the error each quantization measured in its
    own pass, and only the best so far is kept. Candidates that degrade to
    passthrough (channel-wise on 1x1 kernels) are left out of the
    comparison unless nothing else was offered. Exact mse ties fall back to
    a fixed preference order, so a candidate whose ``group_layout`` repeats
    a preferred one's is skipped: same group matrix, same result, a tie it
    cannot win. Pwlq candidates are ranked with the closed-form breakpoint;
    with ``breakpoint_mode="bruteforce"`` only the winner is then quantized
    again with searched breakpoints, which never raises its error.
    """
    ranked = [s for s in SELECTION_PREFERENCE if s in set(candidates)]
    if len(ranked) != len(set(candidates)):
        raise InvalidInput(f"unknown granularity among {sorted(set(candidates))}")
    if not ranked:
        raise NoViableCandidate("no candidate granularities given")

    search = method == PWLQ and breakpoint_mode == "bruteforce"
    best, layouts = None, set()
    for scheme in ranked:
        layout = group_layout(t.shape, scheme)
        if layout in layouts:
            continue
        q = quantize_tensor(t, scheme, method, bits,
                            breakpoint_mode="approx" if search else breakpoint_mode)
        if q.passthrough:
            if len(ranked) == 1:
                return scheme, q
        else:
            layouts.add(layout)
            if best is None or q.error.mse < best[1].error.mse:
                best = (scheme, q)   # the one it beats is dropped here
        del q                        # and a loser before the next is quantized
    if search:
        scheme, best = best[0], None
        best = scheme, quantize_tensor(t, scheme, method, bits, breakpoint_mode, grid_points)
    return best


def baseline_bytes(q: QuantizedTensor, model: MemoryModel) -> int:
    """Bytes the tensor occupies unquantized at the baseline precision."""
    return -(-q.element_count * model.baseline_bits_per_element // 8)


def memory_bytes(q: QuantizedTensor, model: MemoryModel) -> int:
    """Bytes the quantized tensor occupies under the model's policy."""
    if q.passthrough:
        return baseline_bytes(q, model)
    total = -(-q.element_count * q.bits // 8)
    total += q.group_count * model.param_bytes(q.method)
    if model.charge_region_bits and q.method == PWLQ:
        total += -(-q.element_count // 8)
    return total


def figure_of_merit(memory_saving: float, accuracy_loss_pct: float) -> float:
    """memory saving / (accuracy loss + 1); loss is supplied by the user."""
    if not memory_saving > 0:
        raise InvalidInput(f"memory_saving must be positive, got {memory_saving}")
    if accuracy_loss_pct < 0:
        raise InvalidInput(f"accuracy_loss_pct must be >= 0, got {accuracy_loss_pct}")
    return memory_saving / (accuracy_loss_pct + 1.0)
