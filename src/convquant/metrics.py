"""Granularity auto-selection and memory accounting.

Candidates are ranked on the error that :func:`quantize_tensor` measures
while it encodes (``QuantizedTensor.error``); nothing here decodes again.

The memory model is the paper's fixed accounting, :data:`MEMORY_MODEL`:
ceil(E * k / 8) bytes for the packed codes of an E-element tensor plus a
fixed per-group cost for the stored parameters (16-bit scale, 16-bit
zero-point and so on), against a 16-bit baseline. It leaves out the one
region bit per element that piecewise tensors also store, as published
memory-saving figures for this family of quantizers do;
``memory_bytes(q, region_bits=True)`` charges it.
"""

from __future__ import annotations

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

# The paper's accounting, as containers and reports record it.
MEMORY_MODEL = {
    "baseline_bits_per_element": 16,
    "param_bytes_affine": 4,        # 16-bit scale + 16-bit zero-point
    "param_bytes_symmetric": 2,     # 16-bit scale
    "param_bytes_pwlq": 10,         # breakpoint, 2 scales, 2 zero-points
    "charge_region_bits": False,
}


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


def baseline_bytes(q: QuantizedTensor) -> int:
    """Bytes the tensor occupies unquantized at the baseline precision."""
    return -(-q.element_count * MEMORY_MODEL["baseline_bits_per_element"] // 8)


def memory_bytes(q: QuantizedTensor, region_bits: bool = False) -> int:
    """Bytes the quantized tensor occupies under :data:`MEMORY_MODEL`; with
    ``region_bits``, a pwlq tensor's one region bit per element too."""
    if q.passthrough:
        return baseline_bytes(q)
    total = -(-q.element_count * q.bits // 8)
    method = q.method if q.method in (AFFINE, PWLQ) else "symmetric"
    total += q.group_count * MEMORY_MODEL[f"param_bytes_{method}"]
    if region_bits and q.method == PWLQ:
        total += -(-q.element_count // 8)
    return total


def figure_of_merit(memory_saving: float, accuracy_loss_pct: float) -> float:
    """memory saving / (accuracy loss + 1); loss is supplied by the user."""
    if not memory_saving > 0:
        raise InvalidInput(f"memory_saving must be positive, got {memory_saving}")
    if accuracy_loss_pct < 0:
        raise InvalidInput(f"accuracy_loss_pct must be >= 0, got {accuracy_loss_pct}")
    return memory_saving / (accuracy_loss_pct + 1.0)
