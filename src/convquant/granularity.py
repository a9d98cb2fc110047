"""Grouping granularities and group-wise tensor quantization.

A granularity decides which weights share one set of quantization
parameters. For a tensor of shape (N filters, C channels, H, W):

* ``layer-wise``:   one group for the whole tensor.
* ``filter-wise``:  one group per filter, N groups.
* ``channel-wise``: one group per (filter, channel), N*C groups.
* ``f-shape-wise``: one group per (channel, h, w) position, spanning all
  filters; C*H*W groups.
* ``c-shape-wise``: one group per (filter, h, w) position, spanning that
  filter's channels; N*H*W groups.

Channel-wise groups of a 1x1 kernel hold a single weight each, which cannot
be meaningfully quantized; such tensors are passed through at source
precision instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pwlq as _pwlq
from . import uniform as _uniform
from .errors import (
    BreakpointOutOfRange,
    CodeOutOfDomain,
    CorruptCodes,
    DegenerateRange,
    InvalidInput,
)
from .pwlq import PWLQ
from .tensor_store import TensorShape, WeightTensor
from .uniform import UNIFORM_SCHEMES, check_bits

LAYER_WISE = "layer-wise"
FILTER_WISE = "filter-wise"
CHANNEL_WISE = "channel-wise"
F_SHAPE_WISE = "f-shape-wise"
C_SHAPE_WISE = "c-shape-wise"

# Each granularity's groups over the (n, c, h*w) view of a tensor: the axes
# that index a group, then the axes that run through it in flat order.
GROUP_LAYOUT = {
    LAYER_WISE: ((), (0, 1, 2)),
    FILTER_WISE: ((0,), (1, 2)),
    CHANNEL_WISE: ((0, 1), (2,)),
    F_SHAPE_WISE: ((1, 2), (0,)),
    C_SHAPE_WISE: ((0, 2), (1,)),
}
GRANULARITIES = tuple(GROUP_LAYOUT)

METHODS = UNIFORM_SCHEMES + (PWLQ,)

BREAKPOINT_MODES = ("approx", "bruteforce")


def _view_dims(shape: TensorShape) -> tuple[int, int, int]:
    n, c, h, w = shape.dims
    return n, c, h * w


def group_count(shape: TensorShape, scheme: str) -> int:
    """Number of groups of a tensor under a granularity."""
    if scheme not in GROUP_LAYOUT:
        raise InvalidInput(f"unknown granularity {scheme!r}")
    dims = _view_dims(shape)
    return math.prod(dims[axis] for axis in GROUP_LAYOUT[scheme][0])


def _as_group_matrix(flat: np.ndarray, shape: TensorShape, scheme: str) -> np.ndarray:
    """Reshape a flat row-major array to (group_count, group_size).

    Row g holds group g's elements in ascending flat-index order, so min/max
    and code assignment are reproducible. The result is a view wherever the
    layout allows one.
    """
    order = sum(GROUP_LAYOUT[scheme], ())
    return (flat.reshape(_view_dims(shape)).transpose(order)
            .reshape(group_count(shape, scheme), -1))


def _from_group_matrix(mat: np.ndarray, shape: TensorShape, scheme: str) -> np.ndarray:
    """Inverse of _as_group_matrix; returns a flat row-major array."""
    order = sum(GROUP_LAYOUT[scheme], ())
    dims = _view_dims(shape)
    grouped = mat.reshape([dims[axis] for axis in order]).transpose(np.argsort(order))
    return np.ascontiguousarray(grouped).reshape(-1)


@dataclass(frozen=True)
class ErrorReport:
    """Reconstruction error of one quantized tensor against its original."""

    mse: float
    max_abs: float
    element_count: int


@dataclass
class QuantizedTensor:
    """One tensor after group-wise quantization (or passthrough).

    ``params`` holds one record per group: :data:`convquant.uniform.RECORD`
    for the uniform methods, :data:`convquant.pwlq.RECORD` for pwlq.
    ``codes`` holds one signed k-bit int8 code per element in row-major
    order; for the pwlq method ``region_bits`` marks tail elements and the
    codes are the folded representation from
    :func:`convquant.pwlq.fold_regions`. Passthrough tensors keep their
    original ``values`` instead. ``error`` is the reconstruction error
    against the source, measured when the tensor was quantized (None for a
    tensor read from a container).
    """

    name: str
    shape: TensorShape
    method: str
    bits: int
    scheme: str
    params: np.ndarray | None = None
    codes: np.ndarray | None = None
    region_bits: np.ndarray | None = None
    passthrough: bool = False
    values: np.ndarray | None = None
    source_bits: int = 16
    error: ErrorReport | None = None

    @property
    def group_count(self) -> int:
        return 0 if self.params is None else len(self.params)

    @property
    def element_count(self) -> int:
        return self.shape.element_count


def make_passthrough(t: WeightTensor, scheme: str, method: str, bits: int) -> QuantizedTensor:
    """Wrap a tensor that stays at source precision."""
    return QuantizedTensor(
        name=t.name, shape=t.shape, method=method, bits=bits, scheme=scheme,
        passthrough=True, values=t.values.copy(),
        source_bits=t.source_precision_bits,
        error=ErrorReport(0.0, 0.0, t.shape.element_count))


def error_report(values: np.ndarray, reconstructed: np.ndarray) -> ErrorReport:
    """MSE and max |error| over the flat row-major difference; overwrites
    ``reconstructed``."""
    diff = np.subtract(values, reconstructed, out=reconstructed)
    mse = float(np.mean(diff * diff))
    return ErrorReport(mse, float(np.abs(diff, out=diff).max()), values.size)


def quantize_tensor(t: WeightTensor, scheme: str, method: str, bits: int,
                    breakpoint_mode: str = "approx",
                    grid_points: int = _pwlq.DEFAULT_GRID_POINTS) -> QuantizedTensor:
    """Quantize one tensor under a granularity, all groups in one matrix pass.

    Channel-wise on a 1x1 kernel returns a passthrough tensor: each group
    would hold a single weight and the layer cannot be usefully quantized at
    this granularity. The result carries its reconstruction error. Kernel
    errors naming a group are re-raised with the tensor's name.
    """
    if method not in METHODS:
        raise InvalidInput(f"unknown method {method!r}")
    check_bits(bits, piecewise=method == PWLQ)
    if scheme not in GRANULARITIES:
        raise InvalidInput(f"unknown granularity {scheme!r}")
    if breakpoint_mode not in BREAKPOINT_MODES:
        raise InvalidInput(f"unknown breakpoint mode {breakpoint_mode!r}")

    if scheme == CHANNEL_WISE and t.shape.h * t.shape.w == 1:
        return make_passthrough(t, scheme, method, bits)

    mat = _as_group_matrix(t.values, t.shape, scheme)
    region_bits = None
    try:
        if method == PWLQ:
            p = _pwlq.row_breakpoints(mat, bits, breakpoint_mode, grid_points)
            params, regions, codes = _pwlq.quantize_rows(mat, bits, p)
            reconstructed = _pwlq.dequantize_rows(params, regions, codes)
            tail_bits, codes = _pwlq.fold_regions(regions, codes, bits)
            region_bits = _from_group_matrix(tail_bits, t.shape, scheme)
        else:
            params, codes = _uniform.quantize_rows(mat, method, bits)
            reconstructed = _uniform.decode(codes, params["scale"][:, None],
                                            params["zero_point"][:, None])
    except (DegenerateRange, BreakpointOutOfRange) as exc:
        raise type(exc)(f"{t.name}: {exc}") from exc
    reconstructed = _from_group_matrix(reconstructed, t.shape, scheme)

    return QuantizedTensor(
        name=t.name, shape=t.shape, method=method, bits=bits, scheme=scheme,
        params=params, codes=_from_group_matrix(codes, t.shape, scheme),
        region_bits=region_bits, source_bits=t.source_precision_bits,
        error=error_report(t.values, reconstructed))


def dequantize_tensor(q: QuantizedTensor) -> WeightTensor:
    """Reconstruct a real-valued tensor; passthrough returns values verbatim."""
    if q.passthrough:
        return WeightTensor(q.name, q.shape, q.values.copy(), q.source_bits)
    if q.codes is None or len(q.codes) != q.element_count:
        raise CorruptCodes(f"{q.name}: code array missing or wrong length")
    expected_groups = group_count(q.shape, q.scheme)
    if q.group_count != expected_groups:
        raise CorruptCodes(
            f"{q.name}: {q.group_count} parameter sets for {expected_groups} groups")

    code_mat = _as_group_matrix(q.codes, q.shape, q.scheme)
    try:
        if q.method == PWLQ:
            if q.region_bits is None or len(q.region_bits) != q.element_count:
                raise CorruptCodes(f"{q.name}: region bitmap missing or wrong length")
            # Degenerate groups decode uniformly, whatever their region bits say.
            tail = (_as_group_matrix(q.region_bits, q.shape, q.scheme).astype(bool)
                    & (q.params["kind"] == _pwlq.PWLQ_KIND)[:, None])
            regions, codes = _pwlq.unfold_regions(tail, code_mat, q.bits)
            out = _pwlq.dequantize_rows(q.params, regions, codes)
        else:
            out = _uniform.dequantize_rows(q.params, code_mat)
    except CodeOutOfDomain as exc:
        raise CorruptCodes(f"{q.name}: {exc}") from exc

    return WeightTensor(q.name, q.shape,
                        _from_group_matrix(out, q.shape, q.scheme), q.source_bits)
