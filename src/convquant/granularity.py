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

A tensor is quantized and decoded one block of whole filters at a time: a
contiguous range of the flat array, about ``tensor_store.BLOCK`` elements,
upcast to float64 on its own, and read again on each pass (from the data
file of a tensor that keeps its values there). Each group's statistics are
gathered over every block before any block is encoded: the extremes are
those of the whole float64 group matrix, and the sums that pwlq's
breakpoints need follow the order that :meth:`_Blocks.fold` defines.
Neither depends on the block size. Codes are packed as each block is
encoded and unpacked as it is decoded, so the working set is a few blocks
whatever the size of the tensor. :func:`decode_blocks` yields each decoded
block at the output precision, so a decode can be written out a block at a
time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import pwlq as _pwlq
from . import tensor_store as _store
from . import uniform as _uniform
from .errors import (
    BreakpointOutOfRange,
    CodeOutOfDomain,
    CorruptCodes,
    DegenerateRange,
    InvalidInput,
)
from .packing import PackedCodes, pack_bits, pack_into, packed_stream, unpack_bits, unpack_codes
from .pwlq import PWLQ
from .tensor_store import TensorShape, WeightTensor
from .uniform import SYMMETRIC_RESTRICTED, UNIFORM_SCHEMES, check_bits, code_domain

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
# The breakpoint search scores the lattice points within WINDOW_RADIUS of
# the one that the quantization-noise model picks for a group.
WINDOW_RADIUS = 3


def _view_dims(shape: TensorShape) -> tuple[int, int, int]:
    n, c, h, w = shape.dims
    return n, c, h * w


def group_count(shape: TensorShape, scheme: str) -> int:
    """Number of groups of a tensor under a granularity."""
    if scheme not in GROUP_LAYOUT:
        raise InvalidInput(f"unknown granularity {scheme!r}")
    dims = _view_dims(shape)
    return math.prod(dims[axis] for axis in GROUP_LAYOUT[scheme][0])


def group_layout(shape: TensorShape, scheme: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A granularity's GROUP_LAYOUT without the tensor's unit axes: equal
    layouts give equal group matrices (filter- and c-shape-wise on 1x1)."""
    dims = _view_dims(shape)
    return tuple(tuple(axis for axis in axes if dims[axis] != 1)
                 for axes in GROUP_LAYOUT[scheme])


def _as_group_matrix(flat: np.ndarray, shape: TensorShape, scheme: str) -> np.ndarray:
    """Reshape a flat row-major array to (group_count, group_size).

    Row g holds group g's elements in ascending flat-index order, so min/max
    and code assignment are reproducible. The result is a view wherever the
    layout allows one.
    """
    order = sum(GROUP_LAYOUT[scheme], ())
    return (flat.reshape(_view_dims(shape)).transpose(order)
            .reshape(group_count(shape, scheme), -1))


# _Blocks._reduce folds contiguous rows shorter than this column by column.
_SHORT_ROW = 32


class _Blocks:
    """A tensor's (n, c, h*w) view under a granularity, in blocks of whole
    filters of about BLOCK elements (at least one filter).

    Each block is a contiguous range of the flat array. A per-group array
    takes the group shape (the view's dims, 1 on the axes that run through
    a group), so that :meth:`of` broadcasts its block's slice onto the block.
    """

    def __init__(self, shape: TensorShape, scheme: str):
        self.shape, self.scheme = shape, scheme
        self.dims = n, c, hw = _view_dims(shape)
        groups, _ = GROUP_LAYOUT[scheme]
        self.group_shape = tuple(d if axis in groups else 1
                                 for axis, d in enumerate(self.dims))
        self.count = math.prod(self.group_shape)
        # Groups that run through the filter axis span every block.
        self.spans = 0 not in groups
        self.step = max(1, _store.BLOCK // (c * hw))
        self.ranges = [(f, min(f + self.step, n)) for f in range(0, n, self.step)]
        # The elements and the groups that the largest block holds a part of.
        self.block_size = min(self.step, n) * c * hw
        self.block_groups = self.groups(0, min(self.step, n)).stop

    def groups(self, f0: int, f1: int) -> slice:
        """The groups that filters [f0, f1) hold a part of: all of them when
        groups span the blocks."""
        if self.spans:
            return slice(0, self.count)
        per_filter = self.count // self.dims[0]
        return slice(f0 * per_filter, f1 * per_filter)

    def shaped(self, part: np.ndarray) -> np.ndarray:
        """A per-group array's part for one block, or each row of a table of
        them, in the group shape that broadcasts onto the block."""
        return part.reshape(*part.shape[:-1], -1, *self.group_shape[1:])

    def of(self, per_group: np.ndarray, f0: int, f1: int) -> np.ndarray:
        """The :meth:`shaped` part of a per-group array for filters [f0, f1)."""
        return self.shaped(per_group[..., self.groups(f0, f1)])

    def rows(self, block: np.ndarray, f0: int, f1: int) -> tuple[slice, np.ndarray]:
        """The block's :meth:`groups` and its rows of the group matrix."""
        mat = _as_group_matrix(block, TensorShape(f1 - f0, *self.shape.dims[1:]),
                               self.scheme)
        return self.groups(f0, f1), mat

    def walk(self, t: WeightTensor, upcast: bool = True):
        """Yield (f0, f1, block) over the (n, c, h*w) view of ``t``'s values,
        read a block at a time by :meth:`WeightTensor.pieces`; with
        ``upcast``, each block is copied to float64 into one reused buffer."""
        n, c, hw = self.dims
        buf = np.empty((min(self.step, n), c, hw)) if upcast else None
        # The pieces lead, so that a data file's last check runs.
        for piece, (f0, f1) in zip(t.pieces(self.step * c * hw), self.ranges):
            block = piece.reshape(f1 - f0, c, hw)
            if upcast:
                np.copyto(buf[:f1 - f0], block)
                block = buf[:f1 - f0]
            yield f0, f1, block

    def _reduce(self, blocks, ufuncs, starts) -> list[np.ndarray]:
        """Per group and ufunc, ``ufunc.reduce`` over the group's rows in
        every (f0, f1, block) of ``blocks``, folded into ``start``. Short
        contiguous rows (channel-wise ones, say) are folded column by
        column, much faster in numpy; min, max, and, or give the same result
        in any order, up to the zero signs that settle_zero_signs fixes."""
        out = [np.full(self.count, start) for start in starts]
        for f0, f1, x in blocks:
            rows, mat = self.rows(x, f0, f1)
            by_column = mat.shape[1] < _SHORT_ROW and mat.strides[1] == mat.itemsize
            for acc, ufunc in zip(out, ufuncs):
                if by_column:
                    for column in mat.T:
                        ufunc(acc[rows], column, out=acc[rows])
                else:
                    ufunc(acc[rows], ufunc.reduce(mat, axis=1), out=acc[rows])
        return out

    def extremes(self, t: WeightTensor) -> tuple[np.ndarray, np.ndarray]:
        """Per-group min and max of a tensor's values, zero extremes signed by
        :func:`convquant.uniform.settle_zero_signs`."""
        vmin, vmax = self._reduce(self.walk(t), (np.minimum, np.maximum),
                                  (np.inf, -np.inf))
        if not (vmin.all() and vmax.all()):
            signs = ((f0, f1, np.signbit(x)) for f0, f1, x in self.walk(t, upcast=False))
            _uniform.settle_zero_signs(
                vmin, vmax, *self._reduce(signs, (np.logical_or, np.logical_and), (False, True)))
        return vmin, vmax

    def fold(self, acc: np.ndarray, values: np.ndarray, f0: int, f1: int) -> None:
        """Add each group's part of a block's per-element ``values``, which
        it overwrites, into the per-group ``acc``. This is the one order of
        every per-group sum: each filter's part of a group is summed as one
        contiguous row, pairwise as numpy sums any row, and the parts are
        added in filter order. Blocks hold whole filters, so the sums do not
        depend on the block size."""
        if not self.spans:      # the group's one part is in this block
            rows, mat = self.rows(values, f0, f1)
            acc[rows] += np.add.reduce(np.ascontiguousarray(mat), axis=1)
            return
        # A filter's part of a layer-wise group is the filter, of an f-shape one a value.
        parts = values.reshape(f1 - f0, len(acc), -1)
        parts = np.add.reduce(parts, axis=2) if parts.shape[2] > 1 else parts[:, :, 0]
        parts[0] += acc
        if len(acc) == 1:   # numpy would sum one column pairwise; accumulate adds in order
            acc[0] = np.add.accumulate(parts[:, 0])[-1]
        else:               # numpy adds the rows one at a time along the fast axis
            np.add.reduce(parts, axis=0, out=acc)

    def lattice_counts(self, t: WeightTensor, m: np.ndarray, lattice: int,
                       buffers: _store.Buffers) -> np.ndarray:
        """Per group of nonzero max magnitude ``m``, how many of a tensor's
        values fall in each bin floor(|x| / m · lattice) = 0 .. lattice, in
        the smallest unsigned dtype that holds a group's size; the
        temporaries are arrays of ``buffers``."""
        counts = np.zeros((self.count, lattice + 1),
                          np.min_scalar_type(self.shape.element_count // self.count))
        one = counts.dtype.type(1)      # a scalar of the counts' dtype keeps add.at unbuffered
        # Each group's first bin, counted from the first group of its block.
        first = np.arange(self.block_groups) * float(lattice + 1)
        for f0, f1, x in self.walk(t):
            rows = self.groups(f0, f1)
            bins = np.abs(x, out=x)
            bins /= self.of(m, f0, f1)
            bins *= lattice
            np.floor(bins, out=bins)
            bins += self.shaped(first[:rows.stop - rows.start])
            index, = buffers.take(x.shape, np.intp, "q")
            np.copyto(index, bins, casting="unsafe")
            np.add.at(counts[rows].reshape(-1), index.reshape(-1), one)
        return counts

    def square_sums(self, t: WeightTensor, m: np.ndarray) -> np.ndarray:
        """Per group, the sum of :func:`convquant.pwlq.scaled_squares` of a
        tensor's values in the order of :meth:`fold`."""
        sums = np.zeros(len(m))
        for f0, f1, x in self.walk(t):
            self.fold(sums, _pwlq.scaled_squares(x, self.of(m, f0, f1), out=x), f0, f1)
        return sums


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
    ``codes`` holds one signed k-bit code per element in row-major order,
    packed as the container stores them (a
    :class:`convquant.packing.PackedCodes`). For the pwlq method the codes
    are folded as :func:`convquant.pwlq.encode` folds them, and
    ``region_bits`` is the bitmap's bytes (or a read-only view of them) that
    marks tail elements, one bit per element, little-endian bit order.
    Passthrough tensors keep their original ``values`` instead. ``error``
    is the reconstruction error against the source, measured when the
    tensor was quantized (None for a tensor read from a container).
    """

    name: str
    shape: TensorShape
    method: str
    bits: int
    scheme: str
    params: np.ndarray | None = None
    codes: PackedCodes | None = None
    region_bits: bytes | memoryview | None = None
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
    """Wrap a tensor that stays at source precision, its values loaded once."""
    return QuantizedTensor(
        name=t.name, shape=t.shape, method=method, bits=bits, scheme=scheme,
        passthrough=True, values=t.load(),
        source_bits=t.source_precision_bits,
        error=ErrorReport(0.0, 0.0, t.shape.element_count))


def _block_error(x: np.ndarray, decoded: np.ndarray) -> tuple[float, float]:
    """Sum of squared errors and max |error| of one block; overwrites both."""
    np.subtract(x, decoded, out=decoded)
    np.multiply(decoded, decoded, out=x)
    return float(np.add.reduce(x.reshape(-1))), float(np.abs(decoded, out=decoded).max())


def _model_points(blocks: _Blocks, t: WeightTensor, m: np.ndarray, bits: int,
                  grid_points: int, buffers: _store.Buffers) -> np.ndarray:
    """Per group of max magnitude ``m`` (nonzero), the lattice point i of
    least expected noise N_center·Δ_center² + N_tail·Δ_tail² (Fang et al.),
    ties going to the smaller point. In units of m², at p/m = r = i / L, L =
    grid_points + 1, Δ_center = 2r / (2^k - 1) and Δ_tail = (1 - r) /
    (2^(k-1) - 1); N_center counts the values with floor(|x| / m · L) < i.
    The noise is evaluated as S·Δ_tail² + N_center·(Δ_center² - Δ_tail²),
    S the group's size, a block's worth of groups at a time in arrays of
    ``buffers``; the :meth:`_Blocks.lattice_counts` go when this returns."""
    lattice = grid_points + 1
    counts = blocks.lattice_counts(t, m, lattice, buffers)
    r = np.arange(1, lattice) / lattice
    tail_noise = ((1 - r) / ((1 << (bits - 1)) - 1)) ** 2
    # What each value that moves from a tail into the center adds.
    gain = (2 * r / ((1 << bits) - 1)) ** 2 - tail_noise
    base = t.shape.element_count // len(m) * tail_noise
    points, step = np.empty(len(m)), max(1, blocks.block_size // grid_points)
    for g in range(0, len(m), step):
        part = counts[g:g + step, :grid_points]
        noise, = buffers.take(part.shape, np.float64, "q")
        np.copyto(noise, part)
        np.cumsum(noise, axis=1, out=noise)     # N_center at i = 1, 2, ...
        noise *= gain
        noise += base
        best, = buffers.take((len(part),), np.intp, "tail")
        np.copyto(points[g:g + len(part)], np.argmin(noise, axis=1, out=best))
    return points + 1


def _scan(blocks: _Blocks, t: WeightTensor, m: np.ndarray, candidates, bits: int,
          buffers: _store.Buffers, best: tuple[np.ndarray, np.ndarray]) -> None:
    """Score each p/m that ``candidates(rows)`` yields for the groups
    ``rows`` by its sum of squared reconstruction errors, in the order of
    :meth:`_Blocks.fold`, and keep in ``best`` (per group, sum and p/m) the
    least, ties going to the smaller p/m. Groups that span the blocks take
    a walk per candidate, whose table is built once; others, one walk."""
    sse, (best_sse, best_ratio) = np.empty(len(m)), best
    if blocks.spans:
        every = slice(0, len(m))
        passes = ((every, [ratio], blocks.walk(t)) for ratio in candidates(every))
    else:
        passes = ((blocks.groups(f0, f1), candidates(blocks.groups(f0, f1)), [(f0, f1, x)])
                  for f0, f1, x in blocks.walk(t))
    for rows, ratios, walk in passes:
        for ratio in ratios:
            records = _pwlq._records(m[rows], ratio * m[rows], bits, first_row=rows.start)
            table = blocks.shaped(_pwlq.piece_table(records, bits))
            sse[rows] = 0.0
            for f0, f1, x in walk:
                *_, err = _pwlq._pieces(x, table, bits, buffers)
                np.subtract(x, err, out=err)
                err *= err
                blocks.fold(sse, err, f0, f1)
            better = sse[rows] < best_sse[rows]
            better |= (sse[rows] == best_sse[rows]) & (ratio < best_ratio[rows])
            np.copyto(best_sse[rows], sse[rows], where=better)
            np.copyto(best_ratio[rows], ratio, where=better)


def _search_breakpoints(blocks: _Blocks, t: WeightTensor, m: np.ndarray, ratio: np.ndarray,
                        bits: int, grid_points: int, buffers: _store.Buffers) -> np.ndarray:
    """Per group, the breakpoint of least sum of squared reconstruction
    errors among the closed form and the lattice points around the noise
    model's choice.

    ``m`` and ``ratio`` are each group's max magnitude and closed-form p/m.
    The lattice is the ``grid_points`` interior points i / (grid_points + 1)
    of (0, 1). A counting walk gives each group's :func:`_model_points`
    choice; one scan then scores the closed form and the lattice points
    within WINDOW_RADIUS of that choice, the window shifted inward at the
    ends of the lattice (the whole lattice when it has no more points).
    All-zero groups get 0. Lattice points are whole float64 values: int64
    arithmetic would page in numpy loops that nothing else runs, about
    0.25 MB of peak RSS.
    """
    if grid_points < 3:
        raise InvalidInput(f"grid_points must be >= 3, got {grid_points}")
    lattice, width = grid_points + 1, min(2 * WINDOW_RADIUS + 1, grid_points)
    live_m = np.where(m > 0, m, 1.0)
    first = np.clip(_model_points(blocks, t, live_m, bits, grid_points, buffers)
                    - WINDOW_RADIUS, 1, grid_points - width + 1)

    def closed_form_and_window(rows):
        yield ratio[rows]
        for i in range(width):
            yield (first[rows] + i) / lattice

    best = np.full(len(m), np.inf), np.zeros(len(m))
    _scan(blocks, t, live_m, closed_form_and_window, bits, buffers, best)
    return m * best[1]


def _breakpoints(t: WeightTensor, blocks: _Blocks, bits: int, mode: str, grid_points: int,
                 m: np.ndarray, buffers: _store.Buffers) -> np.ndarray:
    """One breakpoint per group: m times the closed-form p/m (from the
    square sums), or the ``bruteforce`` search's, which scores that too."""
    size = t.shape.element_count // len(m)
    ratio = _pwlq.ratios_from_squares(m, blocks.square_sums(t, m), size)
    if mode == "bruteforce":
        return _search_breakpoints(blocks, t, m, ratio, bits, grid_points, buffers)
    return m * ratio


def _params(t: WeightTensor, blocks: _Blocks, method: str, bits: int, breakpoint_mode: str,
            grid_points: int, buffers: _store.Buffers) -> np.ndarray:
    """Each group's record; its statistics are dropped before encoding."""
    vmin, vmax = blocks.extremes(t)
    try:
        if method == PWLQ:
            p = _breakpoints(t, blocks, bits, breakpoint_mode, grid_points,
                             np.maximum(vmax, -vmin), buffers)
            return _pwlq.group_records(bits, vmin, vmax, p)
        return _uniform.range_records(method, bits, vmin, vmax)
    except (DegenerateRange, BreakpointOutOfRange) as exc:
        raise type(exc)(f"{t.name}: {exc}") from exc


def quantize_tensor(t: WeightTensor, scheme: str, method: str, bits: int,
                    breakpoint_mode: str = "approx",
                    grid_points: int = _pwlq.DEFAULT_GRID_POINTS) -> QuantizedTensor:
    """Quantize one tensor under a granularity, one block of filters at a time.

    Each group's parameters come from its statistics (extremes, and for
    pwlq its breakpoint), gathered over every block first; then each block
    is encoded, packed straight into the tensor's codes and region bitmap
    from its first code on, and decoded for the error, whose sum and max
    are added up as the blocks arrive. The extremes are those of the whole
    float64 group matrix and the sums follow their defined order, so the
    result does not depend on the block size.

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

    blocks, buffers = _Blocks(t.shape, scheme), _store.Buffers()
    params = _params(t, blocks, method, bits, breakpoint_mode, grid_points, buffers)
    pwlq = method == PWLQ
    if pwlq:
        table = _pwlq.piece_table(params, bits)
    count, per_filter = t.shape.element_count, t.shape.element_count // t.shape.n
    words = np.empty(-(-count // 8) * bits, np.uint8)
    bitmap = np.empty(-(-count // 8), np.uint8) if pwlq else None
    (lo, hi), sse, worst = code_domain(method, bits), 0.0, 0.0
    for f0, f1, x in blocks.walk(t):
        if pwlq:
            regions, codes, decoded = _pwlq.encode(x, blocks.of(table, f0, f1), bits, buffers)
            pack_bits(bitmap, f0 * per_filter, regions.reshape(-1), buffers)
        else:
            rec, work = blocks.of(params, f0, f1), buffers.take(x.shape, np.float64, "q", "work")
            codes = _uniform.encode(x, rec["scale"], rec["zero_point"], lo, hi, work)
            decoded = _uniform.decode(codes, rec["scale"], rec["zero_point"], out=work[0])
        pack_into(words, f0 * per_filter, codes.reshape(-1), bits, buffers)
        block_sse, block_worst = _block_error(x, decoded)
        sse, worst = sse + block_sse, max(worst, block_worst)
    if pwlq:
        bitmap.flags.writeable = False

    return QuantizedTensor(
        name=t.name, shape=t.shape, method=method, bits=bits, scheme=scheme,
        params=params, codes=packed_stream(words, count, bits),
        region_bits=memoryview(bitmap) if pwlq else None,
        source_bits=t.source_precision_bits,
        error=ErrorReport(sse / count, worst, count))


def _stored_blocks(q: QuantizedTensor, blocks: _Blocks, buffers: _store.Buffers):
    """Yield (f0, f1, codes, region bits) for each block of filters, both in
    the block's (n, c, h*w) shape, unpacked into arrays of ``buffers`` that
    the next block reuses. Region bits are None for the uniform methods."""
    per_filter = q.element_count // q.shape.n
    codes, = buffers.take((blocks.block_size,), np.int8, "codes")
    if q.region_bits is not None:
        bitmap = np.frombuffer(q.region_bits, np.uint8)
        regions, = buffers.take((blocks.block_size,), np.uint8, "regions")
    for f0, f1 in blocks.ranges:
        start, stop = f0 * per_filter, f1 * per_filter
        shape = (f1 - f0, *blocks.dims[1:])
        unpack_codes(q.codes, start, stop, codes[:stop - start], buffers)
        if q.region_bits is not None:
            unpack_bits(bitmap, start, stop, regions[:stop - start], buffers)
        yield (f0, f1, codes[:stop - start].reshape(shape),
               None if q.region_bits is None else regions[:stop - start].reshape(shape))


def _check_codes(q: QuantizedTensor, blocks: _Blocks) -> None:
    """Raise CorruptCodes naming the first group of a uniform tensor with a
    code outside its record's domain."""
    stored = ((f0, f1, codes)
              for f0, f1, codes, _ in _stored_blocks(q, blocks, _store.Buffers()))
    cmin, cmax = blocks._reduce(stored, (np.minimum, np.maximum), (np.inf, -np.inf))
    try:
        _uniform.check_code_range(q.params, cmin, cmax)
    except CodeOutOfDomain as exc:
        raise CorruptCodes(f"{q.name}: {exc}") from exc


def _check_stored(q: QuantizedTensor) -> None:
    """Raise CorruptCodes unless ``q`` holds a packed code and, for pwlq, a
    region bit per element, and a record per group."""
    count = q.element_count
    if not (isinstance(q.codes, PackedCodes) and q.codes.count == count
            and q.codes.bits == q.bits):
        raise CorruptCodes(f"{q.name}: code stream missing or wrong length")
    expected_groups = group_count(q.shape, q.scheme)
    if q.group_count != expected_groups:
        raise CorruptCodes(
            f"{q.name}: {q.group_count} parameter sets for {expected_groups} groups")
    if q.method == PWLQ and (q.region_bits is None or len(q.region_bits) != -(-count // 8)):
        raise CorruptCodes(f"{q.name}: region bitmap missing or wrong length")


def _decode(q: QuantizedTensor, records: np.ndarray, codes: np.ndarray, regions,
            buffers: _store.Buffers) -> np.ndarray:
    """The float64 decode of ``codes`` (and, for pwlq, their tail bits
    ``regions``) under ``records``, which broadcast against them, in an
    array of ``buffers``."""
    if q.method == PWLQ:
        return _pwlq.decode(_pwlq.piece_table(records, q.bits), regions, codes, buffers)
    return _uniform.decode(codes, records["scale"], records["zero_point"],
                           out=buffers.take(codes.shape, np.float64, "q")[0])


def _table_width(q: QuantizedTensor, dtype) -> int:
    """Entries of each group's decode table, one per code (and region bit,
    for pwlq), where :func:`decode_blocks` reads one; 0 where it decodes
    each value. A table serves where it takes no more entries than the
    group has values, and no more bytes than the group's record."""
    width = 2 << q.bits if q.method == PWLQ else 1 << q.bits
    fits = (width <= q.element_count // q.group_count
            and width * np.dtype(dtype).itemsize <= q.params.itemsize)
    return width if fits else 0


def _decode_table(q: QuantizedTensor, rows: slice, width: int, dtype,
                  buffers: _store.Buffers) -> np.ndarray:
    """The decode tables of groups ``rows`` of ``q``, flat, in an array of
    ``buffers``: per group, the values at ``dtype`` of codes -2^(k-1) ..
    2^(k-1) - 1, then, for pwlq, of the same codes in a tail, each decoded
    and cast as a value of that code is; made BLOCK entries at a time."""
    half = 1 << (q.bits - 1)
    grid, tails = np.arange(-half, half, dtype=np.int8), np.array([[0], [1]], np.uint8)
    table, = buffers.take(((rows.stop - rows.start) * width,), dtype, "table")
    step = max(1, _store.BLOCK // width)
    for g in range(0, rows.stop - rows.start, step):
        records = q.params[rows][g:g + step, None, None]
        codes = np.broadcast_to(grid, (len(records), width // (2 * half), 2 * half))
        x = _decode(q, records, codes, tails, buffers).reshape(-1)
        _store.cast_into(table[g * width:g * width + x.size], x, q.name)
    return table


def decode_blocks(q: QuantizedTensor, dtype) -> Iterator[np.ndarray]:
    """Yield the flat values of ``q`` one block of filters at a time, each
    decoded in float64 and cast to ``dtype`` into one reused array, which
    holds it until the next block; passthrough blocks are its values.

    Codes and region bits are unpacked a block at a time. Where
    :func:`_table_width` allows, each group's every code (and region bit) is
    decoded and cast once, into a table that each block's codes index: once
    per tensor where groups span the blocks, else for each block's groups.
    A decoded value beyond the largest finite magnitude of ``dtype``
    saturates to it: every source value is finite at its source precision,
    so this only moves a value toward its source. A code outside its group's
    domain raises CorruptCodes naming the tensor and the first such group,
    when the block that holds one is reached; a value still not finite
    after the cast, InvalidValue, when it is cast (a table's entries, when
    the table is made).
    """
    blocks = _Blocks(q.shape, q.scheme)
    per_filter = q.element_count // q.shape.n
    out = np.empty(blocks.block_size, dtype)
    if q.passthrough:
        for f0, f1 in blocks.ranges:
            part = out[:(f1 - f0) * per_filter]
            _store.cast_into(part, q.values[f0 * per_filter:f1 * per_filter], q.name)
            yield part
        return

    _check_stored(q)
    buffers, width = _store.Buffers(), _table_width(q, dtype)
    # A packed code lies in the k-bit range, the domain of every record
    # but a symmetric-restricted one, which leaves out -2^(k-1).
    check, half = q.method == SYMMETRIC_RESTRICTED, 1 << (q.bits - 1)
    if width:
        # A value's table entry: its group's first + 2^(k-1), + code, + 2^k in a tail.
        first, tables = np.arange(blocks.block_groups) * width + half, None
    for f0, f1, codes, regions in _stored_blocks(q, blocks, buffers):
        if check and codes.min() == -half:
            _check_codes(q, blocks)     # raises, or finds every code in its domain
            check = False
        part = out[:codes.size]
        if not width:
            x = _decode(q, blocks.of(q.params, f0, f1), codes, regions, buffers)
            _store.cast_into(part, x.reshape(-1), q.name)
            yield part
            continue
        rows = blocks.groups(f0, f1)
        if tables is None or not blocks.spans:
            tables = _decode_table(q, rows, width, dtype, buffers)
        # The index shares the array that the tables are made in.
        index, = buffers.take(codes.shape, np.intp, "q")
        offsets = blocks.shaped(first[:rows.stop - rows.start])
        if regions is None:
            np.add(codes, offsets, out=index)
        else:
            np.multiply(regions, 2 * half, out=index, dtype=np.intp)
            index += codes
            index += offsets
        # Every index is in range; "clip" writes to ``part`` unbuffered.
        yield np.take(tables, index.reshape(-1), out=part, mode="clip")


def dequantize_tensor(q: QuantizedTensor, dtype=np.float64) -> WeightTensor:
    """Reconstruct a real-valued tensor with values in ``dtype`` from the
    blocks of :func:`decode_blocks`."""
    out, start = np.empty(q.element_count, dtype), 0
    for part in decode_blocks(q, dtype):
        out[start:start + part.size] = part
        start += part.size
    return WeightTensor(q.name, q.shape, out, q.source_bits)
