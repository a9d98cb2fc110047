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
from .packing import PackedCodes, pack_into, packed_stream, unpack_codes
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
# The breakpoint search's coarse scan scores lattice points COARSE_FIRST,
# COARSE_FIRST + COARSE_STEP, ...; its fine scan, those within FINE_RADIUS
# of a group's best coarse point.
COARSE_FIRST, COARSE_STEP, FINE_RADIUS = 4, 8, 7


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


def _report(errors, count: int) -> ErrorReport:
    """The error of a tensor from its blocks' (sum of squares, max) in order."""
    sse = worst = 0.0
    for block_sse, block_worst in errors:
        sse += block_sse
        worst = max(worst, block_worst)
    return ErrorReport(sse / count, worst, count)


def _fine_points(center: np.ndarray, grid_points: int):
    """Yield, per group, each lattice point within FINE_RADIUS of its best
    coarse point ``center``, the window shifted inward at the ends of the
    lattice, less ``center`` itself. Lattice indices are whole float64
    values: int64 arithmetic here would page in numpy loops that nothing
    else runs, about 0.25 MB of peak RSS."""
    width = min(2 * FINE_RADIUS + 1, grid_points)
    lo = np.clip(center - FINE_RADIUS, 1, grid_points - width + 1)
    for i in range(width - 1):
        point = lo + i
        yield point + (point >= center)


def _scan(blocks: _Blocks, t: WeightTensor, m: np.ndarray, candidates, bits: int,
          buffers: _pwlq.Buffers, best: tuple[np.ndarray, np.ndarray]) -> None:
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
                        bits: int, grid_points: int, buffers: _pwlq.Buffers) -> np.ndarray:
    """Per group, the breakpoint of least sum of squared reconstruction
    errors found by a coarse-to-fine scan of the ratios p/m.

    ``m`` and ``ratio`` are each group's max magnitude and closed-form p/m.
    The lattice is the ``grid_points`` interior points i / (grid_points + 1)
    of (0, 1). One walk scores the coarse points i = 4, 12, 20, ... (every
    point when grid_points < 4); a second, the closed form and the lattice
    points within FINE_RADIUS of each group's best coarse point. All-zero
    groups get 0.
    """
    if grid_points < 3:
        raise InvalidInput(f"grid_points must be >= 3, got {grid_points}")
    lattice = grid_points + 1
    first, step = (COARSE_FIRST, COARSE_STEP) if grid_points >= COARSE_FIRST else (1, 1)
    coarse = np.arange(first, lattice, step, dtype=np.float64) / lattice
    live_m = np.where(m > 0, m, 1.0)
    best = np.full(len(m), np.inf), np.zeros(len(m))
    _scan(blocks, t, live_m, lambda rows: coarse, bits, buffers, best)
    center = np.rint(best[1] * lattice)

    def closed_form_and_fine(rows):
        yield ratio[rows]
        if grid_points >= COARSE_FIRST:     # else the coarse scan took every point
            for point in _fine_points(center[rows], grid_points):
                yield point / lattice

    _scan(blocks, t, live_m, closed_form_and_fine, bits, buffers, best)
    return m * best[1]


def _breakpoints(t: WeightTensor, blocks: _Blocks, bits: int, mode: str, grid_points: int,
                 m: np.ndarray, buffers: _pwlq.Buffers) -> np.ndarray:
    """One breakpoint per group: m times the closed-form p/m (from the
    square sums), or the ``bruteforce`` search's, which scores that too."""
    size = t.shape.element_count // len(m)
    ratio = _pwlq.ratios_from_squares(m, blocks.square_sums(t, m), size)
    if mode == "bruteforce":
        return _search_breakpoints(blocks, t, m, ratio, bits, grid_points, buffers)
    return m * ratio


def _params(t: WeightTensor, blocks: _Blocks, method: str, bits: int, breakpoint_mode: str,
            grid_points: int, buffers: _pwlq.Buffers) -> np.ndarray:
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
    is encoded, decoded for the error and packed into the tensor's codes
    and region bitmap. The extremes are those of the whole float64 group
    matrix and the sums follow their defined order, so the result does not
    depend on the block size.

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

    blocks, buffers = _Blocks(t.shape, scheme), _pwlq.Buffers()
    params = _params(t, blocks, method, bits, breakpoint_mode, grid_points, buffers)
    pwlq = method == PWLQ
    if pwlq:
        table = _pwlq.piece_table(params, bits)
    count, per_filter = t.shape.element_count, t.shape.element_count // t.shape.n
    words = np.empty(-(-count // 8) * bits, np.uint8)
    bitmap = np.empty(-(-count // 8), np.uint8) if pwlq else None
    # Each block's codes and region bits are staged after the fewer than 8
    # of the blocks before that fill no whole word of the codes.
    staged = np.empty((2, min(blocks.step, t.shape.n) * per_filter + 7), np.uint8)
    carry, (lo, hi), errors = 0, code_domain(method, bits), []
    for f0, f1, x in blocks.walk(t):
        start, end = f0 * per_filter - carry, carry + x.size
        codes, regions = staged[:, carry:end].reshape(2, *x.shape)
        codes = codes.view(np.int8)
        if pwlq:
            regions[...], codes[...], decoded = _pwlq.encode(
                x, blocks.of(table, f0, f1), bits, buffers)
        else:
            rec, work = blocks.of(params, f0, f1), buffers.take(x.shape, np.float64, "q", "work")
            codes[...] = _uniform.encode(x, rec["scale"], rec["zero_point"], lo, hi, work)
            decoded = _uniform.decode(codes, rec["scale"], rec["zero_point"], out=work[0])
        errors.append(_block_error(x, decoded))
        whole = end if f1 == t.shape.n else end - end % 8
        pack_into(words, start, staged[0, :whole].view(np.int8), bits)
        if pwlq:
            bitmap[start // 8:-(-(start + whole) // 8)] = np.packbits(staged[1, :whole],
                                                                       bitorder="little")
        staged[:, :end - whole] = staged[:, whole:end]
        carry = end - whole
    if pwlq:
        bitmap.flags.writeable = False

    return QuantizedTensor(
        name=t.name, shape=t.shape, method=method, bits=bits, scheme=scheme,
        params=params, codes=packed_stream(words, count, bits),
        region_bits=memoryview(bitmap) if pwlq else None,
        source_bits=t.source_precision_bits,
        error=_report(errors, count))


def _stored_blocks(q: QuantizedTensor, blocks: _Blocks):
    """Yield (f0, f1, codes, region bits) for each block of filters, both in
    the block's (n, c, h*w) shape, the codes unpacked into one reused
    buffer. Region bits are None for the uniform methods."""
    per_filter = q.element_count // q.shape.n
    buf = np.empty(min(blocks.step, q.shape.n) * per_filter, np.int8)
    bitmap = None if q.region_bits is None else np.frombuffer(q.region_bits, np.uint8)
    for f0, f1 in blocks.ranges:
        start, stop = f0 * per_filter, f1 * per_filter
        shape = (f1 - f0, *blocks.dims[1:])
        codes = unpack_codes(q.codes, start, stop, out=buf[:stop - start])
        regions = None if bitmap is None else np.unpackbits(
            bitmap[start // 8:-(-stop // 8)], count=stop - start + start % 8,
            bitorder="little")[start % 8:]
        yield f0, f1, codes.reshape(shape), None if regions is None else regions.reshape(shape)


def _check_codes(q: QuantizedTensor, blocks: _Blocks) -> None:
    """Raise CorruptCodes naming the first group of a uniform tensor with a
    code outside its record's domain."""
    stored = ((f0, f1, codes) for f0, f1, codes, _ in _stored_blocks(q, blocks))
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


def decode_blocks(q: QuantizedTensor, dtype) -> Iterator[np.ndarray]:
    """Yield the flat values of ``q`` one block of filters at a time, each
    decoded in float64 and cast to ``dtype`` into one reused array, which
    holds it until the next block; passthrough blocks are its values.

    Codes and region bits are unpacked a block at a time. A decoded value
    beyond the largest finite magnitude of ``dtype`` saturates to it: every
    source value is finite at its source precision, so this only moves a
    value toward its source. A code outside its group's domain raises
    CorruptCodes naming the tensor and the first such group, when the block
    that holds one is reached; a value still not finite after the cast,
    InvalidValue.
    """
    pwlq = q.method == PWLQ
    blocks = _Blocks(q.shape, q.scheme)
    per_filter = q.element_count // q.shape.n
    if q.passthrough:
        source = ((f0, f1, q.values[f0 * per_filter:f1 * per_filter], None)
                  for f0, f1 in blocks.ranges)
    else:
        _check_stored(q)
        source = _stored_blocks(q, blocks)
        # A packed code lies in the k-bit range, the domain of every record
        # but a symmetric-restricted one, which leaves out -2^(k-1).
        check, lowest = q.method == SYMMETRIC_RESTRICTED, -(1 << (q.bits - 1))
        buffers = _pwlq.Buffers()
        if pwlq:
            table = _pwlq.piece_table(q.params, q.bits)

    out = np.empty(min(blocks.step, q.shape.n) * per_filter, dtype)
    for f0, f1, block, regions in source:
        if q.passthrough:
            x = block
        else:
            if check and block.min() == lowest:
                _check_codes(q, blocks)     # raises, or finds every code in its domain
                check = False
            if pwlq:
                x = _pwlq.decode(blocks.of(table, f0, f1), regions, block, buffers)
            else:
                rec = blocks.of(q.params, f0, f1)
                x = _uniform.decode(block, rec["scale"], rec["zero_point"],
                                    out=buffers.take(block.shape, np.float64, "q")[0])
        part = out[:x.size]
        with np.errstate(over="ignore"):
            np.copyto(part, x.reshape(-1))
        if not np.isfinite(part).all():     # saturate what the cast took past the limit
            limit = np.finfo(dtype).max
            np.copyto(part, np.clip(x, -limit, limit).reshape(-1))
            _store.check_finite(q.name, part)
        yield part


def dequantize_tensor(q: QuantizedTensor, dtype=np.float64) -> WeightTensor:
    """Reconstruct a real-valued tensor with values in ``dtype`` from the
    blocks of :func:`decode_blocks`."""
    out, start = np.empty(q.element_count, dtype), 0
    for part in decode_blocks(q, dtype):
        out[start:start + part.size] = part
        start += part.size
    return WeightTensor(q.name, q.shape, out, q.source_bits)
