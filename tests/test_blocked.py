"""quantize_tensor and dequantize_tensor work one block of filters at a time,
and so does the ``dequantize`` command, from decode to its read-back.

Whatever the block size, they must give what they give in one block: the
extremes are those of the whole float64 group matrix, every per-group sum
follows its defined order, and the working set must not grow with the
tensor.
"""

import tracemalloc

import numpy as np
import pytest

from convquant import (
    AFFINE,
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    GRANULARITIES,
    LAYER_WISE,
    METHODS,
    PWLQ,
    SYMMETRIC_RESTRICTED,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    open_container,
    quantize_tensor,
    granularity,
    tensor_store,
    write_container,
)
from convquant.cli import main
from convquant.errors import CorruptCodes, SourceChanged

from conftest import (bruteforce, group_sse, pack_codes, replace_halved, unpacked,
                      write_manifest)


def _tensor(name, dims, dtype, seed, zeros=False):
    rng = np.random.default_rng(seed)
    values = rng.laplace(0.0, 0.05, dims)
    if zeros:
        values[1] = 0.0                                    # an all-zero filter
        values[:, 2] = -0.0                                # an all -0 input channel
        values[rng.random(dims) < 0.1] = 0.0               # scattered +0
        values[0, 0] = rng.choice([0.0, -0.0], dims[2:])   # a channel mixing +0 and -0
    values = values.astype(dtype)
    return WeightTensor(name, TensorShape(*dims), values.reshape(-1),
                        16 if dtype == np.float16 else 32)


TENSORS = [
    _tensor("zeros-f16", (6, 4, 3, 3), np.float16, 1, zeros=True),
    _tensor("f32", (5, 3, 3, 3), np.float32, 2),
    _tensor("zeros-f32-1x1", (7, 8, 1, 1), np.float32, 3, zeros=True),
    _tensor("one-filter-f32", (1, 4, 3, 3), np.float32, 4),
    _tensor("one-weight-filters-f16", (20, 1, 1, 1), np.float16, 5),
    _tensor("many-filters-f32", (40, 8, 3, 3), np.float32, 6),
    WeightTensor("negative-zero", TensorShape(3, 2, 1, 2), np.full(12, -0.0, np.float16)),
]

CASES = [(scheme, method, mode) for scheme in GRANULARITIES for method in METHODS
         for mode in (("approx", "bruteforce") if method == PWLQ else ("approx",))]


def _run(monkeypatch, block, t, *args, **kwargs):
    """quantize_tensor with BLOCK = ``block``, and its f64 and f16 decodes."""
    monkeypatch.setattr(tensor_store, "BLOCK", block)
    q = quantize_tensor(t, *args, **kwargs)
    return q, dequantize_tensor(q).values, dequantize_tensor(q, np.float16).values


@pytest.mark.parametrize("block", [1, 97], ids=["one-filter", "97-elements"])
@pytest.mark.parametrize("scheme,method,mode", CASES)
def test_blocks_match_one_block_on_the_whole_group_matrix(monkeypatch, block, scheme,
                                                          method, mode):
    for i, t in enumerate(TENSORS):
        if scheme == CHANNEL_WISE and t.shape.h * t.shape.w == 1:
            continue
        args = (t, scheme, method, 3 + i % 6)
        kwargs = {"breakpoint_mode": mode, "grid_points": 8}
        whole, whole_back, whole_f16 = _run(monkeypatch, t.values.size, *args, **kwargs)
        q, back, back_f16 = _run(monkeypatch, block, *args, **kwargs)
        (codes, regions), (whole_codes, whole_regions) = unpacked(q), unpacked(whole)
        assert q.params.tobytes() == whole.params.tobytes(), t.name
        assert codes.tobytes() == whole_codes.tobytes(), t.name
        if method == PWLQ:
            assert regions.tobytes() == whole_regions.tobytes(), t.name
        assert back.tobytes() == whole_back.tobytes(), t.name
        assert back_f16.tobytes() == whole_f16.tobytes(), t.name
        assert np.array_equal(back_f16, back.astype(np.float16)), t.name
        diff = t.values.astype(np.float64) - back
        assert q.error.max_abs == np.abs(diff).max(), t.name
        assert q.error.mse == pytest.approx(np.mean(diff * diff), rel=1e-12, abs=0), t.name


@pytest.mark.parametrize("block", [1, 97, tensor_store.BLOCK],
                         ids=["one-filter", "97-elements", "default"])
@pytest.mark.parametrize("scheme", GRANULARITIES)
def test_bruteforce_scores_no_group_worse_than_the_closed_form(monkeypatch, block, scheme):
    # Both summed in the one order of _Blocks.fold, as the search sums its
    # candidates, of which the closed form is one.
    monkeypatch.setattr(tensor_store, "BLOCK", block)
    for i, t in enumerate(TENSORS):
        if scheme == CHANNEL_WISE and t.shape.h * t.shape.w == 1:
            continue
        bits = 3 + i % 6
        approx = quantize_tensor(t, scheme, PWLQ, bits).params["p"]
        found = bruteforce(t, scheme, bits)
        assert np.all(group_sse(t, scheme, bits, found) <= group_sse(t, scheme, bits, approx)), \
            t.name


@pytest.mark.parametrize("bits", [4, 6])
def test_corrupt_codes_name_the_first_bad_group(monkeypatch, bits):
    # A packed code lies in the k-bit range, which only a
    # symmetric-restricted group's domain does not span: it leaves out -2^(k-1).
    monkeypatch.setattr(tensor_store, "BLOCK", 1)
    t = TENSORS[5]
    q = quantize_tensor(t, F_SHAPE_WISE, SYMMETRIC_RESTRICTED, bits)
    codes = unpacked(q)[0].reshape(t.shape.n, -1)
    codes[0, 30] = -(1 << (bits - 1))     # group 30, first block
    codes[-1, 7] = -(1 << (bits - 1))     # group 7, last block
    q.codes = pack_codes(codes, bits)
    with pytest.raises(CorruptCodes, match=r"^many-filters-f32: group 7: "):
        dequantize_tensor(q)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scheme", GRANULARITIES)
def test_packed_decode_matches_the_one_block_decode(monkeypatch, scheme, method):
    # Blocks of filters of 9, 27 or 36 weights start mid-word, several spans
    # of eight blocks end in a short one, and five of these tensors hold a
    # count of weights that is not a multiple of 8; at one weight, the
    # bitmap is one byte. One block is one span, from the streams' start.
    tensors = [TENSORS[i] for i in (0, 1, 2, 4, 6)]
    tensors += [_tensor("odd-filters", (19, 3, 3, 1), np.float32, 7),
                _tensor("one-weight", (1, 1, 1, 1), np.float16, 8)]
    for t in tensors:
        for bits in range(3 if method == PWLQ else 2, 9):
            q = quantize_tensor(t, scheme, method, bits)
            if q.passthrough:
                continue
            monkeypatch.setattr(tensor_store, "BLOCK", t.values.size)
            whole = dequantize_tensor(q).values.tobytes()
            for block in (1, 97):
                monkeypatch.setattr(tensor_store, "BLOCK", block)
                assert dequantize_tensor(q).values.tobytes() == whole, (t.name, bits, block)
            monkeypatch.undo()


@pytest.mark.parametrize("method", [AFFINE, PWLQ])
def test_container_decode_holds_no_whole_tensor_array(tmp_path, monkeypatch, method):
    # A whole-tensor int8 code or uint8 region-bit array would take a byte
    # per weight. Reading and decoding hold the packed sections, a few
    # records per group (120 bytes each for pwlq) and a few spans of blocks.
    monkeypatch.setattr(tensor_store, "BLOCK", 4096)
    shape = TensorShape(1024, 128, 3, 3)
    values = np.random.default_rng(3).laplace(0.0, 0.02, shape.element_count)
    path = tmp_path / "m.qnt"
    write_container([quantize_tensor(WeightTensor("t", shape, values), F_SHAPE_WISE,
                                     method, 4)], path)
    del values
    sections = path.stat().st_size
    tracemalloc.start()
    try:
        with open_container(path) as tensors:
            for q in tensors:
                for _ in granularity.decode_blocks(q, np.float16):
                    pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shape.element_count >= 1 << 20
    assert peak - sections <= shape.element_count / 2


def test_zero_extremes_take_ieee_signs_in_every_block_order(monkeypatch):
    # One f-shape group per column, one filter per row, and a block per
    # filter or one for all: a zero minimum is -0 if any filter holds a -0,
    # a zero maximum -0 only if every one does.
    columns = [[0.0, -0.0, 0.5, 0.0, 1.0, -0.0], [-1.0, -0.0, 0.0, -2.0, -0.0, -3.0],
               [-0.0, -1.0, -0.0, -0.0, -0.0, -0.0]]
    t = WeightTensor("t", TensorShape(6, 1, 1, 3), np.array(columns).T.reshape(-1))
    for block in (1, t.values.size):
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        q = quantize_tensor(t, F_SHAPE_WISE, AFFINE, 4)
        assert q.params[["beta", "alpha"]].tolist() == [(0.0, 1.0), (-3.0, 0.0), (-1.0, 0.0)]
        assert np.signbit(q.params["beta"]).tolist() == [True, True, True]
        assert np.signbit(q.params["alpha"]).tolist() == [False, False, True]


def _traced_peaks(monkeypatch, t, scheme, method, mode):
    """Peak bytes traced beyond what each returns: while quantize_tensor
    gathers the statistics and params, while it encodes, and inside
    dequantize_tensor; and the group count and params record size."""
    phases = []
    params_of = granularity._params

    def traced_params(*args):
        params = params_of(*args)
        phases.append(tracemalloc.get_traced_memory()[1] - params.nbytes)
        tracemalloc.reset_peak()
        return params

    with monkeypatch.context() as patch:
        patch.setattr(granularity, "_params", traced_params)
        tracemalloc.start()
        try:
            q = quantize_tensor(t, scheme, method, 4, breakpoint_mode=mode)
            outputs = sum(memoryview(a).nbytes for a in (q.params, q.codes.data, q.region_bits)
                          if a is not None)
            phases.append(tracemalloc.get_traced_memory()[1] - outputs)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            back = dequantize_tensor(q, np.float16)
            phases.append(tracemalloc.get_traced_memory()[1] - start - back.values.nbytes)
        finally:
            tracemalloc.stop()
    return phases, q.group_count, q.params.itemsize


WORKING_SET_CASES = ([(scheme, method, "approx") for scheme in (F_SHAPE_WISE, FILTER_WISE,
                                                                 C_SHAPE_WISE)
                      for method in (AFFINE, PWLQ)]
                     + [(scheme, PWLQ, "bruteforce")
                        for scheme in (LAYER_WISE, F_SHAPE_WISE, FILTER_WISE)])


@pytest.mark.parametrize("scheme,method,mode", WORKING_SET_CASES)
def test_working_set_is_a_few_blocks_whatever_the_tensor_size(monkeypatch, scheme, method,
                                                              mode):
    # Encode peaks at four to five float64 blocks, decode at under three.
    # Doubling the filters doubles the filter- and c-shape-wise groups,
    # which may add about a record per group. The breakpoint search walks
    # the same blocks as encode and holds one candidate's records and table
    # and its per-group sums besides: about three records per group.
    rng = np.random.default_rng(12)
    peaks = []
    for n in (256, 512):
        values = rng.laplace(0.0, 0.02, n * 256 * 9).astype(np.float16)
        peaks.append(_traced_peaks(monkeypatch, WeightTensor("t", TensorShape(n, 256, 3, 3),
                                                             values), scheme, method, mode))
    (small, groups, record), (large, more_groups, _) = peaks
    float64_block = 8 * tensor_store.BLOCK
    search = 3 * more_groups * record if mode == "bruteforce" else 0
    growth = float64_block / 4 + (more_groups - groups) * record
    assert max(small + large) <= 6 * float64_block + search
    assert all(b <= a + growth for a, b in zip(small, large))


def _dequantize_peak(tmp_path, n, method):
    """Peak bytes traced in the ``dequantize`` command on a one-tensor model
    of n filters, beyond the tensor's codes, region bits and packed sections."""
    work = tmp_path / f"{method}-{n}"
    work.mkdir()
    values = np.random.default_rng(n).laplace(0.0, 0.02, n * 256 * 9)
    manifest = write_manifest(work, [("conv", (n, 256, 3, 3), values, "f16")])
    assert main(["quantize", "--manifest", str(manifest), "--method", method,
                 "--granularity", "fshape", "--out", str(work / "m.qnt")]) == 0
    count = values.size
    held = count + -(-count * 4 // 8)
    if method == PWLQ:
        held += count + -(-count // 8)
    tracemalloc.start()
    try:
        assert main(["dequantize", str(work / "m.qnt"), str(work / "out" / "model.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - held


@pytest.mark.parametrize("method", [AFFINE, PWLQ])
def test_dequantize_command_working_set_does_not_grow_with_the_tensor(tmp_path, method):
    # f-shape groups do not grow with the filters. The command decodes,
    # casts and writes a block at a time, and reads the export back so.
    small, large = (_dequantize_peak(tmp_path, n, method) for n in (256, 512))
    assert large <= small + 8 * tensor_store.BLOCK / 4


def _quantize_peak(tmp_path, n, method, granularity):
    """Peak bytes traced in the ``quantize`` command on a one-tensor model of
    n filters, and the size of the container it writes."""
    work = tmp_path / f"{method}-{granularity}-{n}"
    work.mkdir()
    values = np.random.default_rng(n).laplace(0.0, 0.02, n * 256 * 9)
    manifest = write_manifest(work, [("conv", (n, 256, 3, 3), values, "f16")])
    del values
    tracemalloc.start()
    try:
        assert main(["quantize", "--manifest", str(manifest), "--method", method,
                     "--granularity", granularity, "--out", str(work / "m.qnt")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (work / "m.qnt").stat().st_size


@pytest.mark.parametrize("granularity", ["fshape", "auto3"])
@pytest.mark.parametrize("method", ["affine", "pwlq"])
def test_quantize_command_working_set_does_not_grow_with_the_tensor(tmp_path, method,
                                                                   granularity):
    # The command reads the source and packs the codes a block at a time:
    # beyond a few blocks it holds a tensor's packed sections, and under
    # auto3 two candidates' (the best so far and the one being made). A
    # whole-tensor f16 source and int8 code array would grow 3 B per weight.
    (small, small_size), (large, large_size) = (
        _quantize_peak(tmp_path, n, method, granularity) for n in (256, 512))
    held = 2 if granularity == "auto3" else 1
    assert large - small <= held * (large_size - small_size) + 8 * tensor_store.BLOCK


def _model_sources(tmp_path, dtype):
    """A manifest tensor and a 1x1 one, read from their data files, and the
    same values as in-memory tensors."""
    rng = np.random.default_rng(11)
    shapes = {"conv": (6, 4, 3, 3), "proj": (7, 8, 1, 1)}
    arrays = {name: rng.laplace(0.0, 0.05, shape) for name, shape in shapes.items()}
    arrays["conv"][1] = 0.0                 # an all-zero filter
    arrays["conv"][:, 2] = -0.0             # an all -0 input channel
    directory = tmp_path / dtype
    directory.mkdir()
    manifest = write_manifest(directory, [(name, shapes[name], arrays[name].reshape(-1), dtype)
                                          for name in shapes])
    _, tensors, _ = tensor_store.iter_manifest(manifest)
    from_files = list(tensors)
    assert all(t.values is None for t in from_files)
    in_memory = [WeightTensor(t.name, t.shape, t.load().copy(), t.source_precision_bits)
                 for t in from_files]
    return from_files, in_memory


@pytest.mark.parametrize("when", ["before-quantize", "before-search"])
def test_replaced_data_file_raises_source_changed(tmp_path, monkeypatch, when):
    # The data file is replaced after iter_manifest checked its values:
    # before quantize_tensor reads it, or once the square sums are taken,
    # so that the breakpoint search's counting walk reads it first.
    values = np.random.default_rng(4).laplace(0.0, 0.05, 288)
    manifest = write_manifest(tmp_path, [("conv", (8, 4, 3, 3), values, "f16")])
    data = tmp_path / "conv.bin"
    _, tensors, _ = tensor_store.iter_manifest(manifest)
    t, = tensors
    if when == "before-quantize":
        replace_halved(data)
    else:
        square_sums = granularity._Blocks.square_sums

        def then_replace(*args):
            sums = square_sums(*args)
            replace_halved(data)
            return sums

        monkeypatch.setattr(granularity._Blocks, "square_sums", then_replace)
    with pytest.raises(SourceChanged) as raised:
        quantize_tensor(t, FILTER_WISE, PWLQ, 4, breakpoint_mode="bruteforce")
    assert str(raised.value) == f"conv: {data} changed since its values were checked"


@pytest.mark.parametrize("block", [1, 97, tensor_store.BLOCK],
                         ids=["one-filter", "97-elements", "default"])
@pytest.mark.parametrize("scheme,method,mode", CASES)
def test_file_backed_and_in_memory_sources_agree(tmp_path, monkeypatch, block, scheme,
                                                 method, mode):
    # The file-backed tensors are read again on every pass over their
    # blocks; a channel-wise 1x1 tensor is a passthrough, loaded once.
    monkeypatch.setattr(tensor_store, "BLOCK", block)
    for dtype in ("f16", "f32"):
        from_files, in_memory = _model_sources(tmp_path, dtype)
        outputs = []
        for source in (from_files, in_memory):
            quantized = [quantize_tensor(t, scheme, method, bits, breakpoint_mode=mode,
                                         grid_points=8)
                         for bits in range(3 if method == PWLQ else 2, 9) for t in source]
            path = tmp_path / f"{dtype}-{len(outputs)}.qnt"
            write_container(quantized, path)
            outputs.append((path.read_bytes(), [q.error for q in quantized]))
        assert outputs[0] == outputs[1], dtype


@pytest.mark.parametrize("method", [AFFINE, PWLQ])
@pytest.mark.parametrize("dtype", ["f16", "f32"])
def test_dequantized_files_do_not_depend_on_the_block_size(tmp_path, monkeypatch, method,
                                                           dtype):
    rng = np.random.default_rng(9)
    shapes = {"conv": (24, 8, 3, 3), "proj": (20, 16, 1, 1), "head": (8, 4, 1, 1)}
    manifest = write_manifest(tmp_path, [(name, shape, rng.laplace(0.0, 0.05, np.prod(shape)),
                                          dtype) for name, shape in shapes.items()],
                              exclude=["head"])
    assert main(["quantize", "--manifest", str(manifest), "--method", method,
                 "--out", str(tmp_path / "m.qnt")]) == 0
    exported = []
    for block in (1, tensor_store.BLOCK):
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        out = tmp_path / f"out-{block}"
        assert main(["dequantize", str(tmp_path / "m.qnt"), str(out / "model.json")]) == 0
        exported.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert exported[0] == exported[1]
    assert sorted(exported[0]) == ["conv.bin", "head.bin", "model.json", "proj.bin"]
