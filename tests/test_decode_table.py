"""decode_blocks decodes a group's every code once, into a table that the
group's codes index, where the table is no larger than the group and its
record; elsewhere it decodes each value. The two must give the same bytes,
saturation and errors included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    TensorShape,
    WeightTensor,
    dequantize_tensor,
    granularity,
    quantize_tensor,
    tensor_store,
)
from convquant.errors import CorruptCodes

from conftest import gaussian_tensor, pack_codes, unpacked

F16_MAX = float(np.finfo(np.float16).max)


def _full_width(q, dtype):
    return 2 << q.bits if q.method == PWLQ else 1 << q.bits


def _decode(q, dtype, table: bool) -> bytes:
    """``q`` decoded at ``dtype`` through a table for every group, or none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(granularity, "_table_width", _full_width if table else lambda q, dtype: 0)
        return dequantize_tensor(q, dtype).values.tobytes()


@st.composite
def cases(draw):
    """A tensor at f16 or f32, with values at the f16 limits, signed zeros,
    subnormals, and all-zero or constant groups, and how to quantize it."""
    method = draw(st.sampled_from(METHODS))
    scheme = draw(st.sampled_from(GRANULARITIES))
    bits = draw(st.integers(3 if method == PWLQ else 2, 8))
    dtype = draw(st.sampled_from([np.float16, np.float32]))
    dims = tuple(draw(st.integers(1, hi)) for hi in (40, 5, 3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.laplace(0.0, draw(st.sampled_from([1e-6, 0.05, 1.0, 3e4])), dims)
    tiny = float(np.finfo(dtype).smallest_subnormal)
    specials = [F16_MAX, -F16_MAX, 0.0, -0.0, tiny, -tiny, 3 * tiny]
    mask = rng.random(dims) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    values[mask] = rng.choice(specials, mask.sum())
    if draw(st.booleans()):
        values[0] = 0.0                         # an all-zero filter
    if draw(st.booleans()):
        values[:, 0] = values.flat[-1]          # a constant input channel
    if draw(st.booleans()):
        values[...] = values.flat[0]            # a constant tensor
    values = np.clip(values, -F16_MAX, F16_MAX).astype(dtype).reshape(-1)
    t = WeightTensor("t", TensorShape(*dims), values, 16 if dtype == np.float16 else 32)
    return t, scheme, method, bits, draw(st.sampled_from([1, 97, values.size]))


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_table_and_direct_decodes_are_bit_identical(case):
    t, scheme, method, bits, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_store, "BLOCK", block)
        q = quantize_tensor(t, scheme, method, bits)
        for dtype in (np.float16, np.float32, np.float64):
            assert _decode(q, dtype, table=True) == _decode(q, dtype, table=False), dtype


def test_saturated_values_are_the_f16_limits_on_both_paths():
    # At 2 bits the affine step of [-65504, 65504] is 43669.3, and the
    # lowest code decodes to -2 steps, past the f16 limit: it saturates.
    values = np.array([-F16_MAX, F16_MAX, 0.0, 100.0] * 4, np.float16)
    q = quantize_tensor(WeightTensor("t", TensorShape(4, 4, 1, 1), values), LAYER_WISE,
                        AFFINE, 2)
    assert granularity._table_width(q, np.float16)
    for table in (True, False):
        back = np.frombuffer(_decode(q, np.float16, table), np.float16)
        assert back[0] == -F16_MAX and np.isfinite(back).all()


@pytest.mark.parametrize("table", [True, False], ids=["table", "direct"])
@pytest.mark.parametrize("bits", [2, 4, 8])
def test_symmetric_restricted_lowest_code_names_its_group(monkeypatch, bits, table):
    # The k-bit range holds -2^(k-1), which a symmetric-restricted domain
    # leaves out; the table holds an entry for it all the same.
    monkeypatch.setattr(tensor_store, "BLOCK", 97)
    t = gaussian_tensor((300, 2, 3, 3), seed=4, scale=0.05)
    q = quantize_tensor(t, F_SHAPE_WISE, SYMMETRIC_RESTRICTED, bits)
    codes = unpacked(q)[0].reshape(t.shape.n, -1)
    codes[-1, 7] = -(1 << (bits - 1))       # group 7, last block
    q.codes = pack_codes(codes, bits)
    with pytest.raises(CorruptCodes, match=r"^t: group 7: "):
        _decode(q, np.float16, table)


# (shape, granularity, method, bits, output dtype, whether a table serves):
# a table needs no more entries than the group has values, and no more
# bytes than its record (34 for the uniform methods, 120 for pwlq).
PATHS = [
    ((64, 8, 3, 3), F_SHAPE_WISE, AFFINE, 4, np.float16, True),    # 16 x 2 B
    ((64, 8, 3, 3), F_SHAPE_WISE, PWLQ, 4, np.float16, True),      # 32 x 2 B
    ((64, 8, 3, 3), LAYER_WISE, SYMMETRIC_FULL, 4, np.float16, True),
    ((64, 8, 3, 3), FILTER_WISE, SYMMETRIC_RESTRICTED, 4, np.float16, True),
    ((8, 64, 3, 3), C_SHAPE_WISE, PWLQ, 4, np.float16, True),      # 64 values, 32 entries
    ((64, 8, 3, 3), CHANNEL_WISE, AFFINE, 3, np.float16, True),    # 9 values, 8 entries
    ((64, 8, 3, 3), F_SHAPE_WISE, PWLQ, 3, np.float32, True),      # 16 x 4 B
    ((64, 8, 3, 3), F_SHAPE_WISE, AFFINE, 2, np.float64, True),    # 4 x 8 B
    ((64, 8, 3, 3), F_SHAPE_WISE, AFFINE, 5, np.float16, False),   # 32 x 2 B
    ((64, 8, 3, 3), F_SHAPE_WISE, PWLQ, 5, np.float16, False),     # 64 x 2 B
    ((64, 8, 3, 3), FILTER_WISE, AFFINE, 8, np.float16, False),
    ((64, 8, 3, 3), F_SHAPE_WISE, AFFINE, 4, np.float32, False),   # 16 x 4 B
    ((64, 8, 3, 3), F_SHAPE_WISE, PWLQ, 4, np.float64, False),
    ((64, 8, 3, 3), CHANNEL_WISE, AFFINE, 4, np.float16, False),   # 9 values, 16 entries
    ((8, 64, 3, 3), F_SHAPE_WISE, AFFINE, 4, np.float16, False),   # 8 values
    ((24, 16, 3, 3), F_SHAPE_WISE, PWLQ, 4, np.float16, False),    # 24 values, 32 entries
]


@pytest.mark.parametrize("shape,scheme,method,bits,dtype,table", PATHS)
def test_each_case_takes_the_path_its_sizes_pick(monkeypatch, shape, scheme, method, bits,
                                                dtype, table):
    # Tables are made once per tensor where groups span the blocks of
    # filters (layer- and f-shape-wise), else once per block.
    monkeypatch.setattr(tensor_store, "BLOCK", 97)
    q = quantize_tensor(gaussian_tensor(shape, seed=2, scale=0.05), scheme, method, bits)
    made = []
    decode_table = granularity._decode_table
    monkeypatch.setattr(granularity, "_decode_table",
                        lambda *args: made.append(args[1]) or decode_table(*args))
    dequantize_tensor(q, dtype)
    blocks = granularity._Blocks(q.shape, scheme)
    if not table:
        assert made == []
    elif blocks.spans:
        assert made == [slice(0, q.group_count)]
    else:
        assert made == [blocks.groups(f0, f1) for f0, f1 in blocks.ranges]
