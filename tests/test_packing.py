import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import (
    AFFINE,
    LAYER_WISE,
    SYMMETRIC_RESTRICTED,
    PackedCodes,
    dequantize_tensor,
    quantize_tensor,
    tensor_store,
    unpack_codes,
)
from convquant.packing import pack_bits, pack_into, unpack_bits
from convquant.errors import CodeOutOfDomain, CorruptCodes, InvalidInput, TruncatedData
from convquant.uniform import check_code_range, range_records

import scalar_oracle as oracle
from conftest import gaussian_tensor, pack_codes, unpacked


class TestKnownLayouts:
    def test_two_nibbles(self):
        assert oracle.pack_bits([1, -1], 4) == b"\x79"
        packed = pack_codes([1, -1], 4)
        assert packed.data == b"\x79"
        assert unpack_codes(packed).tolist() == [1, -1]

    def test_minimum_code_biases_to_zero(self):
        assert oracle.pack_bits([-8], 4) == b"\x00"
        assert pack_codes([-8], 4).data == b"\x00"

    def test_three_bit_spill_across_bytes(self):
        assert oracle.pack_bits([3, -2, 1], 3) == bytes.fromhex("5701")
        packed = pack_codes([3, -2, 1], 3)
        assert packed.data == bytes.fromhex("5701")
        assert unpack_codes(packed).tolist() == [3, -2, 1]

    def test_empty(self):
        packed = pack_codes([], 5)
        assert packed.data == b"" and packed.count == 0
        assert unpack_codes(packed).tolist() == []


class TestValidation:
    def test_out_of_domain_code(self):
        # pack_into takes codes unchecked; the domain is checked where the
        # codes are made, against the group's record.
        rec = range_records(AFFINE, 4, np.array([-1.0]), np.array([1.0]))
        check_code_range(rec, np.array([-8]), np.array([7]))
        with pytest.raises(CodeOutOfDomain):
            check_code_range(rec, np.array([0]), np.array([8]))
        with pytest.raises(CodeOutOfDomain):
            check_code_range(rec, np.array([-9]), np.array([0]))

    def test_bits_out_of_range(self):
        with pytest.raises(InvalidInput):
            PackedCodes(1, 1, b"\x00")
        with pytest.raises(InvalidInput):
            PackedCodes(9, 1, b"\x00\x00")

    def test_truncated_stream(self):
        with pytest.raises(TruncatedData):
            PackedCodes(4, 3, b"\x00")

    def test_oversized_stream(self):
        with pytest.raises(InvalidInput):
            PackedCodes(4, 1, b"\x00\x00")


class TestRoundTrip:
    @given(bits=st.integers(2, 8),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bijection(self, bits, data):
        half = 1 << (bits - 1)
        codes = data.draw(st.lists(st.integers(-half, half - 1),
                                   min_size=0, max_size=200))
        packed = pack_codes(codes, bits)
        assert len(packed.data) == -(-len(codes) * bits // 8)
        assert unpack_codes(packed).tolist() == codes

    @given(bits=st.integers(2, 8),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_bitwise_oracle(self, bits, data):
        half = 1 << (bits - 1)
        codes = data.draw(st.lists(st.integers(-half, half - 1),
                                   min_size=1, max_size=64))
        assert pack_codes(codes, bits).data == oracle.pack_bits(codes, bits)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_long_sequences(self, bits):
        rng = np.random.default_rng(bits)
        half = 1 << (bits - 1)
        codes = rng.integers(-half, half, size=10_000)
        packed = pack_codes(codes, bits)
        assert len(packed.data) == -(-10_000 * bits // 8)
        assert np.array_equal(unpack_codes(packed), codes)

    @given(bits=st.integers(2, 8), count=st.integers(1, 200),
           seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_trailing_bits_are_zero(self, bits, count, seed):
        rng = np.random.default_rng(seed)
        half = 1 << (bits - 1)
        codes = rng.integers(-half, half, size=count)
        packed = pack_codes(codes, bits)
        used = count * bits
        spare = len(packed.data) * 8 - used
        if spare:
            assert packed.data[-1] >> (8 - spare) == 0


class TestBlockEdges:
    """Eight k-bit codes fill k bytes; every count around a block edge, each bit width."""

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_every_count_to_three_blocks(self, bits):
        rng = np.random.default_rng(bits)
        half = 1 << (bits - 1)
        for count in range(25):
            codes = rng.integers(-half, half, size=count)
            codes[:2] = [-half, half - 1][:count]      # both domain ends
            expected = oracle.pack_bits(codes.tolist(), bits)
            for given_codes in (codes, codes.astype(np.int8)):
                packed = pack_codes(given_codes, bits)
                assert packed.data == expected
                out = unpack_codes(packed)
                assert out.dtype == np.int8
                assert out.tolist() == codes.tolist()

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_non_contiguous_input(self, bits):
        half = 1 << (bits - 1)
        codes = np.random.default_rng(bits).integers(-half, half, size=(7, 6))
        for view in (codes.ravel()[1::5], codes.T[1], codes[::-3, 1]):
            assert not view.flags.c_contiguous
            flat = view.tolist()
            packed = pack_codes(view, bits)
            assert packed.data == oracle.pack_bits(flat, bits)
            assert unpack_codes(packed).tolist() == flat


class TestChunks:
    """The codec walks 8 * BLOCK codes at a time; every count across the
    first chunk edges must pack as one pass would, and unpack back."""

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_every_count_across_three_chunk_edges(self, monkeypatch, block, bits):
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        chunk = 8 * block
        rng = np.random.default_rng(bits * 10 + block)
        half = 1 << (bits - 1)
        for count in range(3 * chunk + 10):
            codes = rng.integers(-half, half, size=(count, 2))
            codes[:2, 1] = [-half, half - 1][:count]        # both domain ends
            column = codes[:, 1]                            # not contiguous
            expected = oracle.pack_bits(column.tolist(), bits)
            for given_codes in (column, codes.astype(np.int8)[:, 1]):
                packed = pack_codes(given_codes, bits)
                assert packed.data == expected, count
                out = unpack_codes(PackedCodes(bits, count, expected))
                assert out.dtype == np.int8
                assert out.tolist() == column.tolist(), count

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_every_span_unpacks_as_the_whole_stream(self, monkeypatch, block, bits):
        # A span may start and stop mid-word and cross chunk edges.
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        half = 1 << (bits - 1)
        codes = np.random.default_rng(bits).integers(-half, half, 3 * 8 * block + 5)
        packed = pack_codes(codes, bits)
        out = np.full(codes.size + 1, 99, np.int8)
        for start in range(codes.size + 1):
            for stop in range(start, codes.size + 1):
                assert unpack_codes(packed, start, stop).tolist() == codes[start:stop].tolist()
            span = unpack_codes(packed, start, out=out[:codes.size - start])
            assert span.base is out and span.tolist() == codes[start:].tolist()
        assert out[-1] == 99
        for start, stop in ((-1, 3), (2, 1), (0, codes.size + 1)):
            with pytest.raises(InvalidInput):
                unpack_codes(packed, start, stop)

    @pytest.mark.parametrize("block", [1, 3])
    def test_out_of_domain_code_in_a_later_chunk(self, monkeypatch, block):
        # A layer-wise group spans every chunk, so its code range is reduced
        # across them: a symmetric-restricted -8, which a 4-bit stream holds,
        # in the last one is refused when the stream is decoded.
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        t = gaussian_tensor((5 * 8 * block, 2, 1, 1), seed=block)
        q = quantize_tensor(t, LAYER_WISE, SYMMETRIC_RESTRICTED, 4)
        assert not q.passthrough
        dequantize_tensor(q)
        codes = unpacked(q)[0]
        assert codes.min() > -8
        codes[-1] = -8
        q.codes = pack_codes(codes, 4)
        with pytest.raises(CorruptCodes, match=r"^t: group 0: "):
            dequantize_tensor(q)


class TestSpans:
    """Spans packed in order from code 0 join into one stream, wherever the
    cuts fall: a span that starts mid-word fills the rest of that word."""

    @given(bits=st.integers(1, 8), block=st.integers(1, 3), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_spans_packed_in_order_join_into_the_whole_stream(self, bits, block, data):
        # bits 1 is a region bitmap (pack_bits): flags are codes + 1.
        count = data.draw(st.integers(0, 100), label="count")
        cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=6), label="cuts"))
        half = 1 << (bits - 1)
        codes = data.draw(st.lists(st.integers(-half, half - 1), min_size=count,
                                   max_size=count), label="codes")
        values = np.array(codes, np.int8)
        expected = oracle.pack_bits(codes, bits)
        out = np.full(-(-count // 8) * bits, 0xFF, np.uint8)
        buffers = tensor_store.Buffers()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_store, "BLOCK", block)
            for lo, hi in zip([0, *cuts], [*cuts, count]):
                if bits == 1:
                    pack_bits(out, lo, (values[lo:hi] + 1).view(np.uint8), buffers)
                else:
                    pack_into(out, lo, values[lo:hi], bits, buffers)
            assert out.tobytes() == expected + bytes(out.size - len(expected))
            start = data.draw(st.integers(0, count), label="start")
            stop = data.draw(st.integers(start, count), label="stop")
            if bits == 1:
                flags = unpack_bits(out, start, stop, np.empty(stop - start, np.uint8))
                got = flags.astype(np.int8) - 1
            else:
                got = unpack_codes(PackedCodes(bits, count, out[:len(expected)].tobytes()),
                                   start, stop)
        assert got.tolist() == codes[start:stop]


class TestRegionBitmaps:
    @pytest.mark.parametrize("block", [1, 3])
    def test_bits_pack_and_unpack_as_numpy_does_little_endian(self, monkeypatch, block):
        # A bitmap is a stream of unbiased 1-bit codes, packed from a whole
        # byte on and unpacked from any bit, through buffers reused by span.
        monkeypatch.setattr(tensor_store, "BLOCK", block)
        flags = (np.random.default_rng(block).random(3 * 8 * block + 13) < 0.3).astype(np.uint8)
        expected = np.packbits(flags, bitorder="little")
        buffers = tensor_store.Buffers()
        bitmap = np.full(expected.size, 0xFF, np.uint8)
        for start in range(0, flags.size, 8 * block):
            pack_bits(bitmap, start, flags[start:start + 8 * block], buffers)
        assert bitmap.tobytes() == expected.tobytes()
        out = np.full(flags.size + 1, 7, np.uint8)
        for start in range(flags.size + 1):
            for stop in range(start, flags.size + 1):
                span = unpack_bits(bitmap, start, stop, out[:stop - start], buffers)
                assert span.tolist() == flags[start:stop].tolist()
        assert out[-1] == 7


def _traced_extra(count, bits=4):
    """Peak bytes traced inside pack_into and unpack_codes beyond what each
    returns, for ``count`` int8 codes."""
    half = 1 << (bits - 1)
    codes = np.random.default_rng(count).integers(-half, half, count).astype(np.int8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        packed = pack_codes(codes, bits)
        pack_extra = tracemalloc.get_traced_memory()[1] - start - len(packed.data)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = unpack_codes(packed)
        unpack_extra = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, codes)
    return pack_extra, unpack_extra


def test_working_memory_is_a_few_chunks_whatever_the_code_count():
    chunk_bytes = 8 * tensor_store.BLOCK     # one byte per code of a chunk
    small, large = _traced_extra(1 << 20), _traced_extra(1 << 21)
    for extra_small, extra_large in zip(small, large):
        assert max(extra_small, extra_large) <= 3 * chunk_bytes
        assert extra_large <= extra_small + chunk_bytes / 16
    # a stream shorter than one chunk takes buffers of its own size
    assert max(_traced_extra(1000)) <= 3 * 1000 + 4096
