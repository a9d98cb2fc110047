import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convquant import PackedCodes, pack_codes, unpack_codes
from convquant.errors import CodeOutOfDomain, InvalidInput, TruncatedData

import scalar_oracle as oracle


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
        with pytest.raises(CodeOutOfDomain):
            pack_codes([8], 4)
        with pytest.raises(CodeOutOfDomain):
            pack_codes([-9], 4)

    def test_bits_out_of_range(self):
        with pytest.raises(InvalidInput):
            pack_codes([0], 1)
        with pytest.raises(InvalidInput):
            pack_codes([0], 9)

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
