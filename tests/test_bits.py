"""Packed bit sequence tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clp.bits import BitSequence, bernoulli, concat_bits

bitstrings = st.text(alphabet="01", min_size=0, max_size=200)


def test_from_str_round_trip():
    s = BitSequence.from_str("0110101101000")
    assert s.length == 13
    assert s.to01() == "0110101101000"
    assert s[0] == 0 and s[1] == 1 and s[12] == 0
    assert s.popcount() == 6


def test_from_str_rejects_junk():
    with pytest.raises(ValueError):
        BitSequence.from_str("01x")


def test_constructor_validation():
    with pytest.raises(ValueError):
        BitSequence(4, 2)  # value wider than length
    with pytest.raises(ValueError):
        BitSequence(0, -1)
    with pytest.raises(ValueError):
        BitSequence(-1, 4)


def test_immutability():
    s = BitSequence.from_str("01")
    with pytest.raises(AttributeError):
        s.value = 3


def test_indexing_and_slicing():
    s = BitSequence.from_str("10110")
    assert list(s) == [1, 0, 1, 1, 0]
    assert s[-1] == 0 and s[-5] == 1
    assert s[1:4].to01() == "011"
    assert s[2:].to01() == "110"
    assert len(s[5:5]) == 0
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(ValueError):
        s[::2]


def test_window_clips_at_the_end():
    s = BitSequence.from_str("10110")
    assert s.window(0, 3) == 0b101  # bits 1,0,1 little-endian
    assert s.window(3, 10) == 0b01  # only two symbols remain
    assert s.window(4, 1) == 0


def test_equality_and_hash():
    a = BitSequence.from_str("0101")
    b = BitSequence.from_str("0101")
    c = BitSequence.from_str("01010")
    assert a == b and hash(a) == hash(b)
    assert a != c  # same value, longer
    assert a != "0101"


@given(bitstrings)
def test_str_round_trip_property(text):
    assert BitSequence.from_str(text).to01() == text


@given(st.binary(max_size=64))
def test_bytes_msb_round_trip(data):
    s = BitSequence.from_bytes_msb(data)
    assert s.length == 8 * len(data)
    assert s.to_bytes_msb() == data


def test_bytes_msb_order():
    assert BitSequence.from_bytes_msb(b"\x80").to01() == "10000000"
    assert BitSequence.from_bytes_msb(b"\x01").to01() == "00000001"
    assert BitSequence.from_bytes_msb(b"\xa5", nbits=4).to01() == "1010"
    with pytest.raises(ValueError):
        BitSequence.from_bytes_msb(b"\x00", nbits=9)
    with pytest.raises(ValueError):
        BitSequence.from_bytes_msb(b"\x00", nbits=-1)


@given(st.lists(bitstrings, max_size=12))
def test_concat_matches_string_concat(parts):
    seqs = [BitSequence.from_str(t) for t in parts]
    joined = concat_bits([(s.value, s.length) for s in seqs])
    assert joined.to01() == "".join(parts)


def test_concat_empty():
    assert concat_bits([]) == BitSequence(0, 0)


def test_from_bits():
    assert BitSequence.from_bits([1, 0, 1]).to01() == "101"
    assert BitSequence.from_bits([]) == BitSequence.zeros(0)


def test_zeros():
    z = BitSequence.zeros(7)
    assert z.to01() == "0000000"
    assert z.popcount() == 0


class TestBernoulli:
    def test_deterministic_for_fixed_generator(self):
        a = bernoulli(np.random.Generator(np.random.Philox(9)), 1000, 0.3)
        b = bernoulli(np.random.Generator(np.random.Philox(9)), 1000, 0.3)
        assert a == b

    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert bernoulli(rng, 100, 0.0).popcount() == 0
        assert bernoulli(rng, 100, 1.0).popcount() == 100
        assert bernoulli(rng, 0, 0.5).length == 0

    def test_mean_concentrates(self):
        rng = np.random.default_rng(1)
        s = bernoulli(rng, 200_000, 0.3)
        assert abs(s.popcount() / s.length - 0.3) < 0.01

    @settings(max_examples=25)
    @given(st.integers(0, 500), st.floats(0.0, 1.0))
    def test_length_always_matches(self, n, p):
        s = bernoulli(np.random.default_rng(4), n, p)
        assert s.length == n
        assert 0 <= s.popcount() <= n
