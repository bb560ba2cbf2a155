"""Packed bit sequence tests."""

import pickle

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


def shift_and_mask(s: BitSequence, start: int, width: int) -> int:
    """The definition window() must agree with."""
    width = min(width, s.length - start)
    return (s.value >> start) & ((1 << width) - 1)


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 64, 1000])
def test_window_matches_shift_and_mask(length):
    rng = np.random.default_rng(length)
    s = bernoulli(rng, length, 0.5)
    for start in range(length + 1):
        for width in (0, 1, 3, 8, 13, 64, length - start, length - start + 5):
            assert s.window(start, width) == shift_and_mask(s, start, width), (start, width)


def test_window_alternates_between_sequences():
    rng = np.random.default_rng(5)
    a, b = bernoulli(rng, 300, 0.5), bernoulli(rng, 517, 0.3)
    for start in range(0, 300, 7):
        for s in (a, b, a):
            assert s.window(start, 40) == shift_and_mask(s, start, 40)


def test_window_on_sequences_sharing_one_value():
    value = (1 << 200) | 0b1011
    long = BitSequence(value, 900)
    short = BitSequence(value, 201)
    assert long.value is short.value
    for first, second in ((short, long), (long, short)):
        first.window(0, 1)  # `first` keeps a byte view of its own length
        for start in range(0, second.length + 1, 3):
            assert second.window(start, 70) == shift_and_mask(second, start, 70)


def counting_int_type(copies: list) -> type:
    """An int subclass whose to_bytes appends the int to ``copies``."""
    class CountingInt(int):
        def to_bytes(self, *args, **kwargs):
            copies.append(self)
            return super().to_bytes(*args, **kwargs)
    return CountingInt


def test_sequences_windowed_in_turn_copy_their_bytes_once_each():
    # each sequence keeps its own byte view, so two long sequences
    # windowed in turn copy each value once, not once per window
    copies = []
    counting_int = counting_int_type(copies)
    rng = np.random.default_rng(3)
    seqs = [bernoulli(rng, 1 << 16, 0.5) for _ in range(2)]
    counted = [BitSequence(counting_int(s.value), s.length) for s in seqs]
    for start in range(0, 1 << 16, 661):  # 100 starts
        for s, c in zip(seqs, counted):
            assert c.window(start, 40) == shift_and_mask(s, start, 40)
    assert [id(v) for v in copies] == [id(c.value) for c in counted]


def test_windowed_sequence_pickles_without_its_byte_view():
    s = bernoulli(np.random.default_rng(7), 1000, 0.5)
    s.window(0, 1)  # make the byte view
    data = pickle.dumps(s)
    assert data == pickle.dumps(BitSequence(s.value, s.length))
    t = pickle.loads(data)
    assert t == s and hash(t) == hash(s)
    for start in range(0, t.length + 1, 13):
        assert t.window(start, 70) == shift_and_mask(s, start, 70)
    for seq in (s, t):
        with pytest.raises(AttributeError):
            seq._bytes = b""


@pytest.mark.parametrize("lengths", [range(71), [2**16 + 3]], ids=["0-70", "2^16+3"])
def test_conversions_agree_with_per_bit_windows(lengths):
    # iteration and the string conversions read y through
    # byte or digit copies; each must equal a walk of one-bit windows
    rng = np.random.default_rng(11)
    for length in lengths:
        s = bernoulli(rng, length, 0.5)
        bits = [s.window(i, 1) for i in range(length)]
        text = "".join(map(str, bits))
        assert list(s) == bits
        assert s.to01() == text
        assert BitSequence.from_str(text) == s


def test_window_rejects_starts_outside_the_sequence():
    s = BitSequence.from_str("10110")
    with pytest.raises(ValueError):
        s.window(-1, 3)
    with pytest.raises(ValueError):
        s.window(6, 1)
    assert s.window(5, 3) == 0  # the end itself is an empty window


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
