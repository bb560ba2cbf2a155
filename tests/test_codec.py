"""Wire format and coder tests: bit I/O, LZ78 back end, headers, both coders."""

import dataclasses
import gc
import inspect
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from level_caps import capped_levels
from lz78_oracle import lz78_phrase_lengths
from test_bits import counting_int_type
from test_fuzz import _cli_decode
from test_golden import D_VALUES

from clp import codec
from clp.bits import BitSequence, bernoulli
from clp.cli import EXIT_OK
from clp.codec import (
    FORMAT_VERSION,
    MAGIC,
    VARIANT_IDEALIZED,
    VARIANT_PRACTICAL,
    BitReader,
    BitWriter,
    EncodedStream,
    Header,
    coding_rate,
    decode,
    encode_idealized,
    encode_practical,
    lz78_decode,
    lz78_encode,
    select_codelet,
)
from clp.dictionary import (
    CodebookTree,
    LevelConfig,
    PracticalNode,
    default_step,
    init_practical,
    lex_key,
)
from clp.errors import BadMagic, CorruptStream, UnsupportedVersion
from clp.matching import MatchRelation, hamming_distance
from clp.rd_math import lower_mutual_info_float


# -- bit-level I/O -------------------------------------------------------


class _RefWriter:
    """BitWriter's contract one bit at a time: a list of 0s and 1s."""

    def __init__(self):
        self.bits = []

    def write(self, value, nbits):
        self.bits.extend((value >> (nbits - 1 - i)) & 1 for i in range(nbits))

    def write_trunc(self, value, bound):
        if bound <= 1:
            return
        short = bound.bit_length() - 1
        spare = (1 << (short + 1)) - bound
        if value < spare:
            self.write(value, short)
        else:
            self.write(value + spare, short + 1)

    def getvalue(self):
        padded = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(int("".join(map(str, padded[i:i + 8])), 2)
                     for i in range(0, len(padded), 8))


class _RefReader:
    """BitReader's contract one bit at a time over a list of 0s and 1s."""

    def __init__(self, data):
        self.bits = [(byte >> (7 - j)) & 1 for byte in data for j in range(8)]
        self.pos = 0

    def read(self, nbits):
        if self.pos + nbits > len(self.bits):
            raise CorruptStream("payload ended mid-record")
        value = 0
        for bit in self.bits[self.pos:self.pos + nbits]:
            value = (value << 1) | bit
        self.pos += nbits
        return value

    def read_trunc(self, bound):
        if bound <= 1:
            return 0
        short = bound.bit_length() - 1
        spare = (1 << (short + 1)) - bound
        head = self.read(short)
        if head < spare:
            return head
        return ((head << 1) | self.read(1)) - spare


def _assert_reads_match_reference(data, ops):
    """BitReader and _RefReader agree on each call's value and the pos
    after it, and on the first call that runs past the end; nothing is
    read after that call."""
    r, ref = BitReader(data), _RefReader(data)
    for op, arg in ops:
        try:
            want = getattr(ref, op)(arg)
        except CorruptStream:
            with pytest.raises(CorruptStream):
                getattr(r, op)(arg)
            return
        assert getattr(r, op)(arg) == want, (op, arg)
        assert r.pos == ref.pos


@st.composite
def _reads(draw):
    """One ("read", width) or ("read_trunc", bound) call.

    Most widths are field-sized, and some reach past a 16-byte refill
    block; bounds reach 2^20, and powers of two and their neighbours,
    where the short code is longest or shortest, come up often.
    """
    if draw(st.booleans()):
        return "read", draw(st.one_of(st.integers(min_value=0, max_value=24),
                                      st.integers(min_value=100, max_value=300)))
    k = draw(st.integers(min_value=0, max_value=20))
    bound = draw(st.one_of(st.integers(min_value=1, max_value=1 << 20),
                           st.sampled_from(((1 << k) - 1, 1 << k, (1 << k) + 1))))
    return "read_trunc", max(bound, 1)


@st.composite
def _writes(draw):
    """One ("write", value, width) or ("write_trunc", value, bound) call."""
    if draw(st.booleans()):
        nbits = draw(st.integers(min_value=0, max_value=200))
        return "write", draw(st.integers(min_value=0, max_value=(1 << nbits) - 1)), nbits
    bound = draw(st.integers(min_value=1, max_value=1 << 70))
    return "write_trunc", draw(st.integers(min_value=0, max_value=bound - 1)), bound


class TestBitIO:
    def test_single_byte_msb_first(self):
        w = BitWriter()
        w.write(0b10110, 5)
        assert w.getvalue() == bytes([0b10110000])
        assert w.bit_length == 5

    def test_write_rejects_oversized_value(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)
        with pytest.raises(ValueError):
            w.write(-1, 3)

    @given(st.lists(st.integers(min_value=0, max_value=2**20 - 1), max_size=40))
    def test_field_round_trip(self, values):
        w = BitWriter()
        widths = [max(v.bit_length(), 1) + 3 for v in values]
        for v, nb in zip(values, widths):
            w.write(v, nb)
        r = BitReader(w.getvalue())
        assert [r.read(nb) for nb in widths] == values

    @given(st.lists(_writes(), max_size=30))
    def test_writer_matches_bit_by_bit_reference(self, ops):
        w, ref = BitWriter(), _RefWriter()
        for op, value, arg in ops:
            getattr(w, op)(value, arg)
            getattr(ref, op)(value, arg)
        assert w.bit_length == len(ref.bits)
        assert w.getvalue() == ref.getvalue()

    def test_read_past_end_is_corrupt(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(CorruptStream):
            r.read(1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(st.binary(max_size=16),
                     st.integers(0, 160).flatmap(lambda k: st.binary(min_size=k, max_size=k))),
           st.lists(_reads(), max_size=60))
    def test_reader_matches_bit_by_bit_reference(self, data, ops):
        _assert_reads_match_reference(data, ops)

    def test_last_call_ends_at_or_just_past_the_end(self):
        # after a skip of every length, a call that ends one bit short
        # of the data, on it, or one or two bits past it
        data = bytes(range(101, 121))  # 160 bits: one 16-byte block and more
        total = 8 * len(data)
        for skip in range(total + 1):
            left = total - skip
            for end in (left - 1, left, left + 1, left + 2):
                if end >= 0:
                    _assert_reads_match_reference(data, [("read", skip), ("read", end)])
                    for bound in ((1 << end) - 1, 1 << end, (1 << end) + 1):
                        if 1 <= bound <= 1 << 20:
                            _assert_reads_match_reference(
                                data, [("read", skip), ("read_trunc", bound)])

    def test_trunc_exhaustive_inverse(self):
        for bound in range(1, 65):
            w = BitWriter()
            for v in range(bound):
                w.write_trunc(v, bound)
            r = BitReader(w.getvalue())
            assert [r.read_trunc(bound) for _ in range(bound)] == list(range(bound))

    def test_trunc_code_lengths_are_kraft_tight(self):
        # short codes get floor(log2 bound) bits, the rest one more; the
        # lengths must exhaust the code space exactly for every bound.
        for bound in range(1, 65):
            lengths = []
            for v in range(bound):
                w = BitWriter()
                w.write_trunc(v, bound)
                lengths.append(w.bit_length)
            assert sum(Fraction(1, 2**nb) for nb in lengths) == 1

    def test_trunc_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitWriter().write_trunc(5, 5)

    def test_trunc_reads_any_bits_below_bound_or_corrupt(self):
        # the idealized decoder checks no slot against the admitted
        # count: whatever bits a stream holds, read_trunc(bound) must
        # give a value in [0, bound) or raise CorruptStream.  Every
        # pattern of bound.bit_length() bits is read whole, with more
        # bits after it, and cut after each of its bits, the buffer then
        # ending mid-code (patterns that agree up to a cut give the same
        # buffer, so each such prefix is read once)
        for bound in range(1, 301):
            nbits = bound.bit_length()
            spare = (1 << nbits) - bound  # codes below spare are one bit short
            for cut in range(nbits + 1):
                pad = -cut % 8  # filler read first, so the data ends at the cut
                for prefix in range(1 << cut):
                    data = (((1 << pad) - 1) << cut | prefix).to_bytes((pad + cut) // 8, "big")
                    head = prefix >> (cut - nbits + 1) if cut >= nbits - 1 else None
                    if head is not None and head < spare:
                        want = head
                    elif cut == nbits:
                        want = prefix - spare
                    else:
                        want = None  # the code needs bits past the end
                    for tail in ((b"", b"\x5a") if cut == nbits else (b"",)):
                        r = BitReader(data + tail)
                        r.read(pad)
                        try:
                            got = r.read_trunc(bound)
                        except CorruptStream:
                            got = None
                        assert got == want, (bound, cut, prefix, tail)
                        assert got is None or 0 <= got < bound


# -- LZ78 payload --------------------------------------------------------


def lz78_reference_records(y: BitSequence):
    """Incremental parse bit by bit: (index, new bit) records, bit None
    for a partial final record."""
    phrases = {}
    records = []
    cur = 0
    for i in range(y.length):
        bit = (y.value >> i) & 1
        if (cur, bit) in phrases:
            cur = phrases[(cur, bit)]
            continue
        records.append((cur, bit))
        phrases[(cur, bit)] = len(records)
        cur = 0
    if cur:
        records.append((cur, None))
    return records


def lz78_reference_bits(records) -> str:
    """The payload of the records as a 0/1 string, flag bit first."""
    out = ["1" if records and records[-1][1] is None else "0"]
    for t, (idx, bit) in enumerate(records, start=1):
        width = (t - 1).bit_length()
        out.append(format(idx, f"0{width}b") if width else "")
        out.append("" if bit is None else str(bit))
    return "".join(out)


class TestLz78:
    def test_matches_per_bit_reference_at_every_tail_length(self):
        rng = np.random.default_rng(78)
        tails = set()
        for n in range(71):
            inputs = [bernoulli(rng, n, 0.5), bernoulli(rng, n, 0.1), BitSequence.zeros(n)]
            for y in inputs:
                want = lz78_reference_records(y)
                payload, nbits = lz78_encode(y)
                if n == 0:
                    assert (payload, nbits) == (b"", 0)
                    continue
                text = lz78_reference_bits(want)
                assert nbits == len(text)
                padded = text + "0" * (-len(text) % 8)
                assert payload == int(padded, 2).to_bytes(len(padded) // 8, "big")
                # read the records back out of the encoder's own payload
                r = BitReader(payload)
                partial = r.read(1) == 1
                got = []
                for t in range(1, len(want) + 1):
                    idx = r.read((t - 1).bit_length())
                    last_partial = partial and t == len(want)
                    got.append((idx, None if last_partial else r.read(1)))
                assert got == want, (n, y.to01())
                tails.add((n % 8, partial))
        assert tails == {(k, p) for k in range(8) for p in (False, True)}

    def test_encode_is_linear_in_n(self):
        # the linear parse takes ~0.5 s of process time on a 2-CPU Xeon; one
        # that shifts the whole input once per bit took ~30 s there
        y = bernoulli(np.random.default_rng(3), 1 << 20, 0.5)
        start = time.process_time()
        lz78_encode(y)
        assert time.process_time() - start < 5.0

    def test_decode_is_linear_in_n(self):
        # the buffered reader decodes this in ~0.2 s of process time on a
        # 2-CPU Xeon; one whose buffer held the whole payload took ~5.5 s
        y = bernoulli(np.random.default_rng(3), 1 << 20, 0.5)
        payload, _ = lz78_encode(y)
        start = time.process_time()
        got = lz78_decode(payload, y.length)
        assert time.process_time() - start < 2.0
        assert got == y

    def test_reference_vector(self):
        # y = 0101 parses as (0)(1)(01): flag 0, then 0 | 0,1 | 01,1
        assert lz78_encode(BitSequence.from_str("0101")) == (b"\x16", 7)

    def test_partial_tail_vector(self):
        # y = 00 parses as (0) plus the partial phrase "0" (index 1, width 1)
        payload, nbits = lz78_encode(BitSequence.from_str("00"))
        assert (payload, nbits) == (b"\xa0", 3)
        assert lz78_decode(payload, 2) == BitSequence.from_str("00")

    def test_empty(self):
        assert lz78_encode(BitSequence.zeros(0)) == (b"", 0)
        assert lz78_decode(b"", 0) == BitSequence.zeros(0)

    @given(st.text(alphabet="01", max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, s):
        y = BitSequence.from_str(s)
        payload, nbits = lz78_encode(y)
        assert nbits <= 8 * len(payload) < nbits + 8
        assert lz78_decode(payload, len(y)) == y

    def test_truncated_payload_is_corrupt(self):
        rng = np.random.default_rng(5)
        y = bernoulli(rng, 300, 0.5)
        payload, _ = lz78_encode(y)
        with pytest.raises(CorruptStream):
            lz78_decode(payload[: len(payload) // 2], len(y))


# -- stream header -------------------------------------------------------


class TestHeader:
    def test_wire_size(self):
        h = Header.build(n=1000, dist=Fraction(1, 4), src=Fraction(1, 2))
        assert Header.SIZE == 33
        assert len(h.pack()) == 33

    def test_round_trip(self):
        h = Header.build(n=12345, dist=Fraction(11, 100), src=Fraction(3, 10),
                         ell=4, variant=VARIANT_IDEALIZED,
                         relation=MatchRelation.PREFIX_WISE)
        back = Header.unpack(h.pack())
        assert back == h
        assert back.dist.d == Fraction(11, 100)
        assert back.src.p == Fraction(3, 10)

    def test_unknown_source_round_trip(self):
        h = Header.build(n=5, dist=Fraction(0))
        assert Header.unpack(h.pack()).src is None

    def test_bad_magic(self):
        raw = bytearray(Header.build(n=1, dist=Fraction(1, 2)).pack())
        raw[0] ^= 0xFF
        with pytest.raises(BadMagic):
            Header.unpack(bytes(raw))

    def test_unsupported_version(self):
        raw = bytearray(Header.build(n=1, dist=Fraction(1, 2)).pack())
        raw[4] = FORMAT_VERSION + 1
        with pytest.raises(UnsupportedVersion):
            Header.unpack(bytes(raw))

    def test_short_buffer(self):
        with pytest.raises(CorruptStream):
            Header.unpack(MAGIC + b"\x01\x00")

    def test_corrupt_field_values(self):
        raw = bytearray(Header.build(n=9, dist=Fraction(1, 4)).pack())
        raw[-2] = 7  # variant byte
        with pytest.raises(CorruptStream):
            Header.unpack(bytes(raw))

    def test_oversized_level_step_is_corrupt(self):
        # rejected from the header alone, before any 2^ell table exists
        raw = bytearray(Header.build(n=9, dist=Fraction(1, 4), src=Fraction(1, 2), ell=2,
                                     variant=VARIANT_IDEALIZED,
                                     relation=MatchRelation.PREFIX_WISE).pack())
        raw[29:31] = b"\xff\xff"
        with pytest.raises(CorruptStream):
            Header.unpack(bytes(raw))

    def test_idealized_stream_with_full_codelet_relation_is_corrupt(self):
        res = encode_idealized(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = bytearray(res.stream.to_bytes())
        raw[32] = int(MatchRelation.FULL_CODELET)
        with pytest.raises(CorruptStream):
            decode(bytes(raw))

    def test_practical_stream_with_level_step_is_corrupt(self):
        res = encode_practical(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = bytearray(res.stream.to_bytes())
        raw[29:31] = (3).to_bytes(2, "big")
        with pytest.raises(CorruptStream):
            decode(bytes(raw))

    @pytest.mark.parametrize("encode", [encode_practical, encode_idealized],
                             ids=["practical", "idealized"])
    def test_unknown_source_with_nonzero_numerator_is_corrupt(self, encode):
        res = encode(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = bytearray(res.stream.to_bytes())
        raw[21:25] = (12345).to_bytes(4, "big")
        raw[25:29] = b"\xff" * 4  # the "unknown" denominator
        with pytest.raises(CorruptStream):
            decode(bytes(raw))

    def test_practical_stream_without_source_says_unknown(self):
        # the practical coder never reads p, so it writes none it was not given
        res = encode_practical(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = res.stream.to_bytes()
        assert raw[21:25] == bytes(4) and raw[25:29] == b"\xff" * 4
        assert decode(raw) == res.y

    def test_idealized_stream_with_unknown_source_is_corrupt(self):
        # both sides size every level cap from the header's p, so an
        # idealized header must carry one
        res = encode_idealized(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = bytearray(res.stream.to_bytes())
        assert raw[25:29] != b"\xff" * 4
        raw[21:25] = bytes(4)
        raw[25:29] = b"\xff" * 4
        with pytest.raises(CorruptStream):
            decode(bytes(raw))
        with pytest.raises(ValueError):
            Header.build(n=13, dist=Fraction(1, 4), ell=2, variant=VARIANT_IDEALIZED,
                         relation=MatchRelation.PREFIX_WISE)

    def test_build_validates_fraction_range(self):
        with pytest.raises(ValueError):
            Header.build(n=4, dist=Fraction(3, 2))


# -- greedy coder --------------------------------------------------------


class TestPracticalCoder:
    def test_half_distortion_trace(self):
        # the D = 1/2 walk-through on x = 0110101101000: first phrase "0",
        # then the two-leaf tie at window "11" resolves to "01"
        x = BitSequence.from_str("0110101101000")
        res = encode_practical(x, Fraction(1, 2))
        assert res.events[0].y_bits == BitSequence.from_str("0")
        assert res.events[1].y_bits == BitSequence.from_str("01")
        assert res.events[2].pos == 3  # remainder 0101101000 starts here

    def test_half_distortion_dictionary_states(self):
        tree = init_practical(Fraction(1, 2))
        first = tree.find_matches(BitSequence.from_str("0"), MatchRelation.FULL_CODELET)
        assert sorted(m.sequence().to01() for m in first) == ["0"]
        chosen = select_codelet(first, BitSequence.from_str("0"), 0, 0,
                                Fraction(1, 2))
        tree.extend_codelet(chosen)
        assert sorted(tree.leaf_strings()) == ["00", "01", "1"]

        second = tree.find_matches(BitSequence.from_str("11"), MatchRelation.FULL_CODELET)
        assert sorted(m.sequence().to01() for m in second) == ["01", "1"]
        chosen = select_codelet(second, BitSequence.from_str("11"), 0, 1,
                                Fraction(1, 2))
        assert chosen.sequence().to01() == "01"
        tree.extend_codelet(chosen)
        assert sorted(tree.leaf_strings()) == ["00", "010", "011", "1"]

    def test_lossless_mode_is_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 600))
            x = bernoulli(rng, n, float(rng.uniform(0.05, 0.95)))
            res = encode_practical(x, Fraction(0))
            assert res.y == x
            assert decode(res.stream) == x

    def test_lossless_boundaries_match_incremental_parse(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(1, 500))
            x = bernoulli(rng, n, float(rng.uniform(0.1, 0.9)))
            res = encode_practical(x, Fraction(0))
            assert [len(e.y_bits) for e in res.events] == lz78_phrase_lengths(x.to01())

    def test_distortion_budget_holds(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 800))
            d = Fraction(int(rng.integers(0, 50)), 100)
            x = bernoulli(rng, n, float(rng.uniform(0.1, 0.9)))
            res = encode_practical(x, d)
            assert hamming_distance(x, res.y) <= d * n

    def test_round_trip_and_determinism(self):
        rng = np.random.default_rng(24)
        x = bernoulli(rng, 700, 0.4)
        a = encode_practical(x, Fraction(1, 5), src=Fraction(2, 5))
        b = encode_practical(x, Fraction(1, 5), src=Fraction(2, 5))
        assert a.stream.to_bytes() == b.stream.to_bytes()
        assert decode(a.stream) == a.y
        assert a.stream.header.variant == VARIANT_PRACTICAL
        assert a.stream.header.src.p == Fraction(2, 5)

    def test_empty_input(self):
        res = encode_practical(BitSequence.zeros(0), Fraction(1, 4))
        assert len(res.y) == 0
        assert decode(res.stream) == res.y
        assert coding_rate(res.stream) == 0.0

    @pytest.mark.parametrize("relation", list(MatchRelation), ids=lambda r: r.name)
    def test_stats_agree_with_events(self, relation):
        rng = np.random.default_rng(25)
        escapes = 0
        for _ in range(12):
            n = int(rng.integers(0, 900))
            d = Fraction(int(rng.integers(0, 30)), 100)
            x = bernoulli(rng, n, float(rng.uniform(0.1, 0.9)))
            res = encode_practical(x, d, relation=relation)
            events = list(res.events)
            stats = res.stats
            assert stats.phrases == len(events)
            assert stats.escapes == sum(e.kind == "escape" for e in events)
            assert stats.distortion == sum(e.distortion for e in events)
            assert stats.distortion == hamming_distance(x, res.y)
            # idealized-only counts stay zero, and the trie is not kept
            assert (stats.give_ups, stats.promotions, stats.max_frontier) == (0, 0, {})
            assert stats.tree is None
            escapes += stats.escapes
        assert escapes > 0


# -- codelet choice ------------------------------------------------------


def reference_select(matches, window, parsed_ones, parsed_len, dist):
    """select_codelet's rule spelled out in exact arithmetic.

    A candidate of depth L scores the least mutual information between
    the type p of (parsed prefix + first L window bits) and its own type
    q: infinity when |p - q| > D, 0.0 when p + q - 2pq <= D.  Scanning in
    order, the least score wins; scores within 1e-12 tie, and a tie goes
    to the longer codelet, then to the smaller lex_key.
    """
    d = Fraction(dist)
    best = best_score = None
    for node in matches:
        L = node.depth
        p = Fraction(parsed_ones + (window.value & ((1 << L) - 1)).bit_count(), parsed_len + L)
        q = Fraction(node.ones, L)
        if abs(p - q) > d:
            score = float("inf")
        elif p + q - 2 * p * q <= d:
            score = 0.0
        else:
            score = lower_mutual_info_float(float(q), float(p), float(d))
        if best is None:
            best, best_score = node, score
        elif score == best_score or abs(score - best_score) <= 1e-12:
            if L > best.depth or (L == best.depth
                                  and lex_key(node.bits, L) < lex_key(best.bits, L)):
                best, best_score = node, min(score, best_score)
        elif score < best_score:
            best, best_score = node, score
    return best


def _candidates(*spelled):
    return [PracticalNode(BitSequence.from_str(s).value, len(s), 0) for s in spelled]


@st.composite
def selections(draw):
    """(candidates, window, parsed ones, parsed length, D) for select_codelet."""
    wlen = draw(st.integers(1, 10))
    window = BitSequence(draw(st.integers(0, (1 << wlen) - 1)), wlen)
    codelet = st.integers(1, wlen).flatmap(
        lambda L: st.tuples(st.integers(0, (1 << L) - 1), st.just(L)))
    pairs = draw(st.lists(codelet, min_size=1, max_size=8))
    if draw(st.booleans()):  # a second node with the same bits
        pairs.append(draw(st.sampled_from(pairs)))
    parsed_len = draw(st.integers(0, 40))
    parsed_ones = draw(st.integers(0, parsed_len))
    dist = draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(11, 100),
                                 Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    return ([PracticalNode(bits, L, 0) for bits, L in pairs], window, parsed_ones,
            parsed_len, dist)


class TestSelectCodelet:
    @settings(max_examples=300)
    @given(selections())
    @example((_candidates("1"), BitSequence.from_str("1"), 0, 0, Fraction(0)))  # lone
    # equal length, both score 0.0: the lex-smaller "01" comes second
    @example((_candidates("10", "01"), BitSequence.from_str("11"), 0, 0, Fraction(1, 2)))
    # "0" is infeasible (inf), "1" scores 0.0
    @example((_candidates("0", "1"), BitSequence.from_str("1"), 0, 0, Fraction(0)))
    # all infinite: inf ties inf, so the longer one wins
    @example((_candidates("0", "00"), BitSequence.from_str("11"), 0, 0, Fraction(0)))
    # equal bits: the earlier node stays
    @example((_candidates("01", "01", "1"), BitSequence.from_str("01"), 3, 7, Fraction(1, 4)))
    def test_agrees_with_reference_rule(self, case):
        matches, window, parsed_ones, parsed_len, dist = case
        want = reference_select(matches, window, parsed_ones, parsed_len, dist)
        assert select_codelet(matches, window, parsed_ones, parsed_len, dist) is want

    @pytest.fixture
    def scored(self, monkeypatch):
        calls = []
        real = codec.lower_mutual_info_float

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(codec, "lower_mutual_info_float", counting)
        return calls

    def test_lone_candidate_is_not_scored(self, scored):
        (node,) = _candidates("0101")
        assert select_codelet([node], BitSequence.from_str("10100101"), 5, 10,
                              Fraction(1, 10)) is node
        assert scored == []

    def test_each_type_is_scored_once(self, scored):
        # every candidate has half ones, as has the parsed prefix plus
        # the window's first 4 or 8 bits: feasible, nonzero at D = 1/10
        matches = _candidates("11110000", "1100", "00001111", "1010", "10101010", "0011")
        window = BitSequence.from_str("10100101")
        got = select_codelet(matches, window, 5, 10, Fraction(1, 10))
        assert len(scored) == 2  # (4 ones, depth 8) and (2 ones, depth 4)
        assert got is reference_select(matches, window, 5, 10, Fraction(1, 10))


class TestIdealizedCoder:
    def cfg(self, ell=2):
        return LevelConfig(ell=ell)

    def test_round_trip_various_steps(self):
        rng = np.random.default_rng(31)
        for ell in (2, 3, 4):
            for _ in range(8):
                n = int(rng.integers(ell, 900))
                x = bernoulli(rng, n, 0.5)
                res = encode_idealized(x, Fraction(1, 4), src=Fraction(1, 2),
                                       cfg=self.cfg(ell))
                assert decode(res.stream) == res.y
                assert res.stream.header.ell == ell

    def test_round_trip_unknown_source(self):
        rng = np.random.default_rng(32)
        x = bernoulli(rng, 500, 0.3)
        res = encode_idealized(x, Fraction(1, 10))
        assert res.stream.header.src.p == Fraction(x.to01().count("1"), 500)
        assert decode(res.stream) == res.y

    def test_decode_is_linear_in_n(self):
        # ~0.3 s of process time on a 2-CPU Xeon; a reader whose buffer
        # held the whole payload took ~1.9 s
        x = bernoulli(np.random.default_rng(3), 1 << 20, 0.5)
        res = encode_idealized(x, Fraction(11, 100), Fraction(1, 2))
        start = time.process_time()
        got = decode(res.stream)
        assert time.process_time() - start < 1.5
        assert got == res.y

    def test_distortion_budget_holds(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 700))
            d = Fraction(int(rng.integers(0, 50)), 100)
            x = bernoulli(rng, n, float(rng.uniform(0.2, 0.8)))
            res = encode_idealized(x, d, cfg=self.cfg())
            assert hamming_distance(x, res.y) <= d * n
            assert res.stats.distortion == hamming_distance(x, res.y)

    def test_stats_agree_with_events(self):
        # the counters are taken from the finished parse, not per phrase:
        # check them against the events with the source known and
        # unknown, under computed and capped level sizes
        rng = np.random.default_rng(34)
        x = bernoulli(rng, 640, 0.5)
        for src in (Fraction(1, 2), None):
            for caps in ({}, {1: 3, 2: 5, 3: 7}):
                with capped_levels(caps):
                    res = encode_idealized(x, Fraction(1, 4), src=src, cfg=LevelConfig(ell=2))
                events = list(res.events)
                assert res.stats.phrases == len(events)
                assert res.stats.escapes == sum(e.kind == "escape" for e in events)
                assert res.stats.distortion == sum(e.distortion for e in events)
                assert res.stats.distortion == hamming_distance(x, res.y)
                assert res.stats.give_ups == 0
                assert sum(len(e.y_bits) for e in events) == 640

    def test_unknown_source_encodes_as_x_bias(self):
        # with p unknown the encoder writes x's bias, ones / n (0 at
        # n = 0), and sizes every cap from it: the stream is byte for
        # byte that of the same bias passed as a known p
        for n in (0, 1, 37, 1000):
            random = bernoulli(np.random.Generator(np.random.Philox(n)), n, 0.3)
            for x in (random, BitSequence(0, n), BitSequence((1 << n) - 1, n)):
                ones = x.to01().count("1")
                for d in D_VALUES:
                    res = encode_idealized(x, d)
                    known = encode_idealized(x, d, src=Fraction(ones, n) if n else Fraction(0))
                    case = (n, ones, d)
                    assert res.stream.to_bytes() == known.stream.to_bytes(), case
                    assert decode(res.stream.to_bytes()) == res.y, case

    def test_source_bias_fits_the_header(self):
        # past a denominator of 0xFFFFFFFE the bias is the nearest
        # fraction the header's u32 fields hold; no 2^40-bit x is built
        big = 1 << 40
        assert codec._source_bias(0, 0) == 0
        assert codec._source_bias(big // 2, big) == Fraction(1, 2)
        assert codec._source_bias(big, big) == 1
        assert codec._source_bias(1, 0xFFFFFFFE) == Fraction(1, 0xFFFFFFFE)
        assert codec._source_bias(1, 0xFFFFFFFF) == Fraction(1, 0xFFFFFFFE)
        ones = big // 3
        p = codec._source_bias(ones, big)
        assert p.denominator <= 0xFFFFFFFE
        assert abs(p - Fraction(ones, big)) < Fraction(1, 0xFFFFFFFE)
        h = Header.build(n=big, dist=Fraction(11, 100), src=p, ell=default_step(big),
                         variant=VARIANT_IDEALIZED, relation=MatchRelation.PREFIX_WISE)
        assert Header.unpack(h.pack()).src.p == p

    def test_flooded_frontier_gives_up_and_escapes(self):
        # D = 1 at ell = 1: both level-1 codelets match every window, and
        # a frontier of 2 outgrows (1 * 1)^4 / delta = 1
        rng = np.random.default_rng(38)
        x = bernoulli(rng, 200, 0.5)
        cfg = LevelConfig(ell=1, delta=1.0)
        with capped_levels({1: 2}):
            res = encode_idealized(x, 1, cfg=cfg)
            assert decode(res.stream) == res.y
        assert res.stats.give_ups > 0
        # a frontier over the bound implies a give-up, so the frontier
        # check may flag runs by give-ups alone
        over = [lvl for lvl, size in res.stats.max_frontier.items()
                if size > (lvl * cfg.ell) ** 4 / cfg.delta]
        assert over
        assert res.stats.escapes >= res.stats.give_ups
        assert hamming_distance(x, res.y) <= 1 * len(x)

    def test_sub_step_tail_is_escaped(self):
        rng = np.random.default_rng(35)
        x = bernoulli(rng, 45, 0.5)
        res = encode_idealized(x, Fraction(1, 4), src=Fraction(1, 2),
                               cfg=self.cfg())
        last = res.events[-1]
        assert last.kind == "escape"
        assert len(last.y_bits) == 45 % 2 == 1
        assert last.y_bits == x[44:]  # raw tail bits pass through untouched

    def test_determinism(self):
        rng = np.random.default_rng(36)
        x = bernoulli(rng, 512, 0.5)
        a = encode_idealized(x, Fraction(11, 100), src=Fraction(1, 2),
                             cfg=self.cfg())
        b = encode_idealized(x, Fraction(11, 100), src=Fraction(1, 2),
                             cfg=self.cfg())
        assert a.stream.to_bytes() == b.stream.to_bytes()

    def test_practical_stream_relabelled_idealized_is_corrupt(self):
        res = encode_practical(BitSequence.from_str("0110101101000"), Fraction(1, 4))
        raw = bytearray(res.stream.to_bytes())
        raw[31] = VARIANT_IDEALIZED  # header ell stays 0
        with pytest.raises(CorruptStream):
            decode(bytes(raw))

    def test_truncated_payload_is_corrupt(self):
        rng = np.random.default_rng(37)
        x = bernoulli(rng, 2048, 0.5)
        res = encode_idealized(x, Fraction(1, 4), src=Fraction(1, 2),
                               cfg=self.cfg())
        raw = res.stream.to_bytes()
        assert len(raw) > Header.SIZE + 8
        with pytest.raises(CorruptStream):
            decode(EncodedStream.from_bytes(raw[: Header.SIZE + 4]))


def reference_idealized(x, dist, src, cfg):
    """encode_idealized's parse with a phrase step built from public methods.

    The step reads each window with BitSequence.window and writes each
    slot with BitWriter.write_trunc, then the raw bits of an escape
    with write; the dictionary grows in the shared _idealized_parse.
    promote is wrapped to count the codelets it admits.  The dictionary
    comes from codec.idealized_build_init, so capped_levels presets its
    caps as it does the encoder's, and its caps are sized for src, or
    for x's bias when src is None.  Returns y, the payload, its bit
    length, the give-up count and the promotions.
    """
    n = x.length
    ell = cfg.ell
    p = Fraction(x.to01().count("1"), n) if src is None else src
    tree = codec.idealized_build_init(cfg, dist, p)
    writer = BitWriter()
    admitted = []
    give_ups = 0
    promote = tree.promote

    def counted_promote(leaf, extension):
        node = promote(leaf, extension)
        admitted.append(node is not None)
        return node

    tree.promote = counted_promote

    def step(pos, rem):
        nonlocal give_ups
        bound = len(tree.admitted) + 1
        width = min(rem, tree.max_level() * ell)
        window = x.window(pos, width)
        best, give_up = tree.search(window, width)
        if give_up:
            give_ups += 1
            best = None
        if best is None:
            seglen = min(rem, ell)
            seg = window & ((1 << seglen) - 1)
            writer.write_trunc(0, bound)
            writer.write(lex_key(seg, seglen), seglen)
            return seg, seglen, None
        writer.write_trunc(best.ordinal + 1, bound)
        return best.bits, best.level * ell, best

    y = codec._idealized_parse(n, ell, tree, step)
    return y, writer.getvalue(), writer.bit_length, give_ups, sum(admitted)


class TestIdealizedPhraseStep:
    def test_payload_matches_the_public_method_reference(self):
        # the encoder counts promotions and give-ups from the finished
        # parse and the dictionary; a step that counts each admission as
        # it happens must agree, and must write the same payload
        self.assert_matches_reference()

    @pytest.mark.parametrize("block_bits", (1, 13))
    def test_small_x_blocks_match_the_reference(self, block_bits, monkeypatch):
        # the encoder slices its windows from blocks of x; blocks this
        # small refetch every phrase or two, are narrower than most
        # windows and put the final tail across a block end, yet the
        # stream must be the reference's, which reads x.window per phrase
        monkeypatch.setattr(codec, "_X_BLOCK_BITS", block_bits)
        self.assert_matches_reference()

    def test_reads_x_once_per_block(self, monkeypatch):
        # one x.window call per _X_BLOCK_BITS bits of x, not one per
        # phrase: 16 calls here against 1,825 phrases
        n = 1 << 14
        x = bernoulli(np.random.default_rng(1), n, 0.5)
        calls = 0
        window = BitSequence.window

        def counting(self, start, width):
            nonlocal calls
            calls += 1
            return window(self, start, width)

        monkeypatch.setattr(BitSequence, "window", counting)
        res = encode_idealized(x, Fraction(11, 100), Fraction(1, 2))
        assert res.stats.phrases > 1000
        assert calls <= -(-n // codec._X_BLOCK_BITS) + 1

    @staticmethod
    def assert_matches_reference():
        rng = np.random.default_rng(44)
        cases = 0
        for trial in range(10):
            n = int(rng.integers(1, 1 << 14)) if trial else 1 << 14
            x = bernoulli(rng, n, float(rng.uniform(0.2, 0.8)))
            d = Fraction(int(rng.integers(0, 40)), 100)
            configs = (
                (d, LevelConfig(ell=default_step(n)), {}),
                (d, LevelConfig(ell=2), {1: 3, 2: 5, 3: 7}),
                (1, LevelConfig(ell=1, delta=1.0), {1: 2}),
            )
            for dist, cfg, caps in configs:
                for src in (Fraction(1, 2), None):
                    with capped_levels(caps):
                        res = encode_idealized(x, dist, src, cfg)
                        y, payload, nbits, give_ups, promotions = reference_idealized(
                            x, dist, src, cfg)
                    case = (n, dist, cfg, caps, src)
                    assert res.stream.payload == payload, case
                    assert res.stream.payload_bits == nbits, case
                    assert res.y == y, case
                    assert (res.stats.give_ups, res.stats.promotions) == (give_ups, promotions), case
                    cases += 1
        assert cases == 60


@st.composite
def public_encodes(draw):
    """(x, D, p or None, LevelConfig) over every public idealized knob,
    n <= 600."""
    ell = draw(st.integers(1, 6))
    delta = draw(st.sampled_from((0.01, 0.5, 1.0)))
    dist = draw(st.sampled_from(D_VALUES))
    src = draw(st.sampled_from((None, Fraction(3, 10), Fraction(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = bernoulli(rng, draw(st.integers(0, 600)), 0.3)
    return x, dist, src, LevelConfig(ell=ell, delta=delta)


class TestDecodesFromBytesAlone:
    def test_no_decoder_parameter_and_no_cap_setting(self):
        assert list(inspect.signature(decode).parameters) == ["stream"]
        assert [f.name for f in dataclasses.fields(LevelConfig)] == ["ell", "delta"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(public_encodes())
    def test_public_config_streams_decode_from_their_bytes(self, case):
        # decode takes no config: the header's ell, p and D fix every
        # level cap, and delta steers only the encoder's search, whose
        # choices the records spell out
        x, dist, src, cfg = case
        res = encode_idealized(x, dist, src, cfg)
        raw = res.stream.to_bytes()
        assert decode(raw) == res.y
        assert _cli_decode(raw) == EXIT_OK

    @pytest.mark.parametrize("delta", [0.01, 0.5, 1.0])
    def test_one_bit_levels_at_full_distortion_never_give_up(self, delta):
        # ell = 1, D = 1 is the one public setting with a one-bit frontier
        # that matches both codelets, yet level_size(1) = 1 caps level 1
        # at one codelet, so no delta makes a search give up there
        for n in (37, 200, 4096):
            x = bernoulli(np.random.default_rng(n), n, 0.5)
            res = encode_idealized(x, Fraction(1), None, LevelConfig(ell=1, delta=delta))
            assert res.stats.tree.caps[1] == 1
            assert res.stats.give_ups == 0
            raw = res.stream.to_bytes()
            assert decode(raw) == res.y
            assert _cli_decode(raw) == EXIT_OK


# -- parse events --------------------------------------------------------


def _event_logs(n):
    """(result, phrase count) for each coder on one input of n bits."""
    x = bernoulli(np.random.default_rng(39), n, 0.5)
    prac = encode_practical(x, Fraction(0))
    yield prac, len(lz78_phrase_lengths(x.to01()))
    ideal = encode_idealized(x, Fraction(1, 4), cfg=LevelConfig(ell=2))
    yield ideal, ideal.stats.phrases


# (config, preset caps) with caps small enough that level 1 fills
# early, so windows it cannot match escape mid-stream
_CAPPED = (LevelConfig(ell=3), {1: 3, 2: 5, 3: 7})


@st.composite
def coded_inputs(draw):
    """(coder, x as 0/1 text, D, p or None, level config or None, preset
    caps), n <= 300."""
    coder = draw(st.sampled_from(("practical", "idealized")))
    x01 = draw(st.text(alphabet="01", max_size=300))
    dist = draw(st.sampled_from((Fraction(0), Fraction(1, 10), Fraction(1, 4))))
    src = draw(st.sampled_from((None, Fraction(1, 2), Fraction(3, 10))))
    cfg, caps = None, {}
    if coder == "idealized":
        cfg, caps = draw(st.sampled_from(((None, {}), (LevelConfig(ell=2), {}), _CAPPED)))
    return coder, x01, dist, src, cfg, caps


def _encode_noting_escapes(coder, x, dist, src, cfg, caps):
    """Encode x, under the preset caps, and list, per phrase, whether the
    coder escaped.

    The idealized coder writes one slot per phrase, 0 for an escape;
    the practical coder searches once per phrase and escapes when
    find_matches finds no codelet.
    """
    escaped = []
    with pytest.MonkeyPatch.context() as mp, capped_levels(caps):
        if coder == "idealized":
            write_trunc = BitWriter.write_trunc

            def noting_slot(self, value, bound):
                escaped.append(value == 0)
                return write_trunc(self, value, bound)

            mp.setattr(BitWriter, "write_trunc", noting_slot)
            res = encode_idealized(x, dist, src, cfg)
        else:
            find_matches = CodebookTree.find_matches

            def noting_matches(self, window, relation):
                got = find_matches(self, window, relation)
                escaped.append(not got)
                return got

            mp.setattr(CodebookTree, "find_matches", noting_matches)
            res = encode_practical(x, dist, src=src)
    return res, escaped


def _assert_events_tile(res, x, escaped, idealized):
    """The events cover x and y in order, one per phrase the coder wrote."""
    events = list(res.events)
    assert len(events) == len(escaped) == res.stats.phrases
    pos = 0
    for event, was_escape in zip(events, escaped):
        end = event.pos + event.length
        assert event.pos == pos and event.length > 0
        assert event.x_bits == x[pos:end] and event.y_bits == res.y[pos:end]
        assert event.distortion == hamming_distance(event.x_bits, event.y_bits)
        assert (event.kind == "escape") == was_escape
        if idealized and not was_escape:
            node = res.stats.tree.admitted[event.index]
            assert (node.bits, node.level) == (event.y_bits.value, event.level)
            assert event.length == event.level * res.stream.header.ell
        pos = end
    assert pos == x.length


class TestEventLog:
    def test_length_indexing_slicing_and_iteration_agree(self):
        for res, phrases in _event_logs(700):
            events = list(res.events)
            assert len(res.events) == phrases == len(events)
            assert sum(e.length for e in events) == 700
            assert res.events[-1] == events[-1]
            assert res.events[1:4] == events[1:4]
            assert [res.events[i] for i in range(phrases)] == events
            assert list(res.events) == events  # a second pass reads the same

    def test_idealized_encode_builds_no_bit_sequence_per_phrase(self, monkeypatch):
        # events stay codelet references until read, so the parse loop
        # constructs no BitSequence, however many phrases it writes
        built = []
        real = codec.BitSequence

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(codec, "BitSequence", counting)
        seen = {}
        for n in (1000, 4099):
            x = bernoulli(np.random.Generator(np.random.Philox(n)), n, 0.3)
            built.clear()
            res = encode_idealized(x, Fraction(11, 100))
            seen[n] = (res.stats.phrases, len(built))
        assert seen[1000][0] < seen[4099][0]
        assert seen[4099][1] == seen[1000][1]

    def test_idealized_encode_peak_memory_per_phrase(self):
        # the encoder keeps one codelet reference per phrase and builds
        # y in place, so one encode peaks under 350 B per phrase
        x = bernoulli(np.random.default_rng(1), 1 << 16, 0.5)
        args = (x, Fraction(11, 100), Fraction(1, 2))
        encode_idealized(*args)  # fill the shared level-size and table caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = encode_idealized(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / res.stats.phrases < 350

    def test_idealized_logs_read_in_step_copy_x_once_each(self):
        # the encoder and the log both window x through the byte view x
        # keeps, so encoding two inputs and reading their logs in step
        # copies each x once in all, not once per event
        copies = []
        counting_int = counting_int_type(copies)
        logs, plain, counted = [], [], []
        for seed in (1, 2):
            x = bernoulli(np.random.default_rng(seed), 1 << 12, 0.5)
            counted.append(BitSequence(counting_int(x.value), x.length))
            logs.append(encode_idealized(counted[-1], Fraction(11, 100), Fraction(1, 2)).events)
            plain.append(list(encode_idealized(x, Fraction(11, 100), Fraction(1, 2)).events))
        assert [list(pair) for pair in zip(*logs)] == [list(pair) for pair in zip(*plain)]
        assert [id(v) for v in copies] == [id(x.value) for x in counted]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coded_inputs(), st.integers(-310, 310), st.integers(-310, 310),
           st.sampled_from((1, 2, 3, -1, -2)))
    @example(("idealized", "0110" * 50 + "1", Fraction(1, 10), None, *_CAPPED), 5, -5, 2)
    @example(("practical", "01101" * 60, Fraction(1, 8), Fraction(1, 2), None, {}), -1, 3, -1)
    def test_events_tile_x_and_y(self, case, start, stop, step):
        coder, x01, dist, src, cfg, caps = case
        x = BitSequence.from_str(x01)
        res, escaped = _encode_noting_escapes(coder, x, dist, src, cfg, caps)
        _assert_events_tile(res, x, escaped, coder == "idealized")
        events = list(res.events)
        assert res.events[start:stop:step] == events[start:stop:step]
        assert [res.events[-k] for k in range(1, len(events) + 1)] == events[::-1]
        with pytest.raises(IndexError):
            res.events[len(events)]
        with pytest.raises(IndexError):
            res.events[-len(events) - 1]

    def test_capped_levels_escape_mid_stream(self):
        # the capped config of the tiling test escapes before the tail
        x = bernoulli(np.random.default_rng(40), 300, 0.5)
        res, escaped = _encode_noting_escapes("idealized", x, Fraction(1, 10), None, *_CAPPED)
        assert any(escaped[:-1]) and not all(escaped)
        _assert_events_tile(res, x, escaped, True)


# -- container -----------------------------------------------------------


class TestContainer:
    def test_stream_bytes_round_trip(self):
        rng = np.random.default_rng(41)
        x = bernoulli(rng, 300, 0.5)
        res = encode_practical(x, Fraction(1, 8))
        back = EncodedStream.from_bytes(res.stream.to_bytes())
        assert back.header == res.stream.header
        assert back.payload == res.stream.payload
        assert decode(back) == res.y

    def test_coding_rate(self):
        h = Header.build(n=100, dist=Fraction(1, 4))
        s = EncodedStream(header=h, payload=b"\x00" * 5, payload_bits=37)
        assert coding_rate(s) == 37 / 100

    def test_from_bytes_rounds_payload_bits_up(self):
        rng = np.random.default_rng(42)
        x = bernoulli(rng, 400, 0.5)
        res = encode_practical(x, Fraction(1, 4))
        back = EncodedStream.from_bytes(res.stream.to_bytes())
        assert back.payload_bits == 8 * len(back.payload)
        assert back.payload_bits >= res.stream.payload_bits


# -- cycle collector -----------------------------------------------------


def _round_trip_grid():
    """Encode and decode with both coders; every result is dropped.

    Covers escapes (D = 0, and tails shorter than ell), give-ups,
    known and unknown p, and both match relations.
    """
    rng = np.random.default_rng(43)
    for d in (Fraction(0), Fraction(11, 100), Fraction(1, 4), Fraction(1, 2)):
        for src in (Fraction(1, 2), None):
            x = bernoulli(rng, 601, 0.5)
            res = encode_idealized(x, d, src=src, cfg=LevelConfig(ell=2))
            assert decode(res.stream.to_bytes()) == res.y
            for relation in MatchRelation:
                res = encode_practical(x, d, relation=relation, src=src)
                assert decode(res.stream.to_bytes()) == res.y
    with capped_levels({1: 2}):
        res = encode_idealized(bernoulli(rng, 200, 0.5), 1, cfg=LevelConfig(ell=1, delta=1.0))
        assert decode(res.stream) == res.y
    assert res.stats.give_ups > 0


class TestCycleCollector:
    def test_coders_leave_no_cyclic_garbage(self):
        # the coders run with the collector paused, which is safe only
        # if reference counting alone frees everything they build
        gc.collect()
        gc.disable()
        try:
            _round_trip_grid()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collector_is_switched_back_on(self):
        assert gc.isenabled()
        x = bernoulli(np.random.default_rng(44), 512, 0.5)
        ideal = encode_idealized(x, Fraction(1, 4), cfg=LevelConfig(ell=2))
        assert gc.isenabled()
        prac = encode_practical(x, Fraction(1, 4))
        assert gc.isenabled()
        for stream in (ideal.stream, prac.stream):
            decode(stream)
            assert gc.isenabled()
        with pytest.raises(CorruptStream):
            decode(ideal.stream.to_bytes()[: Header.SIZE + 4])
        assert gc.isenabled()

    def test_collector_left_off_for_a_caller_who_disabled_it(self):
        x = bernoulli(np.random.default_rng(45), 512, 0.5)
        gc.disable()
        try:
            ideal = encode_idealized(x, Fraction(1, 4), cfg=LevelConfig(ell=2))
            prac = encode_practical(x, Fraction(1, 4))
            decode(ideal.stream)
            decode(prac.stream)
            with pytest.raises(CorruptStream):
                decode(ideal.stream.to_bytes()[: Header.SIZE + 4])
            assert not gc.isenabled()
        finally:
            gc.enable()
