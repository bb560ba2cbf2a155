"""Container format, LZ78 back end, and the two coders.

Layout of a serialized stream (all integers big-endian):

    offset  size  field
    0       4     magic "CLP1"
    4       1     format version (1)
    5       8     n, number of source symbols
    13      4     distortion numerator
    17      4     distortion denominator
    21      4     source-bias numerator
    25      4     source-bias denominator (0xFFFFFFFF, numerator 0: unknown,
                  practical coder only)
    29      2     level step ell (0 for the practical coder, 1-16 for the
                  idealized coder)
    31      1     coder id: 0 practical, 1 idealized
    32      1     match relation: 0 full-codelet, 1 prefix-wise (always 1
                  for the idealized coder)

A value outside the ones listed makes the stream corrupt.

The payload follows immediately.  For the practical coder it is the
LZ78 encoding of the reconstruction.  For the idealized coder it is a
sequence of per-phrase records drawing on one shared slot space: each
record is a single slot number in [0, m), truncated-binary coded,
where m is one plus the count of codelets admitted so far (so the
very first record occupies zero bits).  Slot 0 is an escape and is
followed by the raw source bits of the phrase (ell of them, or fewer
than ell only for the final short tail); slot i >= 1 names the i-th
codelet ever admitted to the dictionary, from which the decoder
recovers both the phrase bits and its level.  Truncated binary for a
range of m values spends w = floor(log2 m) bits on the first
2^(w+1) - m slot numbers and w + 1 bits on the rest, keeping the code
prefix-free and complete.  Encoder and decoder run the same parse
loop, _idealized_parse, and only that loop grows the dictionary, so
the slot ranges stay in lockstep by construction.  The header and
payload alone determine the decode; decode takes no other parameter.
Each level cap is computed from (ell, p, D) on both sides, with the
header's p: an idealized header always carries one, x's bias when the
caller gives none.  Bit order inside the payload is
most-significant-first per byte; raw source bits appear in source
order.

Bit I/O goes by blocks, not by fields.  BitWriter gathers fields in an
integer and emits its whole bytes once per block; BitReader keeps the
next stream bits in a small integer buffer, refilled by whole blocks of
bytes, and decodes a truncated-binary slot in one step.  Neither
builds a bytes object per field, and neither holds more than a block
and one field, so each costs the same per field at any payload size.
The idealized encoder reads x the same way: one BitSequence.window
call fetches a block of _X_BLOCK_BITS bits plus one window's width,
and each phrase's window is shifted and masked out of that block, so
x is read about once per block, not once per phrase, while only
clp.bits knows how a sequence lays out its bytes.

The three coder entry points, encode_practical, encode_idealized and
decode, run with CPython's cyclic garbage collector paused.  They build
only acyclic data (trees whose links point downward, leaf records, a
parse callback that does not refer to itself, and per phrase either one
flat tuple, in the practical coder, or one reference to the codelet
used, in the idealized coder), so reference counting frees all of it,
and the pause changes neither the output nor peak memory; it only
stops full collections from walking every node and tuple built so far,
none of which is ever garbage.  A ParseEvent and its two BitSequences
are built only when the event is read.  The switch is
process-wide: while a coder runs, cycles made by other threads wait
for it to return before they are collected.  A coder that finds the
collector off leaves it off.
"""

from __future__ import annotations

import functools
import gc
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bits import BitSequence, concat_bits
from .dictionary import (
    _MAX_STEP,
    CodebookTree,
    LevelConfig,
    LevelNode,
    PracticalNode,
    default_step,
    idealized_build_init,
    init_practical,
    lex_key,
)
from .errors import BadMagic, CorruptStream, EmptyMatchSet, UnsupportedVersion
from .matching import MatchRelation, hamming_distance
from .rd_math import DistortionBudget, SourceModel, lower_mutual_info_float

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "VARIANT_PRACTICAL",
    "VARIANT_IDEALIZED",
    "Header",
    "BitWriter",
    "BitReader",
    "ParseEvent",
    "EncodeStats",
    "EncodedStream",
    "lz78_encode",
    "lz78_decode",
    "select_codelet",
    "encode_practical",
    "encode_idealized",
    "decode",
    "coding_rate",
    "EncodeResult",
]

MAGIC = b"CLP1"
FORMAT_VERSION = 1
VARIANT_PRACTICAL = 0
VARIANT_IDEALIZED = 1
_P_UNKNOWN = 0xFFFFFFFF
_HEADER = struct.Struct(">4sBQIIIIHBB")
_TIE_TOL = 1e-12
# y is built by ORing each phrase into an integer and flushing that
# integer as one concat_bits part once it holds this many bits: no
# phrase costs a part of its own, and no shift grows with n
_PART_BITS = 4096
# BitWriter emits its accumulator's whole bytes once it holds this many
# bits; BitReader refills its buffer with at least this many bytes
_WRITE_BLOCK_BITS = 512
_READ_BLOCK_BYTES = 16
# the idealized encoder reads x through BitSequence.window this many
# bits at a time (plus one window's width), not once per phrase
_X_BLOCK_BITS = 1024


def _no_cycle_gc(fn):
    """Run fn with the cyclic garbage collector paused.

    Safe for the coders because everything they build is acyclic and
    freed by reference counting alone; see the module docstring.  The
    collector is switched back on afterwards, also when fn raises, but
    only if it was on when fn was called.  gc.disable() acts on the
    whole process, so other threads' cycles wait until fn returns.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused


def _u32_pair(fr: Fraction, what: str) -> Tuple[int, int]:
    if fr.denominator > 0xFFFFFFFE or fr.numerator > 0xFFFFFFFF:
        raise ValueError(f"{what} {fr} does not fit the header; use a smaller denominator")
    return fr.numerator, fr.denominator


@dataclass(frozen=True)
class Header:
    """Stream parameters; 33 bytes on the wire."""

    n: int
    d_num: int
    d_den: int
    p_num: int
    p_den: int
    ell: int
    variant: int
    relation: int

    SIZE = _HEADER.size

    @classmethod
    def build(cls, n: int, dist, src=None, ell: int = 0,
              variant: int = VARIANT_PRACTICAL,
              relation: MatchRelation = MatchRelation.FULL_CODELET) -> "Header":
        db = DistortionBudget.of(dist)
        dn, dd = _u32_pair(db.d, "distortion")
        if src is None:
            pn, pd = 0, _P_UNKNOWN
        else:
            sm = SourceModel.of(src)
            pn, pd = _u32_pair(sm.p, "source bias")
        return cls(n=n, d_num=dn, d_den=dd, p_num=pn, p_den=pd,
                   ell=ell, variant=variant, relation=int(relation))

    def __post_init__(self):
        if self.n < 0 or self.n >= 1 << 64:
            raise ValueError("symbol count out of range")
        if self.d_den < 1 or self.d_num > self.d_den:
            raise ValueError("distortion must be a fraction in [0, 1]")
        if (not (1 <= self.p_den and 0 <= self.p_num <= self.p_den)
                or (self.p_den == _P_UNKNOWN and self.p_num != 0)):
            raise ValueError("source bias must be a fraction in [0, 1] or unknown (0 / 0xFFFFFFFF)")
        if self.relation not in (0, 1):
            raise ValueError("unknown match relation")
        if self.variant == VARIANT_PRACTICAL:
            if self.ell != 0:
                raise ValueError("practical stream with a nonzero level step")
        elif self.variant == VARIANT_IDEALIZED:
            if not 1 <= self.ell <= _MAX_STEP:
                raise ValueError("idealized level step out of range")
            if self.relation != MatchRelation.PREFIX_WISE:
                raise ValueError("idealized stream with a full-codelet relation")
            if self.p_den == _P_UNKNOWN:
                raise ValueError("idealized stream with an unknown source bias")
        else:
            raise ValueError("unknown coder id")

    @property
    def dist(self) -> DistortionBudget:
        return DistortionBudget(Fraction(self.d_num, self.d_den))

    @property
    def src(self) -> Optional[SourceModel]:
        if self.p_den == _P_UNKNOWN:
            return None
        return SourceModel(Fraction(self.p_num, self.p_den))

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, FORMAT_VERSION, self.n, self.d_num, self.d_den,
                            self.p_num, self.p_den, self.ell, self.variant, self.relation)

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        if len(data) < _HEADER.size:
            raise CorruptStream("stream shorter than its header")
        magic, version, n, dn, dd, pn, pd, ell, variant, relation = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"format version {version} not supported")
        try:
            return cls(n=n, d_num=dn, d_den=dd, p_num=pn, p_den=pd,
                       ell=ell, variant=variant, relation=relation)
        except ValueError as exc:
            raise CorruptStream(str(exc)) from exc


class BitWriter:
    """Most-significant-bit-first bit sink.

    Fields gather in an integer accumulator, the first written in its
    most significant bits.  Once it holds _WRITE_BLOCK_BITS bits or
    more, its whole bytes go out with one int.to_bytes and one
    bytearray append, and the few bits past the last byte stay behind;
    so a field costs a shift and an OR, and no bytes object of its own.
    """

    __slots__ = ("_out", "_acc", "_fill")

    def __init__(self):
        self._out = bytearray()
        self._acc = 0   # the bits not yet in _out
        self._fill = 0  # their count

    @property
    def bit_length(self) -> int:
        """The number of bits written so far."""
        return (len(self._out) << 3) + self._fill

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or value < 0 or (nbits < value.bit_length()):
            raise ValueError("value does not fit the field")
        acc = (self._acc << nbits) | value
        fill = self._fill + nbits
        if fill >= _WRITE_BLOCK_BITS:
            rest = fill & 7
            self._out += (acc >> rest).to_bytes(fill >> 3, "big")
            acc &= (1 << rest) - 1
            fill = rest
        self._acc = acc
        self._fill = fill

    def write_trunc(self, value: int, bound: int) -> None:
        """Truncated binary for value in [0, bound); 0 bits when bound is 1."""
        if not 0 <= value < bound:
            raise ValueError(f"{value} outside [0, {bound})")
        if bound <= 1:
            return
        short = bound.bit_length() - 1
        spare = (1 << (short + 1)) - bound
        if value < spare:
            self.write(value, short)
        else:
            self.write(value + spare, short + 1)

    def getvalue(self) -> bytes:
        """The bits written so far, zero-padded to a whole byte."""
        fill = self._fill
        pad = -fill & 7
        return bytes(self._out) + (self._acc << pad).to_bytes((fill + pad) >> 3, "big")


class BitReader:
    """Most-significant-bit-first bit source over a bytes object.

    The next stream bits wait in an integer buffer, the first in its
    most significant bit.  A read takes its field from the top of the
    buffer with one shift and one mask.  When the buffer holds too few
    bits, one slice of the data and one int.from_bytes append at least
    _READ_BLOCK_BYTES bytes below them.  The buffer never holds more
    than that block plus the field being read, so no read costs more
    as the payload grows.  pos counts the bits read so far.
    """

    __slots__ = ("_data", "_next", "_buf", "_avail")

    def __init__(self, data: bytes):
        self._data = data
        self._next = 0   # index of the first byte not yet in _buf
        self._buf = 0    # the next _avail stream bits
        self._avail = 0

    @property
    def pos(self) -> int:
        return (self._next << 3) - self._avail

    def _refill(self, nbits: int) -> int:
        """Append whole bytes to the buffer, enough for nbits bits if the
        data has them; returns the bits it then holds."""
        start = self._next
        chunk = self._data[start:start + max(_READ_BLOCK_BYTES, (nbits - self._avail + 7) >> 3)]
        got = len(chunk) << 3
        self._next = start + len(chunk)
        self._buf = (self._buf << got) | int.from_bytes(chunk, "big")
        self._avail += got
        return self._avail

    def read(self, nbits: int) -> int:
        avail = self._avail
        if avail < nbits:
            avail = self._refill(nbits)
            if avail < nbits:
                raise CorruptStream("payload ended mid-record")
        avail -= nbits
        buf = self._buf
        self._buf = buf & ((1 << avail) - 1)
        self._avail = avail
        return buf >> avail

    def read_trunc(self, bound: int) -> int:
        """Inverse of BitWriter.write_trunc for the same bound.

        Takes the short + 1 bits a long code would span in one step; a
        short code gives its last bit back.  Past the end of the data
        the missing bits read as 0, and the read fails if the code it
        finds needs any of them.
        """
        if bound <= 1:
            return 0
        nbits = bound.bit_length()  # short + 1
        spare = (1 << nbits) - bound
        avail = self._avail
        if avail < nbits:
            avail = self._refill(nbits)
        rest = avail - nbits
        buf = self._buf
        code = buf >> rest if rest >= 0 else buf << -rest
        if code >> 1 < spare:
            code >>= 1
            rest += 1
        else:
            code -= spare
        if rest < 0:
            raise CorruptStream("payload ended mid-record")
        self._buf = buf & ((1 << rest) - 1)
        self._avail = rest
        return code


# -- LZ78 ---------------------------------------------------------------


def lz78_encode(y: BitSequence) -> Tuple[bytes, int]:
    """Incremental-parse code for a bit string.

    The t-th record (t counted from 1) holds the index of the longest
    previously seen phrase that prefixes the rest of the input, written
    in ceil(log2 t) bits, followed by the one new bit.  Index 0 is the
    empty phrase.  A leading flag bit says whether the final record is
    partial: a bare index whose phrase exactly finishes the input.
    Returns the payload bytes and its exact bit length.

    The parse walks y once, in order, through one little-endian byte
    copy of its value (BitSequence iteration), so encoding is linear in
    n.  A phrase's children are keyed by (index << 1) | bit, which is
    also the record that adds the child: its index, then its new bit.
    """
    n = y.length
    if n == 0:
        return b"", 0
    children: Dict[int, int] = {}
    records: List[int] = []  # (index << 1) | new bit, one per full record
    cur = 0
    for bit in y:
        key = (cur << 1) | bit
        got = children.get(key)
        if got is not None:
            cur = got
            continue
        records.append(key)
        children[key] = len(records)
        cur = 0
    w = BitWriter()
    w.write(1 if cur else 0, 1)
    for t, key in enumerate(records, start=1):
        w.write(key, (t - 1).bit_length() + 1)
    if cur:
        w.write(cur, len(records).bit_length())
    return w.getvalue(), w.bit_length


def lz78_decode(payload: bytes, n: int) -> BitSequence:
    """Inverse of lz78_encode for a known output length."""
    if n == 0:
        return BitSequence(0, 0)
    r = BitReader(payload)
    partial = r.read(1) == 1
    values = [0]
    lengths = [0]
    parts: List[Tuple[int, int]] = []
    acc = fill = 0  # the phrases not yet in parts, and their bit count
    done = 0
    t = 1
    while done < n:
        width = (t - 1).bit_length()
        idx = r.read(width)
        if idx >= t:
            raise CorruptStream(f"record {t} points at unseen phrase {idx}")
        plen = lengths[idx]
        if partial and plen == n - done:
            acc |= values[idx] << fill
            fill += plen
            break
        if plen + 1 > n - done:
            raise CorruptStream("phrase overruns the declared length")
        bit = r.read(1)
        value = values[idx] | (bit << plen)
        values.append(value)
        lengths.append(plen + 1)
        acc |= value << fill
        fill += plen + 1
        if fill >= _PART_BITS:
            parts.append((acc, fill))
            acc = fill = 0
        done += plen + 1
        t += 1
    parts.append((acc, fill))
    return concat_bits(parts)


# -- shared containers ---------------------------------------------------


@dataclass(frozen=True)
class ParseEvent:
    """One parsed phrase: what was read and what was written out."""

    kind: str                      # "codelet" or "escape"
    pos: int
    length: int
    x_bits: BitSequence
    y_bits: BitSequence
    distortion: int
    level: Optional[int] = None
    index: Optional[int] = None


class _EventLog(Sequence[ParseEvent]):
    """Read-only sequence of ParseEvents, one record per phrase.

    A coder appends one record per phrase, and each read builds a fresh
    ParseEvent from it with _event, so the parse loop allocates no
    event objects.
    """

    __slots__ = ("_records",)

    def __init__(self, records: list):
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def _event(self, i: int) -> ParseEvent:
        raise NotImplementedError

    def __getitem__(self, key):
        count = len(self._records)
        if isinstance(key, slice):
            return [self._event(i) for i in range(*key.indices(count))]
        i = key + count if key < 0 else key
        if not 0 <= i < count:
            raise IndexError("event index out of range")
        return self._event(i)

    def __iter__(self):
        return map(self._event, range(len(self._records)))


class _RowLog(_EventLog):
    """The practical coder's events: one row per phrase of the ParseEvent
    fields in order, with the two bit strings as their int values.

    Rows hold bit values, not trie nodes, so a held result does not
    keep the trie.
    """

    __slots__ = ()

    def _event(self, i: int) -> ParseEvent:
        kind, pos, length, x_value, y_value, distortion, level, index = self._records[i]
        return ParseEvent(kind, pos, length, BitSequence(x_value, length),
                          BitSequence(y_value, length), distortion, level, index)


class _CodeletLog(_EventLog):
    """The idealized coder's events: per phrase, the LevelNode written,
    or None for an escape.

    A read takes pos from prefix sums of the phrase lengths, made on the
    first read and kept by this log; x_bits from x.window, which reads
    the byte view x keeps; y_bits from the codelet's bits, or the x bits
    of an escape.
    """

    __slots__ = ("_x", "_ell", "_starts")

    def __init__(self, x: BitSequence, ell: int, nodes: List[Optional[LevelNode]]):
        super().__init__(nodes)
        self._x = x
        self._ell = ell
        self._starts: Optional[List[int]] = None

    def _event(self, i: int) -> ParseEvent:
        starts = self._starts
        if starts is None:
            ell, x = self._ell, self._x
            # an escape spans ell bits, a codelet ell per level; only a
            # final escape may be shorter, and the last phrase ends at n
            starts = list(accumulate((ell if node is None else ell * node.level
                                      for node in self._records), initial=0))
            starts[-1] = x.length
            self._starts = starts
        pos = starts[i]
        length = starts[i + 1] - pos
        x_value = self._x.window(pos, length)
        x_bits = BitSequence(x_value, length)
        node = self._records[i]
        if node is None:
            return ParseEvent("escape", pos, length, x_bits, x_bits, 0)
        bits = node.bits
        return ParseEvent("codelet", pos, length, x_bits, BitSequence(bits, length),
                          (x_value ^ bits).bit_count(), node.level, node.ordinal)


@dataclass
class EncodeStats:
    """Totals of one encode, counted once the parse is done.  Both coders
    fill phrases, escapes and distortion (hamming(x, y)); only the
    idealized one fills give_ups, promotions, max_frontier (the widest
    search frontier per level) and tree (its dictionary), and the
    practical one keeps tree None so a held result does not keep the trie."""

    phrases: int = 0
    escapes: int = 0
    give_ups: int = 0
    promotions: int = 0
    distortion: int = 0
    max_frontier: Dict[int, int] = field(default_factory=dict)
    tree: Optional[CodebookTree] = None


@dataclass(frozen=True)
class EncodedStream:
    """Header plus payload; payload_bits is the exact pre-padding length."""

    header: Header
    payload: bytes
    payload_bits: int

    def to_bytes(self) -> bytes:
        return self.header.pack() + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedStream":
        header = Header.unpack(data)
        payload = bytes(data[Header.SIZE:])
        # exact bit count is not stored; the byte length bounds it
        return cls(header=header, payload=payload, payload_bits=len(payload) * 8)


def coding_rate(stream: EncodedStream) -> float:
    """Payload bits per source symbol; 0 for an empty input."""
    if stream.header.n == 0:
        return 0.0
    return stream.payload_bits / stream.header.n


class EncodeResult(NamedTuple):
    """What either coder returns: y, the stream, one event per phrase, stats."""

    y: BitSequence
    stream: EncodedStream
    events: Sequence[ParseEvent]
    stats: EncodeStats


# -- practical coder ------------------------------------------------------


def select_codelet(matches: List[PracticalNode], window: BitSequence,
                   parsed_ones: int, parsed_len: int, dist) -> PracticalNode:
    """Pick the matching codelet whose type best fits what was parsed.

    The score of a candidate is the least mutual information between a
    source of the empirical type of (parsed prefix + this phrase) and a
    reproduction of the candidate's own type, at the distortion budget;
    an infeasible pairing scores infinity.  Scores within 1e-12 tie,
    and ties go to the longer codelet, then the lexicographically
    smaller one.  Feasibility and exact zeros are decided in integer
    arithmetic so formatting noise cannot flip them.

    A lone candidate is returned unscored.  A score depends only on the
    candidate's (ones, depth), so each distinct pair is scored once per
    call.  Two codelets of one length first differ at the lowest set
    bit of bits_a ^ bits_b, and the one holding 0 there is the
    lexicographically smaller; equal bits keep the earlier candidate.
    """
    if not matches:
        raise EmptyMatchSet("no candidates to select from")
    if len(matches) == 1:
        return matches[0]
    db = DistortionBudget.of(dist)
    dn, dd = db.num, db.den
    d = dn / dd
    wval = window.value
    scores: Dict[Tuple[int, int], float] = {}
    best = None
    best_score = None
    best_len = 0
    for m in matches:
        L = m.depth
        ones_q = m.ones
        score = scores.get((ones_q, L))
        if score is None:
            ones_p = parsed_ones + (wval & ((1 << L) - 1)).bit_count()
            len_p = parsed_len + L
            cross = ones_p * L - ones_q * len_p
            if abs(cross) * dd > dn * len_p * L:
                score = float("inf")
            elif (ones_p * L + ones_q * len_p - 2 * ones_p * ones_q) * dd <= dn * len_p * L:
                score = 0.0
            else:
                score = lower_mutual_info_float(ones_q / L, ones_p / len_p, d)
            scores[ones_q, L] = score
        if best is None:
            best, best_score, best_len = m, score, L
            continue
        if score == best_score or abs(score - best_score) <= _TIE_TOL:
            if L > best_len:
                best, best_score, best_len = m, min(score, best_score), L
            elif L == best_len:
                diff = m.bits ^ best.bits
                if diff and not m.bits & diff & -diff:  # m holds 0 where they first differ
                    best, best_score = m, min(score, best_score)
        elif score < best_score:
            best, best_score, best_len = m, score, L
    return best


@_no_cycle_gc
def encode_practical(x: BitSequence, dist, relation: MatchRelation = MatchRelation.FULL_CODELET,
                     src=None) -> EncodeResult:
    """Greedy trie coder: parse, pick by type fit, split the used leaf.

    Escapes happen only when no codelet fits in the remaining suffix,
    which confines them to the tail.  The payload is the lossless LZ78
    code of the reconstruction, so the decoder never needs the trie.
    The stats count phrases, escapes and hamming(x, y) once the parse
    is done; the trie is not kept in them.
    """
    db = DistortionBudget.of(dist)
    n = x.length
    tree = init_practical(db)
    rows: List[tuple] = []  # per phrase, the ParseEvent fields (see _RowLog)
    parts: List[Tuple[int, int]] = []
    add_row, add_part = rows.append, parts.append
    window_of, root = x.window, tree.root
    find_matches, extend_codelet, select = tree.find_matches, tree.extend_codelet, select_codelet
    pos = 0
    parsed_ones = 0
    acc = fill = 0  # y's phrases not yet in parts, and their bit count
    while pos < n:
        rem = n - pos
        width = min(rem, root.max_leaf_depth)
        window = BitSequence(window_of(pos, width), width)
        matches = find_matches(window, relation)
        if not matches:
            tail = window_of(pos, rem)
            acc |= tail << fill
            fill += rem
            add_row(("escape", pos, rem, tail, tail, 0, None, None))
            break
        chosen = select(matches, window, parsed_ones, pos, db)
        L, bits = chosen.depth, chosen.bits
        xseg = window.value & ((1 << L) - 1)  # a leaf is never longer than the window
        acc |= bits << fill
        fill += L
        if fill >= _PART_BITS:
            add_part((acc, fill))
            acc = fill = 0
        add_row(("codelet", pos, L, xseg, bits, (xseg ^ bits).bit_count(), None, None))
        extend_codelet(chosen)
        parsed_ones += xseg.bit_count()
        pos += L
    add_part((acc, fill))
    y = concat_bits(parts)
    stats = EncodeStats(phrases=len(rows), escapes=[row[0] for row in rows].count("escape"),
                        distortion=hamming_distance(x, y))
    payload, nbits = lz78_encode(y)
    header = Header.build(n=n, dist=db, src=src, ell=0,
                          variant=VARIANT_PRACTICAL, relation=relation)
    return EncodeResult(y, EncodedStream(header, payload, nbits), _RowLog(rows), stats)


# -- idealized coder ------------------------------------------------------


def _source_bias(ones: int, n: int) -> Fraction:
    """The source bias an idealized header carries when the caller gives
    none: x's bias ones / n, 0 for an empty x, and past n = 0xFFFFFFFE
    the nearest fraction whose denominator fits the header."""
    if n == 0:
        return Fraction(0)
    return Fraction(ones, n).limit_denominator(0xFFFFFFFE)


def _idealized_parse(n: int, ell: int, tree: CodebookTree, next_phrase) -> BitSequence:
    """The parse loop both idealized sides run; returns y.

    next_phrase(pos, rem) handles one record, writing it or reading it,
    and returns the phrase's reconstruction bits, their count and the
    codelet used (None for an escape).  All dictionary growth happens
    here, so the encoder and decoder grow it identically by
    construction: a phrase's first ell bits extend the codelet used one
    phrase earlier to the next level, and a full-length escape admits
    the level-1 candidates matching its raw bits.

    y is built in place: each phrase is ORed into an integer
    accumulator, flushed as one part once it holds _PART_BITS bits, and
    concat_bits joins the parts at the end.
    """
    parts: List[Tuple[int, int]] = []
    add_part = parts.append
    promote, fill_level1 = tree.promote, tree.fill_level1
    mask = (1 << ell) - 1
    pos = 0
    acc = fill = 0  # y's phrases not yet in parts, and their bit count
    prev_node: Optional[LevelNode] = None
    while pos < n:
        seg, seglen, node = next_phrase(pos, n - pos)
        acc |= seg << fill
        fill += seglen
        if fill >= _PART_BITS:
            add_part((acc, fill))
            acc = fill = 0
        pos += seglen
        if prev_node is not None and seglen >= ell:
            promote(prev_node, seg & mask)
        if node is None and seglen == ell:
            fill_level1(seg)
        prev_node = node
    add_part((acc, fill))
    return concat_bits(parts)


def _encoder_step(x: BitSequence, tree: CodebookTree, writer: BitWriter,
                  nodes: List[Optional[LevelNode]], stats: EncodeStats):
    """The idealized encoder's phrase step, for _idealized_parse.

    step(pos, rem) searches tree for the window of x at pos, writes the
    phrase's record to writer, appends the codelet written (None for an
    escape) to nodes and counts give-ups in stats.  It only reads the
    dictionary; the parse loop grows it.

    x is read by blocks: the step keeps x's bits [start, end) as one
    integer, fetched with a single x.window call, and slices each
    phrase's window out of it.  When a window would run past end, the
    block is refetched from pos with _X_BLOCK_BITS bits beyond the
    window's width, so a window wider than the block (a deep
    dictionary) still fits in it.
    """
    ell = tree.ell
    add_node = nodes.append
    window_of, search = x.window, tree.search
    write, write_trunc = writer.write, writer.write_trunc
    sizes, admitted = tree.sizes, tree.admitted
    block_bits = _X_BLOCK_BITS
    block = start = end = 0  # x's bits [start, end), as one integer

    def next_phrase(pos: int, rem: int) -> Tuple[int, int, Optional[LevelNode]]:
        nonlocal block, start, end
        slot_bound = len(admitted) + 1
        # sizes always counts level 1, so the window spans at least ell
        # bits; a window shorter than ell matches nothing, so the tail
        # escapes
        width = min(rem, (len(sizes) - 1) * ell)
        if pos + width > end:
            end = pos + block_bits + width
            block, start = window_of(pos, block_bits + width), pos
        # equal to x.window(pos, width); every phrase below fits inside it
        window = (block >> (pos - start)) & ((1 << width) - 1)
        best, give_up = search(window, width)
        if give_up:
            stats.give_ups += 1
            best = None
        if best is None:
            seglen = min(rem, ell)
            seg = window & ((1 << seglen) - 1)
            write_trunc(0, slot_bound)
            write(lex_key(seg, seglen), seglen)  # MSB first = source order
            add_node(None)
            return seg, seglen, None
        write_trunc(best.ordinal + 1, slot_bound)
        add_node(best)
        return best.bits, best.level * ell, best

    return next_phrase


@_no_cycle_gc
def encode_idealized(x: BitSequence, dist, src=None, cfg: Optional[LevelConfig] = None,
                     ) -> EncodeResult:
    """Leveled coder with explicit escape records.

    Each phrase is either the codelet tree.search returns, the oldest
    of the deepest admitted codelets that prefix-wise match the
    upcoming window (written as its admission slot), or an escape
    (slot 0) carrying ell raw source bits when no codelet matches or
    the search gives up.  The dictionary then grows in two
    decoder-visible ways: an escape admits every level-1 candidate
    matching its raw bits, and a phrase's first ell reconstruction bits
    extend the codelet used one phrase earlier to the next level.  A
    final sub-ell tail is escaped verbatim.

    Every level cap is sized for src or, when it is None, for x's bias,
    which the header then carries (see _source_bias).  promotions and
    max_frontier are not counted per phrase; they are read from the
    dictionary once the parse is done.
    """
    db = DistortionBudget.of(dist)
    n = x.length
    sm = SourceModel.of(_source_bias(x.value.bit_count(), n) if src is None else src)
    if cfg is None:
        cfg = LevelConfig(ell=default_step(n))
    ell = cfg.ell
    tree = idealized_build_init(cfg, db, sm)
    writer = BitWriter()
    nodes: List[Optional[LevelNode]] = []  # per phrase: the codelet written, None to escape
    stats = EncodeStats(tree=tree)
    y = _idealized_parse(n, ell, tree, _encoder_step(x, tree, writer, nodes, stats))
    # totals counted once from the finished parse; only promote admits above level 1
    stats.phrases = len(nodes)
    stats.escapes = nodes.count(None)
    stats.promotions = len(tree.admitted) - len(tree.level1)
    stats.max_frontier = {lvl: size for lvl, size in enumerate(tree.widest) if size}
    stats.distortion = hamming_distance(x, y)
    header = Header.build(n=n, dist=db, src=sm, ell=ell,
                          variant=VARIANT_IDEALIZED, relation=MatchRelation.PREFIX_WISE)
    stream = EncodedStream(header, writer.getvalue(), writer.bit_length)
    return EncodeResult(y, stream, _CodeletLog(x, ell, nodes), stats)


def _decode_idealized(header: Header, payload: bytes) -> BitSequence:
    ell = header.ell
    tree = idealized_build_init(LevelConfig(ell=ell), header.dist, header.src)
    reader = BitReader(payload)
    read_trunc, admitted = reader.read_trunc, tree.admitted

    def next_phrase(pos: int, rem: int) -> Tuple[int, int, Optional[LevelNode]]:
        slot = read_trunc(len(admitted) + 1)
        if slot == 0:
            seglen = min(rem, ell)
            return lex_key(reader.read(seglen), seglen), seglen, None
        node = admitted[slot - 1]
        seglen = node.level * ell
        if seglen > rem:
            raise CorruptStream("codelet overruns the declared length")
        return node.bits, seglen, node

    return _idealized_parse(header.n, ell, tree, next_phrase)


@_no_cycle_gc
def decode(stream) -> BitSequence:
    """Reconstruction from a stream object or raw bytes.

    Yields exactly the y the encoder produced, from the stream alone:
    a decoder has no parameter to get wrong.
    """
    if isinstance(stream, (bytes, bytearray, memoryview)):
        stream = EncodedStream.from_bytes(bytes(stream))
    header = stream.header
    if header.variant == VARIANT_PRACTICAL:
        return lz78_decode(stream.payload, header.n)
    return _decode_idealized(header, stream.payload)
