"""Seeded fuzz of decode: mutated streams either decode or are corrupt.

Valid streams of both coders are mutated by payload bit flips, a
replaced byte anywhere, truncation, or a random payload behind a valid
header.  Every decode must either return y with len(y) equal to the
header's n or raise CorruptStream, and `clp decode` must exit 2
exactly when that decode is corrupt.
"""

import os
import tempfile
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from level_caps import capped_levels

from clp.bits import bernoulli
from clp.cli import EXIT_CORRUPT, EXIT_OK, main
from clp.codec import Header, decode, encode_idealized, encode_practical
from clp.dictionary import LevelConfig
from clp.errors import CorruptStream
from clp.matching import MatchRelation


CAPS = {1: 3, 2: 5, 3: 7}


def _streams():
    """Stream bytes of a few small encodes.  The last one is made with
    preset level caps, so to the plain decoder it is hostile input."""
    rng = np.random.Generator(np.random.Philox(2024))
    x = bernoulli(rng, 300, 0.5)
    z = bernoulli(rng, 257, 0.3)
    with capped_levels(CAPS):
        capped = encode_idealized(z, Fraction(11, 100), cfg=LevelConfig(ell=3))
    return (
        encode_practical(x, Fraction(1, 8)).stream.to_bytes(),
        encode_practical(z, Fraction(1, 10), MatchRelation.PREFIX_WISE,
                         Fraction(3, 10)).stream.to_bytes(),
        encode_idealized(x, Fraction(1, 4), Fraction(1, 2)).stream.to_bytes(),
        capped.stream.to_bytes(),
    )


STREAMS = _streams()
VALID = STREAMS[:-1]  # made with the caps the header implies


@st.composite
def mutated_streams(draw):
    raw = draw(st.sampled_from(STREAMS))
    buf = bytearray(raw)
    kind = draw(st.sampled_from(("flip", "replace", "truncate", "payload")))
    if kind == "flip":
        bits = st.integers(8 * Header.SIZE, 8 * len(raw) - 1)
        for pos in draw(st.lists(bits, min_size=1, max_size=4)):
            buf[pos >> 3] ^= 0x80 >> (pos & 7)
    elif kind == "replace":
        buf[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    elif kind == "truncate":
        del buf[draw(st.integers(0, len(raw) - 1)):]
    else:
        buf[Header.SIZE:] = draw(st.binary(max_size=2 * (len(raw) - Header.SIZE)))
    return bytes(buf)


def _decoded_length(data):
    """len(y) of the decode, or None when the stream is corrupt."""
    try:
        return len(decode(data))
    except CorruptStream:
        return None


def _cli_decode(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.clp")
        with open(path, "wb") as fh:
            fh.write(data)
        return main(["decode", "--in", path, "--out", os.path.join(tmp, "out.bin")])


def test_unmutated_streams_decode():
    for raw in VALID:
        assert _decoded_length(raw) == Header.unpack(raw).n
    capped = STREAMS[-1]
    n = Header.unpack(capped).n
    with capped_levels(CAPS):
        assert _decoded_length(capped) == n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_streams())
def test_mutated_stream_decodes_or_is_corrupt(data):
    got = _decoded_length(data)
    assert got is None or got == Header.unpack(data).n
    assert _cli_decode(data) == (EXIT_CORRUPT if got is None else EXIT_OK)


def test_streams_cut_at_every_byte():
    # every prefix of all four streams, from the empty string to the
    # whole stream: a cut inside the header and a cut inside the payload
    # must each end in CorruptStream or a full-length y, both for the
    # LZ78 records of the practical coder and the slots of the idealized
    start = time.process_time()
    for raw in STREAMS:
        n = Header.unpack(raw).n
        for end in range(len(raw) + 1):
            got = _decoded_length(raw[:end])
            assert got is None or got == n, end
        if raw in VALID:
            assert got == n  # the last cut is the whole stream
    assert time.process_time() - start < 1.0
