"""Seeded fuzz of decode: mutated streams either decode or are corrupt.

Valid streams of both coders are mutated by payload bit flips, a
replaced byte anywhere, truncation, or a random payload behind a valid
header.  Every decode must either return y with len(y) equal to the
header's n or raise CorruptStream, and `clp decode` must exit 2
exactly when the decode it runs (default level config) is corrupt.
"""

import os
import tempfile
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clp.bits import bernoulli
from clp.cli import EXIT_CORRUPT, EXIT_OK, main
from clp.codec import Header, decode, encode_idealized, encode_practical
from clp.dictionary import LevelConfig
from clp.errors import CorruptStream
from clp.matching import MatchRelation


def _streams():
    """(stream bytes, decoder config) for a few small valid encodes."""
    rng = np.random.Generator(np.random.Philox(2024))
    x = bernoulli(rng, 300, 0.5)
    z = bernoulli(rng, 257, 0.3)
    capped = LevelConfig(ell=3, level_sizes={1: 3, 2: 5, 3: 7})
    return (
        (encode_practical(x, Fraction(1, 8)).stream.to_bytes(), None),
        (encode_practical(z, Fraction(1, 10), MatchRelation.PREFIX_WISE,
                          Fraction(3, 10)).stream.to_bytes(), None),
        (encode_idealized(x, Fraction(1, 4), Fraction(1, 2)).stream.to_bytes(), None),
        (encode_idealized(z, Fraction(11, 100), cfg=capped).stream.to_bytes(), capped),
    )


STREAMS = _streams()


@st.composite
def mutated_streams(draw):
    raw, cfg = draw(st.sampled_from(STREAMS))
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
    return bytes(buf), cfg


def _decoded_length(data, cfg=None):
    """len(y) of the decode, or None when the stream is corrupt."""
    try:
        return len(decode(data, cfg))
    except CorruptStream:
        return None


def _cli_decode(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.clp")
        with open(path, "wb") as fh:
            fh.write(data)
        return main(["decode", "--in", path, "--out", os.path.join(tmp, "out.bin")])


def test_unmutated_streams_decode():
    for raw, cfg in STREAMS:
        assert _decoded_length(raw, cfg) == Header.unpack(raw).n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_streams())
def test_mutated_stream_decodes_or_is_corrupt(case):
    data, cfg = case
    got = _decoded_length(data, cfg)
    assert got is None or got == Header.unpack(data).n
    default = got if cfg is None else _decoded_length(data)
    assert _cli_decode(data) == (EXIT_CORRUPT if default is None else EXIT_OK)


def test_streams_cut_at_every_byte():
    # every prefix of all four streams, from the empty string to the
    # whole stream: a cut inside the header and a cut inside the payload
    # must each end in CorruptStream or a full-length y, both for the
    # LZ78 records of the practical coder and the slots of the idealized
    start = time.process_time()
    for raw, cfg in STREAMS:
        n = Header.unpack(raw).n
        for end in range(len(raw) + 1):
            got = _decoded_length(raw[:end], cfg)
            assert got is None or got == n, end
        assert got == n  # the last cut is the whole stream
    assert time.process_time() - start < 1.0
