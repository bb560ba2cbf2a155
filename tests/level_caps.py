"""Idealized dictionaries with preset level caps, for tests only.

The library computes every level cap from (ell, p, D), so a stream
decodes from its bytes alone.  Tests that want small, early-filling
levels get them here: inside capped_levels(caps), every dictionary
clp.codec builds, the encoder's and the decoder's alike, starts with
those caps frozen in tree.caps, clamped as CodebookTree.cap clamps.
A stream made inside decodes only inside, under the same caps.
"""

import contextlib

from clp import codec


def clamped_caps(caps, ell):
    """caps (levels 1..k) cut to what each level can hold: 2^ell
    at level 1, 2^ell times the level above's cap deeper down."""
    assert sorted(caps) == list(range(1, len(caps) + 1)), caps
    assert all(v >= 1 for v in caps.values()), caps
    out = {}
    avail = 1 << ell
    for level in range(1, len(caps) + 1):
        out[level] = value = min(caps[level], avail)
        avail = value << ell
    return out


@contextlib.contextmanager
def capped_levels(caps):
    """Preset caps in every dictionary the coders build; {} presets none."""
    build = codec.idealized_build_init

    def capped_build(cfg, dist):
        tree = build(cfg, dist)
        tree.caps.update(clamped_caps(caps, cfg.ell))
        return tree

    codec.idealized_build_init = capped_build
    try:
        yield
    finally:
        codec.idealized_build_init = build
