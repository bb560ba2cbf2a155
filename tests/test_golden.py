"""Golden digest of both coders' deterministic output over a fixed grid.

Any change to a stream byte, a parse event field, an idealized
statistics counter or the order in which the idealized dictionary
admits codelets changes the digest.  A refactor must leave it alone; a
deliberate format change updates GOLDEN_SHA256 and says so.
"""

import hashlib
from dataclasses import fields
from fractions import Fraction

import numpy as np
from level_caps import capped_levels

from clp.bits import BitSequence, bernoulli
from clp.codec import decode, encode_idealized, encode_practical
from clp.dictionary import LevelConfig, default_step
from clp.matching import MatchRelation

GOLDEN_SHA256 = "3ccb0a047c4f43d392abc8153c5b19b5e7cbc26c3de2859db8eaf399de2dbeb7"

N_VALUES = (0, 1, 3, 37, 1000, 4099)
D_VALUES = (Fraction(0), Fraction(1, 20), Fraction(11, 100), Fraction(1, 4), Fraction(1, 2))
P = Fraction(3, 10)
SOURCES = (P, None)


def _configs(n):
    """(config, preset caps): default config, capped levels, and the
    loosest give-up budget."""
    ell = default_step(n)
    return (
        (None, {}),
        (LevelConfig(ell=ell), {1: 3, 2: 5, 3: 7}),
        (LevelConfig(ell=ell, delta=1.0), {}),
    )


def _field(value):
    if isinstance(value, BitSequence):
        return (value.value, value.length)
    return value


def _events(events):
    return [tuple(_field(getattr(e, f.name)) for f in fields(e)) for e in events]


def _stats(stats):
    return (stats.phrases, stats.escapes, stats.give_ups, stats.promotions,
            stats.distortion, sorted(stats.max_frontier.items()),
            [(node.bits, node.level) for node in stats.tree.admitted])


def _grid_records():
    for n in N_VALUES:
        x = bernoulli(np.random.Generator(np.random.Philox(n)), n, float(P))
        for d in D_VALUES:
            for src in SOURCES:
                for relation in MatchRelation:
                    res = encode_practical(x, d, relation=relation, src=src)
                    assert decode(res.stream) == res.y
                    yield ("practical", n, d, src, relation.name,
                           res.stream.to_bytes(), _events(res.events))
                for i, (cfg, caps) in enumerate(_configs(n)):
                    with capped_levels(caps):
                        res = encode_idealized(x, d, src=src, cfg=cfg)
                        assert decode(res.stream) == res.y
                    yield ("idealized", n, d, src, i, res.stream.to_bytes(),
                           _events(res.events), _stats(res.stats))


def test_golden_digest():
    digest = hashlib.sha256()
    for record in _grid_records():
        digest.update(repr(record).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
