"""Match relations between source windows and codelets.

Two relations are used throughout: a full-length test (Hamming distance
within D times the length) and a prefix-wise test (every prefix within
D times its own length).  The prefix-wise relation is closed under
truncation, which is what lets dictionary search extend matches level
by level instead of rescanning.

Distortion thresholds compare exactly: with D = dn/dd the test
"mismatches <= D * l" runs as "mismatches * dd <= dn * l" in integers,
so budget boundaries like one flip in two symbols at D = 1/2 never fall
to float rounding.  The probability routines are exact integer dynamic
programs over a rational source and return exact Fractions.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .bits import BitSequence
from .errors import LengthMismatch
from .rd_math import DistortionBudget, SourceModel, as_fraction

__all__ = [
    "MatchRelation",
    "hamming_distance",
    "matches_full",
    "matches_prefixwise",
    "ball_probability_exact",
    "match_probability_exact",
    "cycle_lemma_lower_bound_exact",
    "canonical_type_sequence",
]


class MatchRelation(enum.IntEnum):
    """How a codelet is allowed to approximate a source window."""

    FULL_CODELET = 0
    PREFIX_WISE = 1


def hamming_distance(x: BitSequence, y: BitSequence) -> int:
    if x.length != y.length:
        raise LengthMismatch(f"{x.length} vs {y.length}")
    return (x.value ^ y.value).bit_count()


def _rational(dist) -> tuple:
    db = DistortionBudget.of(dist)
    return db.num, db.den


def matches_full(x: BitSequence, y: BitSequence, dist) -> bool:
    """Hamming distance within D * length, compared in exact integers."""
    if x.length != y.length:
        raise LengthMismatch(f"{x.length} vs {y.length}")
    if x.length == 0:
        raise ValueError("match relations need at least one symbol")
    dn, dd = _rational(dist)
    return (x.value ^ y.value).bit_count() * dd <= dn * x.length


def matches_prefixwise(x: BitSequence, y: BitSequence, dist) -> bool:
    """Every prefix within its own scaled budget.

    Implies matches_full, and any prefix pair of a match is again a
    match, so extending a matched codelet only has to examine the new
    symbols.
    """
    if x.length != y.length:
        raise LengthMismatch(f"{x.length} vs {y.length}")
    if x.length == 0:
        raise ValueError("match relations need at least one symbol")
    dn, dd = _rational(dist)
    diff = x.value ^ y.value
    m = 0
    for l in range(1, x.length + 1):
        m += (diff >> (l - 1)) & 1
        if m * dd > dn * l:
            return False
    return True


def ball_probability_exact(y: BitSequence, dist, src) -> Fraction:
    """P(d_H(X, y) <= D * L) for X ~ Bernoulli(p)^L, exactly."""
    L = y.length
    if L == 0:
        raise ValueError("empty codelet")
    dn, dd = _rational(dist)
    p = SourceModel.of(src).p
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    radius = (dn * L) // dd
    k = y.value.bit_count()
    z = L - k
    # flip i of the ones and j of the zeros; the result has k - i + j ones
    comb_k = _binomials(k)
    comb_z = _binomials(z)
    total = 0
    for i in range(min(k, radius) + 1):
        for j in range(min(z, radius - i) + 1):
            ones = k - i + j
            total += comb_k[i] * comb_z[j] * pn**ones * qn ** (L - ones)
    return Fraction(total, pd**L)


def _binomials(n: int) -> list:
    row = [1] * (n + 1)
    for i in range(1, n + 1):
        row[i] = row[i - 1] * (n - i + 1) // i
    return row


def match_probability_exact(y: BitSequence, dist, src) -> Fraction:
    """P(X ~ y) under the prefix-wise relation, exactly.

    Dynamic program over (prefix length, mismatches so far); states
    whose mismatch count already exceeds the scaled budget are dropped,
    so the table stays O(L^2).
    """
    L = y.length
    if L == 0:
        raise ValueError("empty codelet")
    dn, dd = _rational(dist)
    p = SourceModel.of(src).p
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    yv = y.value
    state = {0: 1}  # mismatches -> weight, scaled by pd**l
    for l in range(1, L + 1):
        bit = (yv >> (l - 1)) & 1
        w_match = pn if bit else qn
        w_miss = qn if bit else pn
        limit = (dn * l) // dd
        nxt: dict = {}
        for m, w in state.items():
            if m <= limit and w_match:
                nxt[m] = nxt.get(m, 0) + w * w_match
            if m + 1 <= limit and w_miss:
                nxt[m + 1] = nxt.get(m + 1, 0) + w * w_miss
        state = nxt
        if not state:
            return Fraction(0)
    return Fraction(sum(state.values()), pd**L)


def cycle_lemma_lower_bound_exact(y: BitSequence, dist, src) -> Fraction:
    """(1 - D/2)^2 / L times the ball probability of y, as a Fraction.

    A floor under the prefix-wise match probability of a codelet whose
    type is the optimal reproduction type; the length L here is the
    codelet's own length.
    """
    L = y.length
    if L == 0:
        raise ValueError("empty codelet")
    dn, dd = _rational(dist)
    factor = Fraction(2 * dd - dn, 2 * dd) ** 2 / L
    return factor * ball_probability_exact(y, dist, src)


def canonical_type_sequence(L: int, q) -> BitSequence:
    """Fixed representative of the rounded type class at length L.

    The ones count is round(q * L) (half rounds up) and the ones are
    spread evenly, so e.g. q = 1/2, L = 2 gives 01.
    """
    if L <= 0:
        raise ValueError("length must be positive")
    k = int(as_fraction(q) * L + Fraction(1, 2))
    value = 0
    for i in range(L):
        if ((i + 1) * k) // L > (i * k) // L:
            value |= 1 << i
    return BitSequence(value, L)
