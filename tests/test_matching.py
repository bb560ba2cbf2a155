"""Match relation and probability tests.

The probability functions are checked against 2^L exhaustive
enumeration oracles written here from the definitions: a ball oracle
(count mismatches once) and a prefix oracle (check every prefix).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clp.bits import BitSequence
from clp.errors import LengthMismatch
from clp.matching import (
    MatchRelation,
    ball_probability_exact,
    canonical_type_sequence,
    cycle_lemma_lower_bound_exact,
    hamming_distance,
    match_probability_exact,
    matches_full,
    matches_prefixwise,
)


def enum_ball_probability(y: BitSequence, d: Fraction, p: Fraction) -> Fraction:
    """Oracle: sum P(x) over all x with popcount(x ^ y) <= floor(d L)."""
    L = y.length
    radius = (d.numerator * L) // d.denominator
    total = Fraction(0)
    for x in range(1 << L):
        if (x ^ y.value).bit_count() <= radius:
            ones = x.bit_count()
            total += p**ones * (1 - p) ** (L - ones)
    return total


def enum_match_probability(y: BitSequence, d: Fraction, p: Fraction) -> Fraction:
    """Oracle: sum P(x) over x whose every prefix meets its own budget."""
    L = y.length
    dn, dd = d.numerator, d.denominator
    total = Fraction(0)
    for x in range(1 << L):
        diff = x ^ y.value
        m = 0
        ok = True
        for l in range(1, L + 1):
            m += (diff >> (l - 1)) & 1
            if m * dd > dn * l:
                ok = False
                break
        if ok:
            ones = x.bit_count()
            total += p**ones * (1 - p) ** (L - ones)
    return total


class TestRelations:
    def test_full_budget_boundary_is_exact(self):
        # one flip in two symbols at D = 1/2 sits exactly on the budget
        a = BitSequence.from_str("00")
        b = BitSequence.from_str("01")
        assert matches_full(a, b, Fraction(1, 2))
        assert not matches_full(a, b, Fraction(49, 100))

    def test_prefixwise_requires_every_prefix(self):
        d = Fraction(1, 2)
        x = BitSequence.from_str("10")  # mismatch on the first symbol
        y = BitSequence.from_str("00")
        assert matches_full(x, y, d)  # 1 flip <= 1
        assert not matches_prefixwise(x, y, d)  # prefix "1" vs "0" busts 0.5
        x2 = BitSequence.from_str("01")
        assert matches_prefixwise(x2, y, d)

    def test_prefixwise_implies_full(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            L = int(rng.integers(1, 20))
            x = BitSequence(int(rng.integers(0, 1 << L)), L)
            y = BitSequence(int(rng.integers(0, 1 << L)), L)
            d = Fraction(int(rng.integers(0, 5)), 4)
            if matches_prefixwise(x, y, d):
                assert matches_full(x, y, d)

    def test_prefix_closure(self):
        # any prefix pair of a prefix-wise match is again a match
        rng = np.random.default_rng(3)
        hits = 0
        while hits < 50:
            L = int(rng.integers(2, 16))
            x = BitSequence(int(rng.integers(0, 1 << L)), L)
            y = BitSequence(int(rng.integers(0, 1 << L)), L)
            d = Fraction(1, 4)
            if not matches_prefixwise(x, y, d):
                continue
            hits += 1
            for cut in range(1, L):
                assert matches_prefixwise(x[:cut], y[:cut], d)

    def test_zero_distortion_means_equality(self):
        x = BitSequence.from_str("0110")
        assert matches_full(x, x, 0)
        assert matches_prefixwise(x, x, 0)
        y = BitSequence.from_str("0111")
        assert not matches_full(x, y, 0)

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            matches_full(BitSequence.from_str("01"), BitSequence.from_str("011"), 0)
        with pytest.raises(LengthMismatch):
            hamming_distance(BitSequence.from_str("0"), BitSequence.from_str("01"))
        with pytest.raises(ValueError):
            matches_full(BitSequence.zeros(0), BitSequence.zeros(0), 0)

    def test_hamming_distance(self):
        assert hamming_distance(BitSequence.from_str("0110"),
                                BitSequence.from_str("1111")) == 2

    def test_relation_enum_values(self):
        assert int(MatchRelation.FULL_CODELET) == 0
        assert int(MatchRelation.PREFIX_WISE) == 1


class TestProbabilityOracles:
    # frozen: canonical y = 0101 (q = 1/2), D = 1/4, p = 1/2 has
    # prefix budgets 0,0,0,1, so x must copy the first three symbols
    def test_frozen_quarter_cell(self):
        y = canonical_type_sequence(4, Fraction(1, 2))
        assert y.to01() == "0101"
        assert match_probability_exact(y, Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 8)
        assert ball_probability_exact(y, Fraction(1, 4), Fraction(1, 2)) == Fraction(5, 16)

    def test_frozen_biased_cell(self):
        y = canonical_type_sequence(4, Fraction(1, 4))
        assert y.to01() == "0001"
        # ball radius floor(4/4) = 1: y itself plus its four neighbours
        want = Fraction(0)
        p = Fraction(3, 10)
        for x in (0b1000, 0b1001, 0b1010, 0b1100, 0b0000):
            ones = bin(x).count("1")
            want += p**ones * (1 - p) ** (4 - ones)
        assert ball_probability_exact(y, Fraction(1, 4), p) == want

    def test_enumeration_small_lengths(self):
        rng = np.random.default_rng(11)
        for L in range(1, 11):
            for _ in range(8):
                y = BitSequence(int(rng.integers(0, 1 << L)), L)
                d = Fraction(int(rng.integers(0, 3)), 4)
                p = Fraction(int(rng.integers(1, 10)), 10)
                assert ball_probability_exact(y, d, p) == enum_ball_probability(y, d, p)
                assert match_probability_exact(y, d, p) == enum_match_probability(y, d, p)

    def test_match_at_most_ball(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            L = int(rng.integers(1, 14))
            y = BitSequence(int(rng.integers(0, 1 << L)), L)
            d = Fraction(int(rng.integers(0, 4)), 8)
            p = Fraction(int(rng.integers(0, 11)), 10)
            assert match_probability_exact(y, d, p) <= ball_probability_exact(y, d, p)

    def test_degenerate_budgets(self):
        y = BitSequence.from_str("0110")
        # D = 1 admits everything
        assert ball_probability_exact(y, 1, Fraction(1, 3)) == 1
        assert match_probability_exact(y, 1, Fraction(1, 3)) == 1
        # D = 0 admits only y itself
        p = Fraction(1, 3)
        assert ball_probability_exact(y, 0, p) == p**2 * (1 - p) ** 2
        assert match_probability_exact(y, 0, p) == p**2 * (1 - p) ** 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ball_probability_exact(BitSequence.zeros(0), Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(ValueError):
            match_probability_exact(BitSequence.zeros(0), Fraction(1, 4), Fraction(1, 2))


class TestCycleLemma:
    def test_exact_formula(self):
        y = canonical_type_sequence(4, Fraction(1, 2))
        d, p = Fraction(1, 4), Fraction(1, 2)
        want = Fraction(7, 8) ** 2 / 4 * Fraction(5, 16)
        assert cycle_lemma_lower_bound_exact(y, d, p) == want

    def test_bound_holds_on_canonical_sweep(self):
        for L in range(1, 13):
            for p in (Fraction(3, 10), Fraction(1, 2)):
                for d in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
                    if d == Fraction(1, 2):
                        q = Fraction(1, 2) if p == Fraction(1, 2) else Fraction(0)
                    else:
                        q = (p - d) / (1 - 2 * d)
                        q = min(max(q, Fraction(0)), Fraction(1))
                    y = canonical_type_sequence(L, q)
                    assert (match_probability_exact(y, d, p)
                            >= cycle_lemma_lower_bound_exact(y, d, p)), (L, p, d)

    def test_lossless_case_reduces_to_point_mass_over_length(self):
        # D = 0: match probability is 2^-L, bound is 2^-L / L
        for L in (1, 3, 8):
            y = canonical_type_sequence(L, Fraction(1, 2))
            assert match_probability_exact(y, 0, Fraction(1, 2)) == Fraction(1, 2**L)
            assert cycle_lemma_lower_bound_exact(y, 0, Fraction(1, 2)) == Fraction(1, 2**L * L)


class TestCanonicalTypeSequence:
    def test_small_cases(self):
        assert canonical_type_sequence(2, Fraction(1, 2)).to01() == "01"
        assert canonical_type_sequence(4, Fraction(1, 2)).to01() == "0101"
        assert canonical_type_sequence(3, Fraction(1, 3)).to01() == "001"
        assert canonical_type_sequence(5, Fraction(0)).to01() == "00000"
        assert canonical_type_sequence(5, Fraction(1)).to01() == "11111"

    def test_rounding_half_up(self):
        # q L = 1.5 rounds to 2 ones
        assert canonical_type_sequence(3, Fraction(1, 2)).popcount() == 2

    def test_ones_spread_evenly(self):
        y = canonical_type_sequence(12, Fraction(1, 3))
        assert y.popcount() == 4
        gaps = [i for i in range(12) if y[i]]
        assert gaps == [2, 5, 8, 11]

    @given(st.integers(1, 64), st.fractions(min_value=0, max_value=1))
    @settings(max_examples=120)
    def test_type_count_is_rounded_product(self, L, q):
        y = canonical_type_sequence(L, q)
        assert y.length == L
        assert y.popcount() == int(q * L + Fraction(1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_type_sequence(0, Fraction(1, 2))
