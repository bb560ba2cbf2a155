"""Dictionary tests: the practical trie and the leveled build.

Search results are compared against brute-force oracles that scan every
leaf (practical) or every live codelet (idealized) with the match
predicates from clp.matching.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from test_fuzz import STREAMS

from clp import dictionary
from clp.bits import BitSequence
from clp.dictionary import (
    CodebookTree,
    LevelConfig,
    default_step,
    idealized_build_init,
    init_practical,
    level_size,
    lex_key,
    target_reproduction_type,
)
from clp.codec import VARIANT_IDEALIZED, Header, decode
from clp.errors import CorruptStream, NotALeaf
from clp.matching import MatchRelation, matches_full, matches_prefixwise


def test_lex_key_orders_like_strings():
    vals = list(range(16))
    by_key = sorted(vals, key=lambda v: lex_key(v, 4))
    by_str = sorted(vals, key=lambda v: BitSequence(v, 4).to01())
    assert by_key == by_str


def test_default_step_values():
    assert default_step(2) == 2
    assert default_step(16) == 2
    assert default_step(1 << 14) == 4
    assert default_step(1 << 16) == 4
    assert default_step(1 << 18) == 5


def test_target_reproduction_type():
    assert target_reproduction_type(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 2)
    assert target_reproduction_type(Fraction(3, 10), Fraction(1, 10)) == Fraction(1, 4)
    assert target_reproduction_type(Fraction(1, 20), Fraction(1, 5)) == 0  # clamped
    assert target_reproduction_type(Fraction(19, 20), Fraction(1, 5)) == 1
    # beyond D = 1/2 the formula degenerates to its limit
    assert target_reproduction_type(Fraction(1, 3), Fraction(1, 2)) == 0
    assert target_reproduction_type(Fraction(2, 3), Fraction(1, 2)) == 1
    assert target_reproduction_type(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2)


def test_level_size_is_cached_across_dictionaries(monkeypatch):
    # check_symmetry and other harness loops grow many dictionaries with
    # one (ell, p, D): only the first computes match probabilities
    calls = []
    real = dictionary.match_probability_exact

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dictionary, "match_probability_exact", counting)
    dictionary._level_size.cache_clear()
    cfg, p, d = LevelConfig(ell=3), Fraction(2, 5), Fraction(3, 29)
    first = idealized_build_init(cfg, d, p)
    caps = [first.cap(level) for level in (1, 2, 3)]
    assert len(calls) == 3
    second = idealized_build_init(cfg, d, p)
    assert [second.cap(level) for level in (1, 2, 3)] == caps
    assert second.caps == first.caps
    assert len(calls) == 3


def test_level_size_frozen_values():
    # p = 1/2, D = 1/4: prefix budgets 0,0 give p_2 = 1/4; 0,0,0,1 give p_4 = 1/8
    assert level_size(2, Fraction(1, 2), Fraction(1, 4)) == 16
    assert level_size(4, Fraction(1, 2), Fraction(1, 4)) == 128
    # lossless: p_L = 2^-L, so the target is L^2 2^L
    assert level_size(3, Fraction(1, 2), 0) == 72
    assert level_size(8, Fraction(1, 2), 0) == 8 * 8 * 256
    with pytest.raises(ValueError):
        level_size(0, Fraction(1, 2), Fraction(1, 4))


# -- practical trie ---------------------------------------------------


def grow_random_trie(rng, steps: int, dist) -> CodebookTree:
    tree = init_practical(dist)
    for _ in range(steps):
        leaves = tree.leaves()
        tree.extend_codelet(leaves[int(rng.integers(len(leaves)))])
    return tree


def deepest_leaf(node) -> int:
    if node.children is None:
        return node.depth
    return max(deepest_leaf(child) for child in node.children)


def reference_find_matches(tree: CodebookTree, window: BitSequence, relation):
    """The trie walk spelled out: pop a node, keep an in-budget leaf,
    push each child whose bound holds, child 0 first."""
    d = tree.dist.d
    out = []
    if window.length == 0:
        return out
    stack = [(tree.root, 0)]
    while stack:
        node, m = stack.pop()
        if node.children is None:
            if m <= d * node.depth:
                out.append(node)
            continue
        if node.depth >= window.length:
            continue
        for child in node.children:
            m2 = m + (window[node.depth] != child.sequence()[node.depth])
            if relation == MatchRelation.PREFIX_WISE:
                bound = child.depth
            else:
                bound = min(deepest_leaf(child), window.length)
            if m2 <= d * bound:
                stack.append((child, m2))
    return out


class TestPracticalTrie:
    def test_initial_state(self):
        tree = init_practical(Fraction(1, 2))
        assert tree.leaf_strings() == {"0", "1"}
        assert len(tree.leaves()) == 2
        assert tree.root.max_leaf_depth == 1

    def test_extend_splits_a_leaf(self):
        tree = init_practical(Fraction(1, 2))
        zero = next(l for l in tree.leaves() if l.sequence().to01() == "0")
        c0, c1 = tree.extend_codelet(zero)
        assert {c0.sequence().to01(), c1.sequence().to01()} == {"00", "01"}
        assert tree.leaf_strings() == {"00", "01", "1"}
        assert len(tree.leaves()) == 3
        assert tree.root.max_leaf_depth == 2
        with pytest.raises(NotALeaf):
            tree.extend_codelet(zero)

    def test_max_leaf_depth_tracks_subtrees(self):
        tree = init_practical(0)
        leaf = next(l for l in tree.leaves() if l.sequence().to01() == "1")
        for _ in range(5):
            c0, _ = tree.extend_codelet(leaf)
            leaf = c0
        assert tree.root.max_leaf_depth == 6
        one = tree.root.children[1]
        assert one.max_leaf_depth == 6
        assert tree.root.children[0].max_leaf_depth == 1

    @pytest.mark.parametrize("d", [0, Fraction(1, 20), Fraction(11, 100), Fraction(1, 3),
                                   Fraction(1, 2), 1], ids=str)
    def test_budget_is_floor_of_distortion_times_deepest_leaf(self, d):
        rng = np.random.default_rng(31)
        for trial in range(10):
            tree = grow_random_trie(rng, int(rng.integers(0, 150)), d)
            stack = [tree.root]
            while stack:
                node = stack.pop()
                assert node.max_leaf_depth == deepest_leaf(node)
                assert node.budget == math.floor(Fraction(d) * node.max_leaf_depth)
                stack.extend(node.children or ())

    @pytest.mark.parametrize("relation", [MatchRelation.FULL_CODELET,
                                          MatchRelation.PREFIX_WISE])
    def test_find_matches_agrees_with_leaf_scan(self, relation):
        rng = np.random.default_rng(17)
        pred = matches_full if relation == MatchRelation.FULL_CODELET else matches_prefixwise
        for trial in range(60):
            d = Fraction(int(rng.integers(0, 4)), 8)
            tree = grow_random_trie(rng, int(rng.integers(0, 40)), d)
            wlen = int(rng.integers(1, 14))
            window = BitSequence(int(rng.integers(0, 1 << wlen)), wlen)
            got = {(m.bits, m.depth) for m in tree.find_matches(window, relation)}
            want = set()
            for leaf in tree.leaves():
                if leaf.depth <= wlen and pred(window[: leaf.depth], leaf.sequence(), d):
                    want.add((leaf.bits, leaf.depth))
            assert got == want

    @pytest.mark.parametrize("relation", [MatchRelation.FULL_CODELET,
                                          MatchRelation.PREFIX_WISE])
    def test_find_matches_order_agrees_with_reference_walk(self, relation):
        # select_codelet's tolerance-based tie rule may depend on the
        # order of the candidates, so the list is pinned, not just the set
        rng = np.random.default_rng(29)
        for trial in range(60):
            d = Fraction(int(rng.integers(0, 7)), 16)
            tree = grow_random_trie(rng, int(rng.integers(0, 200)), d)
            for _ in range(5):
                wlen = int(rng.integers(1, 20))
                window = BitSequence(int(rng.integers(0, 1 << wlen)), wlen)
                got = [(m.bits, m.depth) for m in tree.find_matches(window, relation)]
                want = [(m.bits, m.depth) for m in reference_find_matches(tree, window, relation)]
                assert got == want

    def test_find_matches_empty_window(self):
        tree = init_practical(Fraction(1, 2))
        assert tree.find_matches(BitSequence.zeros(0), MatchRelation.FULL_CODELET) == []


# -- idealized levels --------------------------------------------------


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


HOSTILE_DISTS = (0, Fraction(1, 4), Fraction(1, 3))


def hostile_wide_step_stream(dist) -> bytes:
    """ell = 16, every all-zero record an escape of the same window."""
    return Header.build(n=2**20, dist=dist, src=HALF, ell=16, variant=VARIANT_IDEALIZED,
                        relation=MatchRelation.PREFIX_WISE).pack() + bytes(1024)


def small_config(**kw):
    base = dict(ell=2, delta=0.01)
    base.update(kw)
    return LevelConfig(**base)


class TestIdealizedBuild:
    def test_caps_cut_by_availability(self):
        tree = idealized_build_init(small_config(), QUARTER, HALF)
        assert tree.cap(1) == 4     # min(16, 2^2)
        assert tree.cap(2) == 16    # min(128, 4 * 4)
        assert tree.caps[1] == 4          # frozen after first query

    def test_frozen_level1_cap_bounds_level2(self):
        tree = idealized_build_init(small_config(), QUARTER, HALF)
        tree.caps[1] = 2  # frozen before first use: cap() returns it as it stands
        assert tree.cap(1) == 2
        assert tree.cap(2) == 8  # availability follows the frozen cap

    def test_fill_admits_exactly_the_prefixwise_matches_in_lex_order(self):
        for d in (0, Fraction(1, 8), QUARTER, Fraction(1, 3), HALF, 1):
            for ell in range(1, 5):
                for w in range(1 << ell):
                    tree = idealized_build_init(small_config(ell=ell), d, HALF)
                    tree.caps[1] = 1 << ell
                    window = BitSequence(w, ell)
                    want = sorted((BitSequence(c, ell) for c in range(1 << ell)
                                   if matches_prefixwise(window, BitSequence(c, ell), d)),
                                  key=BitSequence.to01)
                    got = [n.sequence(ell) for n in tree.fill_level1(w)]
                    assert got == want, (d, ell, w)

    def test_fill_admits_in_lex_order_up_to_cap(self):
        # D = 1 makes every pattern match, so lex order decides admission
        tree = idealized_build_init(small_config(), 1, HALF)
        tree.caps[1] = 3
        added = tree.fill_level1(0b10)
        spelled = [n.sequence(2).to01() for n in added]
        assert spelled == ["00", "01", "10"]  # lex, stopped at the cap
        assert tree.fill_level1(0b11) == []  # already full
        assert tree.sizes[1] == 3

    def test_starts_with_no_codelets(self):
        tree = idealized_build_init(LevelConfig(ell=16), QUARTER, HALF)
        assert tree.level1 == {} and tree.admitted == []
        assert tree.max_level() == 1 and tree.sizes == [0, 0]

    def test_fill_with_zero_budget_admits_only_the_window(self):
        tree = idealized_build_init(small_config(), QUARTER, HALF)  # floor(2/4) = 0
        added = tree.fill_level1(0b10)
        assert [n.bits for n in added] == [0b10]
        assert tree.level1 == {0b10: added[0]} and tree.admitted == added
        again = tree.fill_level1(0b10)
        assert again == []  # already admitted

    def test_promote_paths(self):
        tree = idealized_build_init(small_config(), QUARTER, HALF)
        tree.caps.update({1: 4, 2: 2})
        tree.fill_level1(0b00)
        base = members(tree, 1)[0]
        a = tree.promote(base, 0b11)
        assert a.level == 2 and a.sequence(2).to01() == "0011"
        admitted = list(tree.admitted)
        assert tree.promote(base, 0b11) is None  # already admitted
        assert tree.admitted == admitted and base.children == {0b11: a}
        assert tree.promote(base, 0b01) is not None
        assert tree.promote(base, 0b10) is None  # level 2 is full
        assert tree.sizes[2] == 2 and 0b10 not in base.children

    @pytest.mark.parametrize("dist", HOSTILE_DISTS, ids=["0", "1/4", "1/3"])
    def test_hostile_wide_step_stream_fails_fast(self, dist):
        # the fill must neither scan all 2^16 level-1 patterns nor, once
        # thousands of them match (D = 1/3), walk them again on a repeat
        raw = hostile_wide_step_stream(dist)
        start = time.process_time()
        with pytest.raises(CorruptStream):
            decode(raw)
        assert time.process_time() - start < 0.5

    def test_sizes_count_each_levels_admitted_codelets(self):
        tree = grow_idealized(np.random.default_rng(5), LevelConfig(ell=2), Fraction(1, 3), 200)
        assert tree.max_level() >= 3
        assert tree.sizes == [0] + [len(members(tree, k)) for k in range(1, len(tree.sizes))]

    def test_admission_order_is_recorded(self):
        tree = idealized_build_init(small_config(), 1, HALF)
        tree.fill_level1(0b00)
        node = members(tree, 1)[2]
        child = tree.promote(node, 0b01)
        assert [n.ordinal for n in tree.admitted] == list(range(5))
        assert tree.admitted[-1] is child


def members(tree: CodebookTree, level: int) -> list:
    """The codelets of one level, in admission order."""
    return [nd for nd in tree.admitted if nd.level == level]


def grow_idealized(rng, cfg: LevelConfig, dist, steps: int) -> CodebookTree:
    """Random usage-driven growth: fills and promotions from random data."""
    tree = idealized_build_init(cfg, dist, HALF)
    for _ in range(steps):
        w = int(rng.integers(0, 1 << cfg.ell))
        tree.fill_level1(w)
        level = int(rng.integers(1, max(2, tree.max_level() + 1)))
        nodes = members(tree, level)
        if nodes:
            node = nodes[int(rng.integers(len(nodes)))]
            ext = int(rng.integers(0, 1 << cfg.ell))
            tree.promote(node, ext)
    return tree


def brute_deepest_match(tree: CodebookTree, window: BitSequence, dist):
    """Oracle: deepest live codelet whose prefix-wise match holds, oldest first."""
    for level in range(tree.max_level(), 0, -1):
        depth = level * tree.ell
        if depth > window.length:
            continue
        live = [nd for nd in members(tree, level)
                if matches_prefixwise(window[:depth], nd.sequence(tree.ell), dist)]
        if live:
            return min(live, key=lambda nd: nd.ordinal)
    return None


def search_widths(tree: CodebookTree, window: BitSequence):
    """(best, give_up, per-level frontier sizes) of one search on its own.

    The tree keeps only the widest frontier of each level over all its
    searches, so the record is cleared first: afterwards it holds this
    search's sizes, and a level the search never reached stays 0.
    """
    tree.widest[:] = [0] * len(tree.widest)
    best, give_up = tree.search(window.value, window.length)
    return best, give_up, {lvl: size for lvl, size in enumerate(tree.widest) if size}


def brute_match_counts(tree: CodebookTree, window: BitSequence, dist):
    """Oracle: per level that has any, the count of prefix-wise matching codelets."""
    counts = {}
    for level in range(1, tree.max_level() + 1):
        depth = level * tree.ell
        if depth <= window.length:
            count = sum(matches_prefixwise(window[:depth], nd.sequence(tree.ell), dist)
                        for nd in members(tree, level))
            if count:
                counts[level] = count
    return counts


class TestIdealizedSearch:
    def test_search_matches_brute_force(self):
        # D = 0 leaves one valid pattern per node, so search probes the
        # children by pattern; D = 1 makes every pattern valid, so search
        # walks the children.  The values between mix both.
        rng = np.random.default_rng(23)
        dists = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                 Fraction(1, 2), Fraction(1)]
        for ell in range(1, 5):
            for d in dists:
                for trial in range(4):
                    cfg = LevelConfig(ell=ell, delta=0.01)
                    tree = grow_idealized(rng, cfg, d, steps=int(rng.integers(5, 120)))
                    for _ in range(12):
                        wlen = int(rng.integers(1, 4 * ell + 2))
                        window = BitSequence(int(rng.integers(0, 1 << wlen)), wlen)
                        got, give_up, sizes = search_widths(tree, window)
                        case = (ell, d, trial, window.to01())
                        assert not give_up, case
                        assert sizes == brute_match_counts(tree, window, d), case
                        assert got is brute_deepest_match(tree, window, d), case

    def test_short_window_returns_nothing(self):
        tree = idealized_build_init(small_config(), QUARTER, HALF)
        tree.fill_level1(0)
        window = BitSequence.from_str("0")
        best, give_up = tree.search(window.value, window.length)
        assert best is None and not give_up

    def test_tie_breaks_by_admission_order(self):
        tree = idealized_build_init(small_config(), 1, HALF)  # D = 1: everything matches
        tree.fill_level1(0b00)
        window = BitSequence.from_str("11")
        best, _ = tree.search(window.value, window.length)
        assert best is members(tree, 1)[0]  # oldest admitted wins

    def test_frontier_records_members_per_level(self):
        tree = idealized_build_init(small_config(), 1, HALF)
        tree.fill_level1(0)
        window = BitSequence.from_str("10")
        assert search_widths(tree, window)[2] == {1: 4}  # D = 1: all four level-1 codelets

    def test_widest_keeps_each_levels_maximum_over_searches(self):
        tree = idealized_build_init(small_config(), 1, HALF)  # D = 1: everything matches
        assert tree.widest == [0, 0]
        tree.fill_level1(0)
        tree.search(0b10, 2)
        assert tree.widest == [0, 4]
        tree.widest[1] = 7  # a wider past search is never lowered
        tree.search(0b01, 2)
        assert tree.widest == [0, 7]
        tree.promote(members(tree, 1)[0], 0b11)  # a new level gets its own entry
        assert tree.widest == [0, 7, 0]
        tree.search(0b0110, 4)
        assert tree.widest == [0, 7, 1]

    def test_give_up_on_a_flooded_frontier(self):
        # D = 1 with huge caps: level-3 frontier has 64^3 = 262144 live
        # codelets, beyond (3 * 6)^4 / delta = 104976
        tree = idealized_build_init(LevelConfig(ell=6, delta=1.0), 1, HALF)
        tree.caps.update({1: 64, 2: 4096, 3: 262144})
        tree.fill_level1(0)
        for node in members(tree, 1):
            for ext in range(64):
                tree.promote(node, ext)
        for node in members(tree, 2):
            for ext in range(64):
                tree.promote(node, ext)
        window = BitSequence.zeros(24)
        _, give_up, sizes = search_widths(tree, window)
        assert give_up
        assert sizes[3] == 262144


def memo_tables(tree: CodebookTree) -> list:
    """The continuation tables a dictionary's searches have read, by level."""
    return [table for by_mism, _ in tree._continuations for table in by_mism if table is not None]


def searched(ell: int, dist, delta: float) -> CodebookTree:
    """A dictionary whose one search reads tables at levels 0 and 1."""
    tree = idealized_build_init(small_config(ell=ell, delta=delta), dist, HALF)
    tree.fill_level1(0b101)
    tree.promote(members(tree, 1)[0], 0b011)
    tree.search(0b011101, 2 * ell)
    return tree


class TestContinuationMemo:
    def test_dictionaries_differing_only_in_delta_share_tables(self):
        d = Fraction(2, 7)
        first, second = searched(3, d, 0.37), searched(3, d, 0.5)
        shared = memo_tables(first)
        assert len(shared) == len(first._continuations) == 2
        assert len(memo_tables(second)) == 2
        assert all(a is b for a, b in zip(shared, memo_tables(second)))
        # another step or another D reads tables of its own
        for other in (searched(4, d, 0.37), searched(3, Fraction(2, 9), 0.37)):
            assert memo_tables(other)
            assert not any(a is b for a in memo_tables(other) for b in shared)

    def test_cleared_memo_rebuilds_equal_tables(self):
        d = Fraction(3, 8)
        before = searched(3, d, 0.37)
        dictionary._continuation.cache_clear()
        after = searched(3, d, 0.37)
        assert memo_tables(after) == memo_tables(before)
        assert not any(a is b for a, b in zip(memo_tables(after), memo_tables(before)))
        assert dictionary._continuation.cache_info().currsize == len(memo_tables(after))

    def test_decoding_leaves_the_memo_untouched(self):
        # only search reads tables, and the decoder never searches, so no
        # stream, valid or hostile, can add, look up or evict one
        streams = [raw for raw in STREAMS
                   if Header.unpack(raw).variant == VARIANT_IDEALIZED]
        streams += [hostile_wide_step_stream(dist) for dist in HOSTILE_DISTS]
        assert len(streams) == 5
        before = dictionary._continuation.cache_info()
        for raw in streams:
            try:
                decode(raw)
            except CorruptStream:
                pass
            assert dictionary._continuation.cache_info() == before


class TestLevelConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            LevelConfig(ell=0)
        with pytest.raises(ValueError):
            LevelConfig(ell=17)
        with pytest.raises(ValueError):
            LevelConfig(ell=2, delta=0.0)
