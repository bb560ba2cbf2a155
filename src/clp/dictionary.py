"""Codelet dictionaries.

Two constructions share this module.  The practical dictionary is a
complete binary trie whose leaves are the current codelets; parsing a
phrase replaces the chosen leaf with its two one-symbol extensions.
The idealized dictionary grows in levels: codelets live at depths that
are multiples of a step ell, each level holds at most a computed
number of codelets, and search walks a frontier of partial matches one
level at a time down from a never-admitted root, probing at each node
only the segments within the distortion budget.  It starts empty, and
a codelet exists only once it has been admitted: escapes admit level-1
codelets, promotions admit deeper ones.  CodebookTree alone decides
admission: promote returns None when it admits nothing, and the
level-1 fill walks only the codelets within the distortion budget of
the escaped window, once per distinct window.  Each codelet is listed
once, in admission order; per level the dictionary keeps only a count.

Codelet bit strings are kept as plain integers (symbol i = bit i), so
the hot paths never touch BitSequence objects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .bits import BitSequence
from .errors import NotALeaf
from .matching import (
    MatchRelation,
    canonical_type_sequence,
    match_probability_exact,
)
from .rd_math import DistortionBudget, SourceModel, target_reproduction_type

__all__ = [
    "PracticalNode",
    "LevelNode",
    "LevelConfig",
    "CodebookTree",
    "init_practical",
    "level_size",
    "target_reproduction_type",
    "idealized_build_init",
    "lex_key",
    "default_step",
]


# Largest level step: the per-step tables hold 2^ell entries, and
# default_step never exceeds 6 for inputs shorter than 2^64 symbols.
_MAX_STEP = 16


def lex_key(bits: int, length: int) -> int:
    """Order key matching string comparison of the spelled codelet."""
    out = 0
    for i in range(length):
        out = (out << 1) | ((bits >> i) & 1)
    return out


def default_step(n: int) -> int:
    """Default level step: max(2, ceil(log2 log2 n))."""
    if n < 4:
        return 2
    return max(2, math.ceil(math.log2(math.log2(n))))


def level_size(L: int, src, dist) -> int:
    """Target codelet count at depth L: ceil(L^2 / p_L), exactly.

    p_L is the prefix-wise match probability of the canonical codelet of
    the rounded optimal reproduction type at length L.  Callers cap the
    result by the number of candidates the construction can actually
    offer at that depth.  Results are cached by the exact (L, p, D), so
    dictionaries grown with the same parameters share one computation.
    """
    if L <= 0:
        raise ValueError("depth must be positive")
    return _level_size(L, SourceModel.of(src).p, DistortionBudget.of(dist).d)


@functools.lru_cache(maxsize=1024)
def _level_size(L: int, p: Fraction, d: Fraction) -> int:
    q = target_reproduction_type(p, d)
    y = canonical_type_sequence(L, q)
    p_L = match_probability_exact(y, d, p)
    if p_L == 0:
        raise ValueError("canonical codelet has zero match probability")
    target = Fraction(L * L) / p_L
    return -(-target.numerator // target.denominator)


# -- practical trie --------------------------------------------------


class PracticalNode:
    """A trie node; a leaf is a current codelet.

    max_leaf_depth is the depth of the deepest leaf in the node's
    subtree, and budget = floor(D * max_leaf_depth) the most mismatches
    any leaf below it may carry, so find_matches prunes with one
    integer comparison.  The tree sets both (see extend_codelet).
    """

    __slots__ = ("bits", "depth", "children", "max_leaf_depth", "ones", "budget")

    def __init__(self, bits: int, depth: int, budget: int):
        self.bits = bits
        self.depth = depth
        self.children: Optional[List["PracticalNode"]] = None
        self.max_leaf_depth = depth
        self.ones = bits.bit_count()
        self.budget = budget

    def sequence(self) -> BitSequence:
        return BitSequence(self.bits, self.depth)

    def __repr__(self) -> str:
        kind = "leaf" if self.children is None else "node"
        return f"<{kind} {BitSequence(self.bits, self.depth).to01()}>"


# -- idealized level structure ---------------------------------------


class LevelNode:
    """An admitted codelet; ordinal is its admission rank (slot - 1).

    CodebookTree lists it once, in admitted, and counts it in
    sizes[level].  children maps each admitted one-level extension to
    its node.  It is the empty tuple until CodebookTree.promote admits
    the first one and makes the dict, since most codelets never get one.
    """

    __slots__ = ("bits", "level", "ordinal", "children")

    def __init__(self, bits: int, level: int, ordinal: int):
        self.bits = bits
        self.level = level
        self.ordinal = ordinal
        self.children: Union[Dict[int, "LevelNode"], Tuple[()]] = ()

    def sequence(self, ell: int) -> BitSequence:
        return BitSequence(self.bits, self.level * ell)

    def __repr__(self) -> str:
        return f"<level {self.level} codelet #{self.ordinal} bits={self.bits:b}>"


@dataclass(frozen=True)
class LevelConfig:
    """Shape of the idealized dictionary: its level step and the search's
    give-up slack.  Level caps are computed from (ell, p, D) on both
    sides, and only the encoder searches, so the header decodes alone.

    delta rarely changes a stream.  A frontier of depth L = k * ell bits
    holds at most 2^L distinct codelets, and search gives up only when it
    holds more than L^4 / delta >= L^4 of them.  2^L <= L^4 for every L
    from 2 to 16, so no search gives up at those depths, whatever delta
    is; at L = 1 a give-up needs ell = 1, D = 1 and delta > 1/2, and
    deeper than 16 bits it needs more than 17^4 = 83,521 matching
    codelets on one level."""

    ell: int
    delta: float = 0.01

    def __post_init__(self):
        if not 1 <= self.ell <= _MAX_STEP:
            raise ValueError(f"step must lie in [1, {_MAX_STEP}]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


# (steps, valid): steps[d] is the mismatch count after a segment whose
# XOR against the window is d, or None when that breaks the budget;
# valid lists the d that keep it, in increasing order
_Continuation = Tuple[Tuple[Optional[int], ...], Tuple[int, ...]]


# a table holds 2^ell entries and outlives its dictionaries; 48 tables
# cover the working set of every lemma check and of large encodes
@functools.lru_cache(maxsize=48)
def _continuation(ell: int, dn: int, dd: int, base: int, entering_mism: int) -> _Continuation:
    """Each ell-bit mismatch pattern continuing a match, if in budget.

    Entry d answers: starting at depth base with entering_mism
    mismatches, does appending a segment whose XOR against the window
    is d keep every prefix within dn/dd of its length, and with how
    many mismatches?  Dictionaries with the same step and D share it.
    """
    steps: List[Optional[int]] = []
    for d in range(1 << ell):
        m = entering_mism
        for j in range(1, ell + 1):
            m += (d >> (j - 1)) & 1
            if m * dd > dn * (base + j):
                m = None
                break
        steps.append(m)
    return tuple(steps), tuple(d for d, m in enumerate(steps) if m is not None)


class CodebookTree:
    """Either dictionary behind one handle: a LevelConfig makes the
    idealized level dictionary, no config the practical trie."""

    def __init__(self, dist, cfg: Optional[LevelConfig] = None):
        self.dist = DistortionBudget.of(dist)
        self._dn, self._dd = self.dist.num, self.dist.den
        if cfg is None:
            budget = self._dn // self._dd  # floor(D * 1)
            self.root = PracticalNode(0, 0, budget)
            self.root.children = [PracticalNode(0, 1, budget), PracticalNode(1, 1, budget)]
            self.root.max_leaf_depth = 1
            return
        self.cfg, self.ell = cfg, cfg.ell
        self.sizes: List[int] = [0, 0]  # codelets per level, index 0 unused
        # the empty codelet, never admitted: its children are level 1
        self.root = LevelNode(0, 0, -1)
        self.level1: Dict[int, LevelNode] = {}  # admitted, by bits
        self.root.children = self.level1
        self.admitted: List[LevelNode] = []  # every codelet, admission order
        self.caps: Dict[int, int] = {}
        self._filled: set = set()  # windows fill_level1 has already walked
        # widest[k]: the largest level-k frontier any search has seen
        self.widest: List[int] = [0, 0]
        # appended by the first search to reach level k: (continuations
        # from level k by entering mismatch count, None until first
        # needed; the widest level k + 1 frontier search accepts)
        self._continuations: List[Tuple[List[Optional[_Continuation]], float]] = []

    # -- practical side --------------------------------------------------

    def leaves(self) -> List[PracticalNode]:
        out: List[PracticalNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                out.append(node)
            else:
                stack.extend(node.children)
        return out

    def leaf_strings(self) -> set:
        return {n.sequence().to01() for n in self.leaves()}

    def find_matches(self, window: BitSequence, relation: MatchRelation) -> List[PracticalNode]:
        """Leaves matching a prefix of the window, depth at most its length.

        One walk serves both relations; only the test that keeps a child
        differs.  Full-codelet search keeps a child while its running
        mismatch count m is within both child.budget and
        floor(D * len(window)): since floor(D * min(a, b)) is
        min(floor(D * a), floor(D * b)), that is the budget of
        min(deepest leaf below the child, len(window)).  Prefix-wise
        search keeps a child while m is within floor(D * child depth).
        A leaf's own test is the one that kept it, so every leaf reached
        is a match.  The walk relies on extend_codelet building
        children = [c0, c1]: child i carries bit i at depth node.depth,
        so stepping to it adds bit ^ i mismatches.

        The order is that of a stack walk pushing c0 then c1 and popping
        the top: select_codelet's tie rule may depend on it.  Since that
        walk pops next the child it pushed last, this one descends
        straight into c1 when kept (else c0), and stacks only a kept c0
        whose sibling it entered first.
        """
        wlen = window.length
        if wlen == 0:
            return []
        wval = window.value
        dn, dd = self._dn, self._dd
        wb = dn * wlen // dd
        prefix_wise = relation == MatchRelation.PREFIX_WISE
        out: List[PracticalNode] = []
        append = out.append
        stack: List[Tuple[PracticalNode, int]] = []
        pop, push = stack.pop, stack.append
        node, m = self.root, 0
        while True:
            children = node.children
            if children is None:
                append(node)
            else:
                depth = node.depth
                if depth < wlen:  # else the leaves below outrun the window
                    c0, c1 = children
                    if prefix_wise:
                        b0 = b1 = dn * (depth + 1) // dd
                    else:
                        b0, b1 = c0.budget, c1.budget
                    # the child that agrees with the window keeps m, which
                    # is within wb already; the other one adds a mismatch
                    if (wval >> depth) & 1:
                        m0 = m + 1
                        if m <= b1:
                            if m0 <= b0 and m0 <= wb:
                                push((c0, m0))
                            node = c1
                            continue
                        if m0 <= b0 and m0 <= wb:
                            node, m = c0, m0
                            continue
                    else:
                        m1 = m + 1
                        if m1 <= b1 and m1 <= wb:
                            if m <= b0:
                                push((c0, m))
                            node, m = c1, m1
                            continue
                        if m <= b0:
                            node = c0
                            continue
            if not stack:
                return out
            node, m = pop()

    def extend_codelet(self, leaf: PracticalNode) -> Tuple[PracticalNode, PracticalNode]:
        """Split a leaf into its two one-symbol extensions, c0 then c1.

        The new leaves get budget floor(D * (depth + 1)), and every node
        on the path from the root whose max_leaf_depth the split raises
        gets the same budget with it.
        """
        if leaf.children is not None:
            raise NotALeaf(f"{leaf!r} already has children")
        d = leaf.depth
        d1 = d + 1
        budget = self._dn * d1 // self._dd
        c0 = PracticalNode(leaf.bits, d1, budget)
        c1 = PracticalNode(leaf.bits | (1 << d), d1, budget)
        leaf.children = [c0, c1]
        # refresh subtree depth bounds and budgets down the path
        node = self.root
        bits = leaf.bits
        for i in range(d):
            if node.max_leaf_depth <= d:
                node.max_leaf_depth = d1
                node.budget = budget
            node = node.children[(bits >> i) & 1]
        leaf.max_leaf_depth = d1
        leaf.budget = budget
        return c0, c1

    # -- idealized side ----------------------------------------------

    def cap(self, level: int, src) -> int:
        """Most codelets a level may hold, frozen in caps the first time it
        is needed: level_size at the level's depth, capped by what the
        level above offers (2^ell at level 1, 2^ell per codelet above)."""
        got = self.caps.get(level)
        if got is not None:
            return got
        target = level_size(level * self.ell, src, self.dist)
        avail = (1 << self.ell) if level == 1 else self.cap(level - 1, src) << self.ell
        self.caps[level] = value = min(target, avail)
        return value

    def max_level(self) -> int:
        return len(self.sizes) - 1

    def _admit(self, bits: int, level: int) -> LevelNode:
        """The one place codelets are created: next ordinal, counted in its level.

        A codelet is admitted at most one level below the deepest
        existing one, so level <= len(sizes).
        """
        admitted, sizes = self.admitted, self.sizes
        node = LevelNode(bits, level, len(admitted))
        if level == len(sizes):
            sizes.append(0)
            self.widest.append(0)
        sizes[level] += 1
        admitted.append(node)
        return node

    def fill_level1(self, window_bits: int, src) -> List[LevelNode]:
        """Admit level-1 codelets prefix-wise matching the window, up to cap.

        Walks codelets depth first, 0 before 1 (lex order), dropping a
        prefix once its mismatches exceed the budget.  A kept prefix
        always completes by copying the window, so the walk costs
        O(ell * cap) rather than a scan of all 2^ell patterns.  A window
        seen before admits nothing: its first fill either filled level 1
        or admitted every match, and the cap froze then.  Like promote,
        it reads a frozen cap from caps, so src is read only by the
        first fill.
        """
        if window_bits in self._filled:
            return []
        self._filled.add(window_bits)
        cap = self.caps.get(1)
        if cap is None:
            cap = self.cap(1, src)
        room = cap - self.sizes[1]
        added: List[LevelNode] = []
        stack = [(0, 0, 0)]  # (bits, length, mismatches)
        while stack and len(added) < room:
            bits, length, m = stack.pop()
            if length < self.ell:
                w = (window_bits >> length) & 1
                for b in (1, 0):  # pushed last, popped first: 0 before 1
                    m2 = m + (b ^ w)
                    if m2 * self._dd <= self._dn * (length + 1):
                        stack.append((bits | (b << length), length + 1, m2))
            elif bits not in self.level1:
                added.append(self._admit(bits, 1))
                self.level1[bits] = added[-1]
        return added

    def promote(self, leaf: LevelNode, extension: int, src) -> Optional[LevelNode]:
        """Admit one extension of a codelet to the next level.

        Returns the new node, or None when the extension is already
        admitted or the next level is full.  The next level's cap
        freezes when first asked, so it is asked only for a new
        extension, and src is read only while that cap is unfrozen:
        once frozen it is read from caps without calling cap().  The
        first extension admitted below a codelet creates its children
        dict.
        """
        children = leaf.children
        if extension in children:
            return None
        level = leaf.level
        nxt = level + 1
        cap = self.caps.get(nxt)
        if cap is None:
            cap = self.cap(nxt, src)
        if nxt < len(self.sizes) and self.sizes[nxt] >= cap:
            return None
        node = self._admit(leaf.bits | (extension << (level * self.ell)), nxt)
        if children:
            children[extension] = node
        else:
            leaf.children = {extension: node}
        return node

    def search(self, window_bits: int, window_len: int) -> Tuple[Optional[LevelNode], bool]:
        """Oldest of the deepest codelets prefix-wise matching the window.

        Returns (best, give_up); best is None when no codelet matches.
        Builds the frontier of (codelet, mismatches) pairs level by
        level, starting from the never-admitted root whose children are
        level 1, down to depth floor(window_len / ell) levels.  Each
        frontier node probes only in-budget segments: it looks up each
        valid mismatch pattern among its children when there are fewer
        patterns than children, and otherwise checks each child against
        the pattern table.  The tables come from the memoized
        _continuation, read once per (level, mismatches) into this
        dictionary's own per-level list; only search reads them, so
        decoding never builds one.  Each level's frontier size raises
        widest[level] when it is larger, so the widest frontiers of all
        searches are kept without a record per call.  Sets give_up and
        stops descending when a level-k frontier outgrows
        (k * ell)^4 / delta, so check_frontier_growth counts give-ups
        alone.  That frontier holds at most 2^(k * ell) distinct codelets
        and the bound is at least (k * ell)^4, so no search gives up at
        depths of 2 to 16 bits (see LevelConfig).  The oldest node is the
        one with the least ordinal; a one-node frontier is its own.
        """
        ell = self.ell
        mask = (1 << ell) - 1
        tables = self._continuations
        widest = self.widest
        current: List[Tuple[LevelNode, int]] = [(self.root, 0)]
        level = 0
        depth = window_len // ell  # levels the window can hold
        give_up = False
        while level < depth:
            seg = (window_bits >> (level * ell)) & mask
            if level == len(tables):  # no search went this deep yet
                tables.append(([None] * (level * ell + 1),
                               ((level + 1) * ell) ** 4 / self.cfg.delta))
            by_mism, limit = tables[level]
            nxt: List[Tuple[LevelNode, int]] = []
            for node, m in current:
                children = node.children
                if not children:
                    continue
                got = by_mism[m]
                if got is None:
                    got = by_mism[m] = _continuation(ell, self._dn, self._dd, level * ell, m)
                steps, valid = got
                if len(valid) < len(children):
                    for d in valid:
                        child = children.get(seg ^ d)
                        if child is not None:
                            nxt.append((child, steps[d]))
                else:
                    for ext, child in children.items():
                        m2 = steps[ext ^ seg]
                        if m2 is not None:
                            nxt.append((child, m2))
            if not nxt:
                break
            level += 1
            current = nxt
            size = len(nxt)
            if size > widest[level]:  # a level-k frontier holds level-k codelets
                widest[level] = size
            if size > limit:
                give_up = True
                break
        if level == 0:
            return None, give_up
        best = current[0][0]
        if len(current) > 1:
            for node, _ in current:
                if node.ordinal < best.ordinal:
                    best = node
        return best, give_up


# -- constructors ------------------------------------------------------


def init_practical(dist) -> CodebookTree:
    """Practical dictionary at birth: the two single-symbol codelets."""
    return CodebookTree(dist)


def idealized_build_init(cfg: LevelConfig, dist) -> CodebookTree:
    """Leveled dictionary at birth: empty until the first escape."""
    return CodebookTree(dist, cfg)

