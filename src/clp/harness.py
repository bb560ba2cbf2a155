"""Monte Carlo verification of the covering lemmas and rate experiments.

Each check_* function runs one statistical or exact verification and
returns a LemmaReport whose pass verdict recomputes from its stored
fields.  rate_sweep measures coding rates over a grid of input lengths
and seeds and emits CSV rows.  Everything is reproducible bit for bit
from (config, seed): randomness comes from counter-based Philox
streams keyed by the seed and a per-use spawn path.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bits import BitSequence, bernoulli
from .codec import (
    BitWriter,
    EncodeStats,
    _encoder_step,
    _idealized_parse,
    coding_rate,
    encode_idealized,
)
from .dictionary import (
    _MAX_STEP,
    LevelConfig,
    LevelNode,
    default_step,
    idealized_build_init,
    level_size,
)
from .errors import ZeroRate
from .matching import (
    ball_probability_exact,
    canonical_type_sequence,
    cycle_lemma_lower_bound_exact,
    match_probability_exact,
    matches_prefixwise,
)
from .rd_math import DistortionBudget, SourceModel, rate_distortion, target_reproduction_type

__all__ = [
    "ExperimentConfig",
    "LemmaReport",
    "CHECKS",
    "check_match_count_mean",
    "check_match_count_second_moment",
    "check_coverage_probability",
    "check_symmetry",
    "check_cycle_lemma",
    "check_frontier_growth",
    "check_short_phrases",
    "check_ball_intersection",
    "random_codebook_baseline",
    "run_checks",
    "rate_sweep",
    "sweep_step",
]

SLACK_SIGMAS = 3.0
_EPS = 1e-12


def _words(text: str) -> Tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(w) for w in _words(text))


# config-file key -> (ExperimentConfig field, parser of the value text)
_CONFIG_KEYS = {
    "p": ("p", Fraction),
    **{k: ("dist", Fraction) for k in ("d", "dist", "distortion")},
    **{k: ("n_values", _ints) for k in ("n", "n_values")},
    **{k: (k, int) for k in
       ("ell", "trials", "seed", "workers", "build_count", "build_n", "depth")},
    "delta": ("delta", float),
    "out": ("out", str),
    "checks": ("checks", _words),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the harness; mirrors the flat key=value config format.

    ell = 0 picks a step per use: check_frontier_growth takes
    default_step(max n_values), rate_sweep takes sweep_step(n) per n,
    and the other level checks take the smallest allowed step, 2.
    """

    p: Fraction = Fraction(1, 2)
    dist: Fraction = Fraction(1, 4)
    ell: int = 2
    delta: float = 0.01
    n_values: Tuple[int, ...] = (1 << 14, 1 << 16, 1 << 18)
    trials: int = 10000
    seed: int = 7
    out: Optional[str] = None
    checks: Tuple[str, ...] = ("all",)
    workers: int = 1
    build_count: int = 8
    build_n: int = 4096
    depth: int = 4

    def __post_init__(self):
        # any accepted form of p and D is stored as its exact Fraction
        object.__setattr__(self, "p", SourceModel.of(self.p).p)
        object.__setattr__(self, "dist", DistortionBudget.of(self.dist).d)
        if not 0 <= self.ell <= _MAX_STEP:
            raise ValueError(f"ell must lie in [0, {_MAX_STEP}] (0 = auto)")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n values must be positive")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit an unsigned 64-bit word")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.build_count < 1 or self.build_n < 1:
            raise ValueError("builder settings must be positive")
        if self.depth < 1:
            raise ValueError("depth must be positive")

    @property
    def step(self) -> int:
        """The level step of every lemma check but frontier growth."""
        return self.ell if self.ell >= 1 else 2

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Flat key = value text; '#' starts a comment.  Each field may be
        set once, under any of its keys."""
        values: Dict[str, object] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, _, text = line.partition("=")
                key = key.strip().lower()
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                name, parse = _CONFIG_KEYS[key]
                if name in values:
                    raise ValueError(f"{path}:{lineno}: {name} set twice")
                values[name] = parse(text.strip())
        return cls(**values)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification, self-consistent by construction.

    direction says how estimate relates to bound for a pass: "le"
    (estimate may not exceed bound plus slack), "ge" (may not fall
    short of bound minus slack), or "abs" (|estimate - bound| within
    slack).  Slack is SLACK_SIGMAS standard errors; deterministic
    checks carry std_error 0 and therefore demand the exact relation.
    """

    lemma_id: str
    estimate: float
    bound: float
    samples: int
    std_error: float
    direction: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        if self.direction not in ("le", "ge", "abs"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.passed != self.expected_pass():
            raise ValueError("pass verdict inconsistent with stored fields")

    @staticmethod
    def verdict(estimate: float, bound: float, std_error: float, direction: str) -> bool:
        slack = SLACK_SIGMAS * std_error + _EPS
        if direction == "le":
            return estimate <= bound + slack
        if direction == "ge":
            return estimate >= bound - slack
        return abs(estimate - bound) <= slack

    def expected_pass(self) -> bool:
        return LemmaReport.verdict(self.estimate, self.bound,
                                   self.std_error, self.direction)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.lemma_id}: {verdict} estimate={self.estimate:.6g} "
                f"bound={self.bound:.6g} se={self.std_error:.3g} n={self.samples}")


def _report(lemma_id: str, estimate: float, bound: float, samples: int,
            std_error: float, direction: str, details: Dict[str, object]) -> LemmaReport:
    return LemmaReport(lemma_id=lemma_id, estimate=estimate, bound=bound,
                       samples=samples, std_error=std_error, direction=direction,
                       passed=LemmaReport.verdict(estimate, bound, std_error, direction),
                       details=details)


def _rng(seed: int, *path: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


def _mean_se(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and its standard error, sd / sqrt(count)."""
    m = sum(values) / len(values)
    if len(values) < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var) / math.sqrt(len(values))


def _run_part(fn, items) -> list:
    return [fn(item) for item in items]


def _pool_map(fn, items: Sequence, workers: int) -> list:
    """[fn(item) for item in items], on up to `workers` processes.

    At most one process per item and per core is started.  Each takes
    one contiguous part of the items.  Results come back in item order,
    and a failure raises what the serial loop would raise first, so
    nothing a caller sees depends on the process count.  fn and the
    items must pickle.  Workers come from the platform's default start
    method: the harness starts no threads, and a spawned worker would
    first re-import numpy and clp, which takes longer than a
    desk-scale check.
    """
    procs = min(workers, len(items), os.cpu_count() or 1)
    if procs <= 1:
        return _run_part(fn, items)
    cuts = [len(items) * k // procs for k in range(procs + 1)]
    parts = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=procs) as pool:
        return [y for part in pool.map(partial(_run_part, fn), parts) for y in part]


def _trial(fn, seed: int, tag: int, t: int):
    return fn(_rng(seed, tag, t), t)


def _trials(cfg: ExperimentConfig, tag: int, count: int, fn) -> list:
    """fn(rng, t) for t in range(count), in trial order.

    Trial t draws from the Philox stream keyed (cfg.seed, tag, t), so a
    report is the same on any number of cfg.workers.  fn must be a
    module-level function (or a partial of one) so that it pickles.
    """
    return _pool_map(partial(_trial, fn, cfg.seed, tag), range(count), cfg.workers)


# -- dictionary growth shared by the level checks --------------------------


def _encode_fresh(cfg: ExperimentConfig, rng, n: int, ell: int):
    """Stats of one idealized encode of a fresh n-bit Bernoulli(p) input."""
    x = bernoulli(rng, n, float(cfg.p))
    lc = LevelConfig(ell=ell, delta=cfg.delta)
    return encode_idealized(x, cfg.dist, cfg.p, lc).stats


def _grow(cfg: ExperimentConfig, levels: Tuple[int, ...], rng, t) -> List[List[BitSequence]]:
    tree = _encode_fresh(cfg, rng, cfg.build_n, cfg.step).tree
    return [_live_sequences(tree, level, cfg.step) for level in levels]


def _grown_levels(cfg: ExperimentConfig, tag: int, levels: Tuple[int, ...]):
    """Per build, the live sequences at `levels` of a dictionary grown by
    encoding a fresh input."""
    return _trials(cfg, tag, cfg.build_count, partial(_grow, cfg, levels))


def _live_sequences(tree, level: int, ell: int) -> List[BitSequence]:
    return [node.sequence(ell) for node in tree.admitted if node.level == level]


def _ball_radius(dist: Fraction, length: int) -> int:
    return (dist.numerator * length) // dist.denominator


def _level_cell(cfg: ExperimentConfig) -> Tuple[int, int, int, Fraction]:
    """(ell, depth, level, q) of a level check, where depth must be a
    whole number of levels and q is the target reproduction type."""
    ell, depth = cfg.step, cfg.depth
    if depth % ell:
        raise ValueError("depth must be a whole number of levels")
    return ell, depth, depth // ell, target_reproduction_type(cfg.p, cfg.dist)


def _type_class(q: Fraction, length: int, unrealizable: str) -> List[int]:
    """Every length-bit value with q * length ones, in increasing order;
    raises ValueError(unrealizable) when q * length is not whole.  Each
    check keeps its own message, since reports record what a check
    raises."""
    ones = q * length
    if ones.denominator != 1:
        raise ValueError(unrealizable)
    return [v for v in range(1 << length) if v.bit_count() == ones.numerator]


# -- checks ----------------------------------------------------------------


def _match_count(cfg: ExperimentConfig, live, rng, t) -> int:
    x = bernoulli(rng, cfg.depth, float(cfg.p))
    db = DistortionBudget.of(cfg.dist)  # once per trial, not once per codelet
    return sum(1 for y in live[t % cfg.build_count] if matches_prefixwise(x, y, db))


def check_match_count_mean(cfg: ExperimentConfig) -> LemmaReport:
    """Mean live-codelet match count against size times match probability.

    Counts prefix-wise matches of fresh inputs at one dictionary level
    and compares the empirical mean of N with the realized live count
    times the exact per-codelet match probability.
    """
    ell, depth, level, q = _level_cell(cfg)
    canon = canonical_type_sequence(depth, q)
    p_match = match_probability_exact(canon, cfg.dist, cfg.p)
    live = [levels[0] for levels in _grown_levels(cfg, 0, (level,))]
    counts: List[float] = []
    diffs: List[float] = []
    matches = _trials(cfg, 1, cfg.trials, partial(_match_count, cfg, live))
    for t, n_match in enumerate(matches):
        counts.append(float(n_match))
        diffs.append(n_match - len(live[t % cfg.build_count]) * float(p_match))
    mean_n, _ = _mean_se(counts)
    mean_diff, se = _mean_se(diffs)
    bound = mean_n - mean_diff  # = mean over trials of M * p
    return _report(
        "match-count-mean", mean_n, bound, cfg.trials, se, "abs",
        {
            "depth": depth, "level": level, "ell": ell,
            "match_probability": str(p_match),
            "target_size": level_size(depth, cfg.p, cfg.dist),
            "live_counts": sorted({len(s) for s in live}),
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def _ball_count(x: BitSequence, seqs: List[BitSequence], prefix_len: int,
                radius: int) -> int:
    xw = x.window(0, prefix_len)
    hits = 0
    for y in seqs:
        if (y.value ^ xw).bit_count() <= radius:
            hits += 1
    return hits


def _ball_counts(cfg: ExperimentConfig, grown, rng, t) -> Tuple[int, int]:
    """Ball hits of one fresh depth + ell bit input among the level-L and
    level-(L+1) sequences of build t mod build_count."""
    lows, highs = grown[t % cfg.build_count]
    depth, deeper = cfg.depth, cfg.depth + cfg.step
    x = bernoulli(rng, deeper, float(cfg.p))
    return (_ball_count(x, lows, depth, _ball_radius(cfg.dist, depth)),
            _ball_count(x, highs, deeper, _ball_radius(cfg.dist, deeper)))


def check_match_count_second_moment(cfg: ExperimentConfig) -> LemmaReport:
    """Second moment of the ball match count across consecutive levels.

    The bound relates E N^2 one level up to the level-L moments scaled
    by the squared ratio of expected counts, with ball membership as
    the match event and exact ball probabilities in the ratio.
    """
    ell, depth, level, q = _level_cell(cfg)
    deeper = depth + ell
    p_lo = ball_probability_exact(canonical_type_sequence(depth, q), cfg.dist, cfg.p)
    p_hi = ball_probability_exact(canonical_type_sequence(deeper, q), cfg.dist, cfg.p)
    grown = _grown_levels(cfg, 2, (level, level + 1))
    sq_hi: List[float] = []
    rhs: List[float] = []
    n_lo_all: List[float] = []
    n_hi_all: List[float] = []
    hits = _trials(cfg, 3, cfg.trials, partial(_ball_counts, cfg, grown))
    for t, (n_lo, n_hi) in enumerate(hits):
        lows, highs = grown[t % cfg.build_count]
        m_lo, m_hi = len(lows), len(highs)
        if m_lo == 0 or p_lo == 0:
            raise ValueError("level-L expected count vanishes; pick a denser cell")
        ratio = (m_hi * p_hi) / (m_lo * p_lo)
        sq_hi.append(float(n_hi * n_hi))
        rhs.append(float((n_lo * n_lo + n_lo) * ratio * ratio))
        n_lo_all.append(float(n_lo))
        n_hi_all.append(float(n_hi))
    est, se_est = _mean_se(sq_hi)
    bound, se_bound = _mean_se(rhs)
    mean_lo, _ = _mean_se(n_lo_all)
    mean_hi, _ = _mean_se(n_hi_all)
    return _report(
        "match-count-second-moment", est, bound, cfg.trials, se_est + se_bound, "le",
        {
            "depth": depth, "deeper": deeper, "ell": ell,
            "ball_probability_low": str(p_lo), "ball_probability_high": str(p_hi),
            "mean_low_count": mean_lo, "mean_high_count": mean_hi,
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def check_coverage_probability(cfg: ExperimentConfig) -> LemmaReport:
    """Coverage recursion: match frequency one level up is bounded below.

    P(N_{L+ell} > 0) >= f / (f + 1/(M p)) with f the level-L match
    frequency, M the realized live count, and p the exact ball
    probability.
    """
    ell, depth, level, q = _level_cell(cfg)
    deeper = depth + ell
    p_lo = ball_probability_exact(canonical_type_sequence(depth, q), cfg.dist, cfg.p)
    grown = _grown_levels(cfg, 4, (level, level + 1))
    hit_lo: List[float] = []
    hit_hi: List[float] = []
    m_lo_seen: List[float] = []
    hits = _trials(cfg, 5, cfg.trials, partial(_ball_counts, cfg, grown))
    for t, (n_lo, n_hi) in enumerate(hits):
        hit_lo.append(1.0 if n_lo else 0.0)
        hit_hi.append(1.0 if n_hi else 0.0)
        m_lo_seen.append(float(len(grown[t % cfg.build_count][0])))
    f_lo, se_lo = _mean_se(hit_lo)
    f_hi, se_hi = _mean_se(hit_hi)
    mean_m, _ = _mean_se(m_lo_seen)
    inv = 1.0 / (mean_m * float(p_lo))
    bound = f_lo / (f_lo + inv) if f_lo > 0 else 0.0
    return _report(
        "coverage-probability", f_hi, bound, cfg.trials, se_hi + se_lo, "ge",
        {
            "depth": depth, "deeper": deeper, "ell": ell,
            "frequency_low": f_lo, "mean_live_low": mean_m,
            "ball_probability_low": str(p_lo),
            "p": str(cfg.p), "D": str(cfg.dist),
        })


class _Level1Frozen(Exception):
    """Ends a symmetry build's parse once its level 1 can no longer change."""


def _frozen_level1(x: BitSequence, dist, src, lc: LevelConfig, cap: int) -> Dict[int, LevelNode]:
    """Level 1 of the dictionary encode_idealized(x, dist, src, lc) grows
    when level 1 holds at most cap codelets (cap <= 2^ell), parsed only
    until that level is frozen (see check_symmetry)."""
    tree = idealized_build_init(lc, dist, src)
    tree.caps[1] = cap  # frozen in advance; cap() returns it as it stands
    step = _encoder_step(x, tree, BitWriter(), [], EncodeStats(tree=tree))
    caps, sizes = tree.caps, tree.sizes

    def until_frozen(pos: int, rem: int):
        if 1 in caps and sizes[1] >= caps[1]:
            raise _Level1Frozen
        return step(pos, rem)

    try:
        _idealized_parse(x.length, lc.ell, tree, until_frozen)
    except _Level1Frozen:
        pass
    return tree.level1


def _admitted_members(cfg: ExperimentConfig, members: List[int], cap: int,
                      build_n: int, rng, t) -> List[int]:
    x = bernoulli(rng, build_n, float(cfg.p))
    lc = LevelConfig(ell=cfg.step, delta=cfg.delta)
    level1 = _frozen_level1(x, cfg.dist, cfg.p, lc, cap)
    return [m for m in members if m in level1]


def check_symmetry(cfg: ExperimentConfig) -> LemmaReport:
    """Uniform inclusion over a type class under a tight level cap.

    Capping the first level below the candidate count makes admission
    genuinely random; over many independent builds every member of the
    optimal type class must enter the dictionary equally often.
    Verified with a Pearson chi-square test at significance 0.01: the
    critical value is ``scipy.special.chdtri(k - 1, 0.01)`` and the p-value
    ``chdtrc(k - 1, stat)``, the kernels that scipy's ``chi2.isf`` and
    ``chi2.sf`` evaluate, without loading scipy's stats package.

    A build reads only level 1, so it parses only until that level is
    frozen: its cap is set and reached.  From then on fill_level1 has no
    room and promote admits only at level 2 or deeper, so the rest of
    the encode cannot change level 1.  The build runs the encoder's own
    phrase step and parse loop on the whole input and stops before the
    next phrase, so its level 1 is exactly that of the full encode;
    encoding a shorter input instead would narrow the last windows and
    could change the parse.
    """
    # the only scipy user: importing it here keeps it off `import clp`, and
    # the special-function package alone loads a fraction of the stats one
    from scipy.special import chdtrc, chdtri

    ell = cfg.step
    q = target_reproduction_type(cfg.p, cfg.dist)
    members = _type_class(q, ell, f"type {q} is not realizable at length {ell}")
    if len(members) < 2:
        raise ValueError("type class too small for a uniformity test")
    cap = min(max(2, len(members) // 2), (1 << ell) - 1)
    build_n = min(cfg.build_n, 64 * (1 << ell))
    counts = {m: 0 for m in members}
    builds = cfg.trials
    admitted = _trials(cfg, 6, builds, partial(_admitted_members, cfg, members, cap, build_n))
    for build in admitted:
        for m in build:
            counts[m] += 1
    total = sum(counts.values())
    k = len(members)
    if total == 0:
        raise ValueError("no type-class member was ever admitted; widen the build")
    expected = total / k
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    crit = float(chdtri(k - 1, 0.01))
    pval = float(chdtrc(k - 1, stat))
    return _report(
        "symmetry", stat, crit, builds, 0.0, "le",
        {
            "ell": ell, "cap": cap, "build_n": build_n,
            "members": {format(m, f"0{ell}b")[::-1]: counts[m] for m in members},
            "frequencies": {format(m, f"0{ell}b")[::-1]: counts[m] / builds for m in members},
            "expected_class_mass": total / builds,
            "p_value": pval, "significance": 0.01,
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def check_cycle_lemma(cfg: ExperimentConfig) -> LemmaReport:
    """Exact sweep of the match-probability lower bound.

    For canonical optimal-type codelets across a grid of lengths,
    biases and budgets, the prefix-wise match probability must weakly
    dominate the cycle-counting lower bound; both sides are exact
    rationals, so the verdict is deterministic.
    """
    lengths = range(2, 17)
    biases = (Fraction(3, 10), Fraction(1, 2))
    budgets = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
    targets = {(p, d): target_reproduction_type(p, d) for p in biases for d in budgets}
    worst = None
    worst_margin = None
    cells = 0
    for L in lengths:
        for p in biases:
            for d in budgets:
                y = canonical_type_sequence(L, targets[p, d])
                prob = match_probability_exact(y, d, p)
                low = cycle_lemma_lower_bound_exact(y, d, p)
                margin = prob - low
                cells += 1
                if worst_margin is None or margin < worst_margin:
                    worst_margin = margin
                    worst = (L, str(p), str(d))
    estimate = float(worst_margin)
    return _report(
        "cycle-lemma", estimate, 0.0, cells, 0.0, "ge",
        {
            "cells": cells, "worst_cell": worst,
            "worst_margin": str(worst_margin), "all_hold": worst_margin >= 0,
        })


def _frontier_run(cfg: ExperimentConfig, n: int, ell: int, rng,
                  t) -> Tuple[int, Dict[int, int], int]:
    stats = _encode_fresh(cfg, rng, n, ell)
    return stats.give_ups, stats.max_frontier, stats.tree.max_level()


def check_frontier_growth(cfg: ExperimentConfig) -> LemmaReport:
    """Frequency of search frontiers outgrowing the polynomial budget.

    Runs full encodes and flags a run when any of its searches gave up,
    which search does exactly when a level-k frontier tops
    (k*ell)^4/delta; the flagged fraction must stay within delta.
    """
    n = max(cfg.n_values)
    ell = cfg.ell if cfg.ell >= 1 else default_step(n)
    encodes = cfg.trials
    violations = 0
    deepest = 0
    widest: Dict[int, int] = {}
    runs = _trials(cfg, 7, encodes, partial(_frontier_run, cfg, n, ell))
    for give_ups, max_frontier, max_level in runs:
        for lvl, size in max_frontier.items():
            widest[lvl] = max(widest.get(lvl, 0), size)
        deepest = max(deepest, max_level)
        if give_ups > 0:
            violations += 1
    frac = violations / encodes
    se = math.sqrt(max(frac * (1 - frac), 1.0 / encodes) / encodes)
    return _report(
        "frontier-growth", frac, cfg.delta, encodes, se, "le",
        {
            "n": n, "ell": ell, "delta": cfg.delta,
            "max_frontier_by_level": dict(sorted(widest.items())),
            "deepest_level": deepest,
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def check_short_phrases(cfg: ExperimentConfig) -> LemmaReport:
    """Diagnostic count of live codelets below the useful-length line.

    The claim is asymptotic ("for n sufficiently large"), so this is
    reported as a measurement: live codelets shorter than
    (log2 n - 7 ell)/R(D) are counted against n/(log2 n)^2.
    """
    n = max(cfg.n_values)
    ell = cfg.step
    rd = rate_distortion(cfg.p, cfg.dist)
    if rd <= 0.0:
        raise ZeroRate(f"R(D) = 0 at p={cfg.p}, D={cfg.dist}")
    threshold = (math.log2(n) - 7 * ell) / rd
    tree = _encode_fresh(cfg, _rng(cfg.seed, 8), n, ell).tree
    per_level = {lvl: size for lvl, size in enumerate(tree.sizes)
                 if lvl and lvl * ell < threshold}
    count = sum(per_level.values())
    bound = n / (math.log2(n) ** 2)
    return _report(
        "short-phrases", float(count), bound, 1, 0.0, "le",
        {
            "n": n, "ell": ell, "rate_distortion": rd,
            "threshold_length": threshold, "per_level": per_level,
            "note": "asymptotic lemma; desk-scale measurement is diagnostic",
            "p": str(cfg.p), "D": str(cfg.dist),
        })


# pairs per block: enough that numpy, not the loop, does the work
_PAIR_BLOCK = 1024


def _balls(base: np.ndarray, centers, weights: List[int]) -> List[Tuple[np.ndarray, int]]:
    """The balls of centers, where x lies in B(c) iff base[x ^ c], as
    packed indicator rows, one matrix per distinct point weight (the
    weight of a point with k ones is weights[k]; all are equal when
    p = 1/2).  Each row is padded with zero bytes to whole 64-bit words
    and kept as a uint64 view, so the pair masses gather and count 8x
    fewer elements than bytes.  Each matrix is gathered about 32k points
    at a time."""
    pts = np.arange(base.size, dtype=np.uint16)
    distinct = list(dict.fromkeys(weights))
    group = np.array([distinct.index(w) for w in weights])[np.bitwise_count(pts)]
    cs = np.asarray(centers, dtype=np.uint16)[:, None]
    out = []
    for g, weight in enumerate(distinct):
        members = pts[group == g]
        step = max(1, (1 << 15) // members.size)  # centers per gather
        width = -(-members.size // 8)  # bytes of a packed row
        rows = np.zeros((len(cs), -(-width // 8) * 8), dtype=np.uint8)
        for s in range(0, len(cs), step):
            rows[s:s + step, :width] = np.packbits(base[members ^ cs[s:s + step]], axis=1)
        out.append((rows.view(np.uint64), weight))
    return out


def _pair_masses(balls: List[Tuple[np.ndarray, int]], a: np.ndarray, b: np.ndarray,
                 dtype) -> np.ndarray:
    """Exact source-mass numerators of B(a[i]) & B(b[i]): the
    intersection's point count per weight, dotted with the weights.
    Word rows are ANDed and counted by hardware popcount
    (np.bitwise_count), about 32 kB of words at a time."""
    total = np.zeros(len(a), dtype=dtype)
    for words, weight in balls:
        step = max(1, (1 << 12) // words.shape[1])
        for s in range(0, len(a), step):
            both = words.take(a[s:s + step], axis=0)
            both &= words.take(b[s:s + step], axis=0)
            ones = np.bitwise_count(both).sum(axis=1, dtype=np.uint32)
            total[s:s + step] += ones.astype(dtype) * weight
    return total


def check_ball_intersection(cfg: ExperimentConfig) -> LemmaReport:
    """Pairwise intersection mass shrinks with the level extension.

    For same-type codelets y, y~ extended by one level, the source mass
    of the intersection of their match sets (ball at the checkpoint
    length, intersected with the ball constraint at the extended
    length) is at most the level-L intersection mass scaled by the
    extension ratio p_{L+ell}/p_L.  All masses are exact rationals;
    identical pairs realize the ratio with equality.  Exhaustive over
    all same-type pairs and extensions when that stays small.

    Both balls are translates: x lies in the ball of c iff x ^ c lies
    in the ball of 0, so each ball is one gather of a base indicator.
    Every ball is built once; then intersection masses, symmetric, are
    computed once per unordered pair, a block of pairs at a time, and
    each block is folded into the report's terms before the next.
    """
    ell = cfg.step
    depth = cfg.depth * 2 if cfg.depth * 2 + ell <= 16 else cfg.depth
    full = depth + ell
    if full > 16:
        raise ValueError("cell too large for exhaustive enumeration")
    q = target_reproduction_type(cfg.p, cfg.dist)
    unrealizable = f"type {q} not realizable at lengths {depth}, {ell}"
    centers = _type_class(q, depth, unrealizable)
    exts = _type_class(q, ell, unrealizable)
    r_lo = _ball_radius(cfg.dist, depth)
    r_hi = _ball_radius(cfg.dist, full)

    pn, pd = cfg.p.numerator, cfg.p.denominator
    w_lo = [pn ** k * (pd - pn) ** (depth - k) for k in range(depth + 1)]
    w_hi = [pn ** k * (pd - pn) ** (full - k) for k in range(full + 1)]
    pts = np.arange(1 << full, dtype=np.uint16)
    base_hi = (np.bitwise_count(pts & ((1 << depth) - 1)) <= r_lo) & (np.bitwise_count(pts) <= r_hi)
    base_lo = np.bitwise_count(pts[:1 << depth]) <= r_lo
    rows = [y | e << depth for y in centers for e in exts]  # row y * len(exts) + e
    # a mass at length L is at most pd^L, so int64 is exact while every
    # product of two masses below is
    exact = np.int64 if pd ** (full + depth) < 1 << 63 else object

    # ratio p_{L+ell}/p_L as exact integers: C/(pd^full) over E/(pd^depth)
    canon = np.zeros(1, dtype=np.int64)
    balls_lo, balls_hi = _balls(base_lo, centers, w_lo), _balls(base_hi, rows, w_hi)
    num_hi = int(_pair_masses(balls_hi, canon, canon, exact)[0])
    num_lo = int(_pair_masses(balls_lo, canon, canon, exact)[0])
    if num_lo == 0:
        raise ValueError("level ball carries no mass; degenerate cell")

    n = len(rows)
    exhaustive = n * n <= 30000
    if exhaustive:
        samples = n * n
        # every pair i <= j as i * n + j, in increasing order
        keys = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool))).astype(np.uint16)
        first_pair = 0
    else:
        samples = max(100, min(cfg.trials, 5000))
        rng = _rng(cfg.seed, 9)
        y, yt, e, et = np.array([[rng.integers(len(centers)), rng.integers(len(centers)),
                                  rng.integers(len(exts)), rng.integers(len(exts))]
                                 for _ in range(samples)], dtype=np.int64).T
        a, b = y * len(exts) + e, yt * len(exts) + et
        # the distinct unordered pairs, where each draw lies among them, how often each occurs
        keys, inverse, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                          return_inverse=True, return_counts=True)
        first_pair = inverse.reshape(-1)[0]

    # per unordered pair: lhs/pd^full  vs  (inter/pd^depth) * (num_hi/pd^full)
    # / (num_lo/pd^depth), where inter is the level-L mass of (y, y~)
    first, extremes, violations, identity = None, [], 0, True
    for s in range(0, len(keys), _PAIR_BLOCK):
        lo, hi = np.divmod(keys[s:s + _PAIR_BLOCK].astype(np.int64), n)
        inter = _pair_masses(balls_lo, lo // len(exts), hi // len(exts), exact)
        excess = _pair_masses(balls_hi, lo, hi, exact) * num_lo - inter * num_hi
        if s <= first_pair < s + len(lo):
            first = int(excess[first_pair - s])
        extremes += (int(excess.max()), int(excess.min()))
        mult = 2 - (lo == hi) if exhaustive else counts[s:s + _PAIR_BLOCK]
        violations += int(mult[excess > 0].sum())
        identity = identity and bool(np.all(excess[lo == hi] == 0))
    scale = num_lo * float(pd) ** full
    # the pair-by-pair running maximum, bit for bit: the first pair wins ties (signed
    # zeros when scale is inf); the least excess raises OverflowError as any would
    worst = max(first / scale, max(extremes) / scale, min(extremes) / scale)
    return _report(
        "ball-intersection", worst, 0.0, samples, 0.0, "le",
        {
            "depth": depth, "ell": ell, "exhaustive": exhaustive,
            "violations": violations, "pairs": samples,
            "identity_on_identical_pairs": identity,
            "ratio": f"{num_hi}/{num_lo} (common denominator scaled)",
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def _codebook_draw(cfg: ExperimentConfig, covering: Dict[int, List[int]], m_size: int,
                   rng, t) -> Tuple[List[int], int]:
    """One covering codebook of m_size codelets, and the match count of a
    fresh input against it."""
    radius = _ball_radius(cfg.dist, cfg.depth)
    book: List[int] = []
    guard = 0
    while len(book) < m_size:
        guard += 1
        if guard > 100000:
            raise RuntimeError("covering draw failed to terminate")
        x = bernoulli(rng, cfg.depth, float(cfg.p)).value
        cov = covering[x]
        if not cov:
            continue
        y = cov[int(rng.integers(len(cov)))]
        if y not in book:
            book.append(y)
    fresh = bernoulli(rng, cfg.depth, float(cfg.p)).value
    return book, sum(1 for y in book if (fresh ^ y).bit_count() <= radius)


def random_codebook_baseline(cfg: ExperimentConfig) -> LemmaReport:
    """Pair-inclusion probability of the covering random codebook.

    Builds codebooks by repeatedly drawing uniform inputs and keeping a
    random covering codelet of the optimal type until M distinct ones
    accumulate; any fixed pair must then co-occur with probability
    M(M-1)/(N(N-1)).  Also reports the match-count moments under the
    construction for comparison with the grown dictionary.
    """
    depth = cfg.depth
    q = target_reproduction_type(cfg.p, cfg.dist)
    members = _type_class(q, depth, f"type {q} not realizable at length {depth}")
    n_class = len(members)
    m_size = min(3, n_class)
    radius = _ball_radius(cfg.dist, depth)
    covering = {x: [y for y in members if (x ^ y).bit_count() <= radius]
                for x in range(1 << depth)}
    target = members[0], members[1]
    hits: List[float] = []
    n_counts: List[float] = []
    n_sq: List[float] = []
    draws = _trials(cfg, 10, cfg.trials, partial(_codebook_draw, cfg, covering, m_size))
    for book, n in draws:
        hits.append(1.0 if (target[0] in book and target[1] in book) else 0.0)
        n_counts.append(float(n))
        n_sq.append(float(n * n))
    est, se = _mean_se(hits)
    bound = m_size * (m_size - 1) / (n_class * (n_class - 1))
    mean_n, _ = _mean_se(n_counts)
    mean_n2, _ = _mean_se(n_sq)
    return _report(
        "random-codebook-baseline", est, bound, cfg.trials, se, "abs",
        {
            "depth": depth, "class_size": n_class, "codebook_size": m_size,
            "pair": [format(t, f"0{depth}b")[::-1] for t in target],
            "mean_match_count": mean_n, "mean_match_count_sq": mean_n2,
            "p": str(cfg.p), "D": str(cfg.dist),
        })


CHECKS = {
    "match_count_mean": check_match_count_mean,
    "match_count_second_moment": check_match_count_second_moment,
    "coverage_probability": check_coverage_probability,
    "symmetry": check_symmetry,
    "cycle_lemma": check_cycle_lemma,
    "frontier_growth": check_frontier_growth,
    "short_phrases": check_short_phrases,
    "ball_intersection": check_ball_intersection,
    "random_codebook_baseline": random_codebook_baseline,
}


def run_checks(cfg: ExperimentConfig, on_report: Optional[Callable] = None) -> List[LemmaReport]:
    """Run the configured subset of checks (or all of them); on_report,
    when given, gets each check's name, report and wall seconds."""
    wanted = cfg.checks
    if "all" in wanted:
        names = list(CHECKS)
    else:
        unknown = [w for w in wanted if w not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        names = list(wanted)
    reports = []
    for name in names:
        t0 = time.perf_counter()
        reports.append(CHECKS[name](cfg))
        if on_report is not None:
            on_report(name, reports[-1], time.perf_counter() - t0)
    return reports


# -- rate experiments -------------------------------------------------------


def sweep_step(n: int) -> int:
    """Per-length level step for rate experiments: one notch below the
    dictionary default, floored at 2.  Slot-coded records make fine
    level granularity cheap, and the finer ladder reaches deep levels
    sooner at large horizons."""
    return max(2, default_step(n) - 1)


def _rate_cell(cfg: ExperimentConfig, cell: Tuple[int, int]) -> Dict[str, object]:
    n, seed_val = cell
    p, d = cfg.p, cfg.dist
    step = cfg.ell if cfg.ell >= 1 else sweep_step(n)
    rng = _rng(seed_val, 11, n)
    x = bernoulli(rng, n, float(p))
    lc = LevelConfig(ell=step, delta=cfg.delta)
    t0 = time.perf_counter()
    res = encode_idealized(x, d, p, lc)
    runtime = time.perf_counter() - t0
    rate = coding_rate(res.stream)
    rd = rate_distortion(p, d)
    return {
        "n": n, "D": str(d), "p": str(p), "seed": seed_val,
        "rate": rate, "R(D)": rd, "gap": rate - rd,
        "escapes": res.stats.escapes, "giveups": res.stats.give_ups,
        "runtime": runtime,
    }


CSV_COLUMNS = ["n", "D", "p", "seed", "rate", "R(D)", "gap",
               "escapes", "giveups", "runtime"]


def rate_sweep(cfg: ExperimentConfig) -> List[Dict[str, object]]:
    """Coding-rate grid over (n, seed) plus per-n aggregate rows.

    Returns per-cell rows in deterministic (n, seed) order followed by
    one aggregate row per n whose seed column reads "mean".  Writes CSV
    to cfg.out when set.  Trials at different seeds are independent and
    may run in worker processes; results are merged in seed order.
    """
    # seed-major, so that each contiguous part of a pooled run holds
    # every n alike; the sort below restores (n, seed) order
    cells = [(n, cfg.seed + s) for s in range(cfg.trials) for n in cfg.n_values]
    rows = _pool_map(partial(_rate_cell, cfg), cells, cfg.workers)
    rows.sort(key=lambda r: (r["n"], r["seed"]))
    out: List[Dict[str, object]] = list(rows)
    for n in cfg.n_values:
        group = [r for r in rows if r["n"] == n]
        rate = sum(r["rate"] for r in group) / len(group)
        rd = group[0]["R(D)"]
        out.append({
            "n": n, "D": str(cfg.dist), "p": str(cfg.p), "seed": "mean",
            "rate": rate, "R(D)": rd, "gap": rate - rd,
            "escapes": sum(r["escapes"] for r in group) / len(group),
            "giveups": sum(r["giveups"] for r in group) / len(group),
            "runtime": sum(r["runtime"] for r in group),
        })
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(out)
    return out
