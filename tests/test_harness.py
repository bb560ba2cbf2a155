"""Harness plumbing: config parsing, report arithmetic, check registry, sweeps."""

import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from level_caps import capped_levels
from test_harness_golden import CONFIGS, _check_records, _sweep_rows

import clp.harness as harness
from clp import codec, dictionary
from clp.bits import bernoulli
from clp.codec import encode_idealized
from clp.cli import EXIT_USAGE, main
from clp.dictionary import LevelConfig, default_step
from clp.errors import ZeroRate
from clp.harness import (
    CHECKS,
    CSV_COLUMNS,
    ExperimentConfig,
    LemmaReport,
    check_ball_intersection,
    check_cycle_lemma,
    check_frontier_growth,
    check_short_phrases,
    check_symmetry,
    rate_sweep,
    run_checks,
    sweep_step,
)
from clp.rd_math import target_reproduction_type


def reference_ball_intersection(cfg):
    """check_ball_intersection as it was first written: every ball built
    point by point as a bitmask, every mass summed pair by pair."""
    ell = cfg.step
    depth = cfg.depth * 2 if cfg.depth * 2 + ell <= 16 else cfg.depth
    full = depth + ell
    if full > 16:
        raise ValueError("cell too large for exhaustive enumeration")
    q = target_reproduction_type(cfg.p, cfg.dist)
    unrealizable = f"type {q} not realizable at lengths {depth}, {ell}"
    centers = harness._type_class(q, depth, unrealizable)
    exts = harness._type_class(q, ell, unrealizable)
    r_lo = harness._ball_radius(cfg.dist, depth)
    r_hi = harness._ball_radius(cfg.dist, full)

    pn, pd = cfg.p.numerator, cfg.p.denominator
    w_lo = [pn ** k * (pd - pn) ** (depth - k) for k in range(depth + 1)]
    w_hi = [pn ** k * (pd - pn) ** (full - k) for k in range(full + 1)]

    def class_masks(length):
        masks = [0] * (length + 1)
        for v in range(1 << length):
            masks[v.bit_count()] |= 1 << v
        return masks

    def mass(mask, cmasks, weights):
        return sum((mask & cm).bit_count() * w for cm, w in zip(cmasks, weights))

    cm_lo, cm_hi = class_masks(depth), class_masks(full)
    low_mask = (1 << depth) - 1
    balls = {y: sum(1 << x for x in range(1 << depth)
                    if (x ^ y).bit_count() <= r_lo) for y in centers}

    def extended_mask(y, e):
        center = y | (e << depth)
        return sum(1 << x for x in range(1 << full)
                   if ((x ^ center) & low_mask).bit_count() <= r_lo
                   and (x ^ center).bit_count() <= r_hi)

    ext_masks = {(y, e): extended_mask(y, e) for y in centers for e in exts}
    num_hi = mass(ext_masks[(centers[0], exts[0])], cm_hi, w_hi)
    num_lo = mass(balls[centers[0]], cm_lo, w_lo)
    if num_lo == 0:
        raise ValueError("level ball carries no mass; degenerate cell")

    total_pairs = len(centers) ** 2 * len(exts) ** 2
    exhaustive = total_pairs <= 30000
    rng = harness._rng(cfg.seed, 9)
    if exhaustive:
        pair_iter = ((y, yt, e, et) for y in centers for yt in centers
                     for e in exts for et in exts)
        samples = total_pairs
    else:
        samples = max(100, min(cfg.trials, 5000))
        pair_iter = ((centers[int(rng.integers(len(centers)))],
                      centers[int(rng.integers(len(centers)))],
                      exts[int(rng.integers(len(exts)))],
                      exts[int(rng.integers(len(exts)))])
                     for _ in range(samples))

    violations = 0
    worst = -math.inf
    identity_ok = True
    denom = float(pd) ** full
    for y, yt, e, et in pair_iter:
        lhs_scaled = mass(ext_masks[(y, e)] & ext_masks[(yt, et)], cm_hi, w_hi) * num_lo
        rhs_scaled = mass(balls[y] & balls[yt], cm_lo, w_lo) * num_hi
        if lhs_scaled > rhs_scaled:
            violations += 1
        if y == yt and e == et and lhs_scaled != rhs_scaled:
            identity_ok = False
        worst = max(worst, (lhs_scaled - rhs_scaled) / (num_lo * denom))
    return harness._report(
        "ball-intersection", worst, 0.0, samples, 0.0, "le",
        {
            "depth": depth, "ell": ell, "exhaustive": exhaustive,
            "violations": violations, "pairs": samples,
            "identity_on_identical_pairs": identity_ok,
            "ratio": f"{num_hi}/{num_lo} (common denominator scaled)",
            "p": str(cfg.p), "D": str(cfg.dist),
        })


def small_cfg(**kw):
    base = dict(trials=300, build_count=2, build_n=512, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.p == Fraction(1, 2)
        assert cfg.dist == Fraction(1, 4)
        assert cfg.n_values == (1 << 14, 1 << 16, 1 << 18)
        assert cfg.step == 2

    def test_step_auto_floor(self):
        assert ExperimentConfig(ell=0).step == 2
        assert ExperimentConfig(ell=5).step == 5

    @pytest.mark.parametrize("bad", [
        dict(p=Fraction(3, 2)),
        dict(dist=Fraction(-1, 4)),
        dict(ell=-1),
        dict(delta=0.0),
        dict(n_values=()),
        dict(n_values=(0,)),
        dict(trials=0),
        dict(workers=0),
        dict(build_count=0),
        dict(depth=0),
        dict(ell=17),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_from_file(self, tmp_path):
        text = (
            "# harness settings\n"
            "p = 3/10\n"
            "distortion = 0.11\n"   # alias for dist
            "ell = 3\n"
            "n = 1024, 2048\n"
            "trials = 12\n"
            "seed = 99\n"
            "checks = symmetry, cycle_lemma\n"
            "workers = 2\n"
        )
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.p == Fraction(3, 10)
        assert cfg.dist == Fraction(11, 100)
        assert cfg.ell == 3
        assert cfg.n_values == (1024, 2048)
        assert cfg.trials == 12
        assert cfg.seed == 99
        assert cfg.checks == ("symmetry", "cycle_lemma")
        assert cfg.workers == 2

    @pytest.mark.parametrize("line, name, value", [
        ("D = 1/8", "dist", Fraction(1, 8)),
        ("dist = 0.125", "dist", Fraction(1, 8)),
        ("delta = 0.5", "delta", 0.5),
        ("n_values = 7, 9,", "n_values", (7, 9)),
        ("out = rates.csv", "out", "rates.csv"),
        ("build_count = 3", "build_count", 3),
        ("build_n = 99", "build_n", 99),
        ("depth = 6", "depth", 6),
    ])
    def test_from_file_other_keys(self, tmp_path, line, name, value):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        assert getattr(ExperimentConfig.from_file(str(path)), name) == value

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize("text, lineno, name", [
        ("d = 1/4\ndistortion = 1/10\n", 2, "dist"),  # under another alias
        ("n = 256\n# n again\nn_values = 512\n", 3, "n_values"),
        ("seed = 1\nseed = 1\n", 2, "seed"),  # under the same key, same value
    ])
    def test_from_file_rejects_a_field_set_twice(self, tmp_path, text, lineno, name):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(str(path))
        assert str(err.value) == f"{path}:{lineno}: {name} set twice"
        argv = ["analyze", "--check", "symmetry", "--config", str(path)]
        assert main(argv) == EXIT_USAGE

    def test_from_file_rejects_bare_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            ExperimentConfig.from_file(str(path))


class TestLemmaReport:
    def test_verdict_directions(self):
        # slack is 3 standard errors (plus epsilon)
        assert LemmaReport.verdict(1.0, 1.2, 0.1, "le")
        assert not LemmaReport.verdict(1.51, 1.2, 0.1, "le")
        assert LemmaReport.verdict(1.0, 1.2, 0.1, "ge")
        assert not LemmaReport.verdict(0.89, 1.2, 0.1, "ge")
        assert LemmaReport.verdict(1.0, 1.29, 0.1, "abs")
        assert not LemmaReport.verdict(1.0, 1.31, 0.1, "abs")

    def test_deterministic_checks_demand_exact_relation(self):
        assert LemmaReport.verdict(1.0, 1.0, 0.0, "le")
        assert not LemmaReport.verdict(1.0 + 1e-9, 1.0, 0.0, "le")

    def test_inconsistent_verdict_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            LemmaReport(lemma_id="x", estimate=5.0, bound=1.0, samples=10,
                        std_error=0.0, direction="le", passed=True)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            LemmaReport(lemma_id="x", estimate=1.0, bound=1.0, samples=1,
                        std_error=0.0, direction="eq", passed=True)

    def test_summary_wording(self):
        r = LemmaReport(lemma_id="demo", estimate=0.5, bound=1.0, samples=7,
                        std_error=0.01, direction="le", passed=True)
        assert r.summary().startswith("demo: pass ")
        r = LemmaReport(lemma_id="demo", estimate=2.0, bound=1.0, samples=7,
                        std_error=0.01, direction="le", passed=False)
        assert "FAIL" in r.summary()


class TestRegistry:
    def test_all_expands_to_every_check(self):
        assert len(CHECKS) == 9
        cfg = small_cfg(checks=("cycle_lemma",))
        # registry keys are the CLI names
        assert set(cfg.checks) <= set(CHECKS)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_checks(small_cfg(checks=("no_such_check",)))

    def test_subset_runs_in_request_order(self):
        cfg = small_cfg(checks=("symmetry", "cycle_lemma"))
        ids = [r.lemma_id for r in run_checks(cfg)]
        assert ids == ["symmetry", "cycle-lemma"]

    def test_reports_are_reproducible(self):
        cfg = small_cfg(checks=("match_count_mean", "coverage_probability"))
        first = run_checks(cfg)
        second = run_checks(cfg)
        for a, b in zip(first, second):
            assert (a.lemma_id, a.estimate, a.bound, a.samples,
                    a.std_error, a.passed) == (b.lemma_id, b.estimate,
                                               b.bound, b.samples,
                                               b.std_error, b.passed)


class TestIndividualChecks:
    def test_cycle_lemma_exact_sweep_holds(self):
        r = check_cycle_lemma(small_cfg())
        assert r.passed and r.std_error == 0.0
        assert r.estimate >= 0.0  # worst margin across the grid

    def test_symmetry_small_scale(self):
        r = check_symmetry(small_cfg())
        assert r.passed
        assert len(r.details["frequencies"]) == len(r.details["members"])

    def test_symmetry_builds_stop_once_level1_is_frozen(self, monkeypatch):
        # a build parses ~70 phrases of its 256-bit input, but level 1,
        # all the check reads, is frozen within the first few
        calls = 0
        search = dictionary.CodebookTree.search

        def counted(tree, window_bits, window_len):
            nonlocal calls
            calls += 1
            return search(tree, window_bits, window_len)

        monkeypatch.setattr(dictionary.CodebookTree, "search", counted)
        cfg = ExperimentConfig(trials=1000, seed=1, workers=1)
        assert check_symmetry(cfg).passed
        assert calls <= 8 * cfg.trials

    def test_ball_intersection_exhaustive(self):
        r = check_ball_intersection(small_cfg(depth=2))
        assert r.passed and r.estimate == 0.0
        assert r.details["identity_on_identical_pairs"] is True

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(),  # exhaustive, 19,600 pairs
        small_cfg(depth=2),  # exhaustive, 144 pairs
        ExperimentConfig(ell=4, depth=4),  # sampled, 5000 draws
        # sampled, and the worst margin (< 0) depends on which pairs are drawn
        ExperimentConfig(dist=Fraction(9, 20), depth=5, trials=100, seed=4),
        ExperimentConfig(p=Fraction(2, 5), dist=Fraction(1, 5), ell=3, depth=3),  # weights != 1
        # masses whose products pass int64
        ExperimentConfig(p=Fraction(1, 4) + Fraction(1, 2 ** 45), dist=Fraction(1, 2 ** 44), ell=4),
        ExperimentConfig(p=Fraction(3, 10), dist=Fraction(1, 10), ell=3),  # extension unrealizable
        ExperimentConfig(p=Fraction(3, 10), dist=Fraction(1, 10), depth=3),  # center unrealizable
        ExperimentConfig(depth=15),  # full > 16
    ])
    def test_ball_intersection_matches_reference(self, cfg):
        def outcome(check):
            try:
                return dataclasses.asdict(check(cfg))
            except Exception as exc:
                return type(exc), str(exc)
        new, ref = outcome(check_ball_intersection), outcome(reference_ball_intersection)
        # repr tells apart float bits (signed zeros) and numpy scalars from Python ones
        assert new == ref and repr(new) == repr(ref)

    def test_exhaustive_ball_intersection_draws_nothing(self, monkeypatch):
        # the exhaustive branch builds no generator: the first Philox one
        # in a process costs ~5.6 MB of RSS
        cfg = ExperimentConfig()
        assert check_ball_intersection(cfg).details["exhaustive"] is True
        expected = dataclasses.asdict(check_ball_intersection(cfg))

        def no_rng(*args):
            raise AssertionError("exhaustive check built a generator")
        monkeypatch.setattr(harness, "_rng", no_rng)
        assert dataclasses.asdict(check_ball_intersection(cfg)) == expected

    def test_ball_intersection_peak_memory(self):
        # the balls are built once and the pairs folded in blocks, so the
        # default cell's 9,870 unordered pairs never sit in memory at once
        cfg = ExperimentConfig()
        check_ball_intersection(cfg)  # fill the shared caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_ball_intersection(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 300_000

    def test_frontier_small_scale(self):
        r = check_frontier_growth(ExperimentConfig(n_values=(1024,), trials=30,
                                                   seed=5))
        assert r.passed and r.estimate == 0.0
        assert max(r.details["max_frontier_by_level"]) < r.details["deepest_level"]

    def test_auto_step_of_frontier_growth(self):
        # ell = 0: frontier growth steps by default_step of the largest
        # n, the other level checks by 2 (rate_sweep: TestRateSweep)
        cfg = ExperimentConfig(ell=0, n_values=(64, 4096), trials=2, seed=5)
        assert default_step(4096) == 4 != sweep_step(4096)
        assert check_frontier_growth(cfg).details["ell"] == 4
        assert check_symmetry(cfg).details["ell"] == cfg.step == 2

    def test_short_phrases_rejects_zero_rate(self):
        cfg = small_cfg(p=Fraction(1, 2), dist=Fraction(1, 2))
        with pytest.raises(ZeroRate):
            check_short_phrases(cfg)


@st.composite
def word_balls(draw):
    """One to three weight groups, each a bit width (1 to 3 words), rows
    of that width as Python ints and a weight; a mass dtype; and the row
    indices of pairs, often more than fit in one block."""
    big = draw(st.booleans())  # weights above 2^63 need object masses
    n_rows = draw(st.integers(1, 8))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 192))
        rows = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n_rows, max_size=n_rows))
        weight = draw(st.integers(2 ** 63, 2 ** 80) if big else st.integers(0, 2 ** 40))
        groups.append((width, rows, weight))
    n_pairs = draw(st.one_of(st.integers(1, 50), st.integers(4097, 9000)))
    a, b = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        n_rows, size=(2, n_pairs))
    return groups, (object if big else np.int64), a, b


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word_balls())
def test_pair_masses_count_like_bit_count(case):
    groups, dtype, a, b = case
    # word k of a row holds its bits 64k .. 64k + 63; bits past the width are zero
    balls = [(np.array([[(r >> 64 * k) & (2 ** 64 - 1) for k in range(-(-width // 64))]
                        for r in rows], dtype=np.uint64), weight)
             for width, rows, weight in groups]
    got = harness._pair_masses(balls, a, b, dtype)
    assert got.dtype == dtype
    want = [sum((rows[i] & rows[j]).bit_count() * weight for _, rows, weight in groups)
            for i, j in zip(a.tolist(), b.tolist())]
    assert [int(v) for v in got] == want


GOLDEN_DISTS = sorted({cfg.dist for cfg in CONFIGS})
# (ell, cap, D, p, n, seed) whose full encode never fills level 1: n < ell
# makes no full-length escape, and the others match fewer codelets than
# the cap, so a stopped build parses to the end of x
NEVER_FROZEN = (
    (6, 63, Fraction(1, 4), Fraction(1, 2), 5, 1),
    (6, 63, Fraction(1, 4), Fraction(1, 2), 512, 0),
    (6, 63, Fraction(1, 10), Fraction(3, 10), 40, 2),
    (4, 15, Fraction(1, 10), Fraction(3, 10), 512, 0),
)
# cells whose level 1 freezes early in the parse
FROZEN = (
    (3, 2, Fraction(1, 4), Fraction(1, 2), 256, 5),
    (5, 7, Fraction(11, 100), Fraction(3, 10), 512, 3),
)


@st.composite
def level1_cells(draw):
    ell = draw(st.integers(1, 6))
    cap = draw(st.integers(1, (1 << ell) - 1))
    dist = draw(st.sampled_from(GOLDEN_DISTS))
    p = draw(st.sampled_from((Fraction(1, 2), Fraction(3, 10))))
    return ell, cap, dist, p, draw(st.integers(1, 512)), draw(st.integers(0, 2 ** 32 - 1))


class TestFrozenLevel1:
    """A symmetry build stops once level 1 is frozen; its level 1 must be
    the full encode's, codelet for codelet."""

    @staticmethod
    def assert_same_level1(ell, cap, dist, p, n, seed):
        x = bernoulli(np.random.default_rng(seed), n, float(p))
        lc = LevelConfig(ell=ell)
        stopped = harness._frozen_level1(x, dist, p, lc, cap)
        with capped_levels({1: cap}):
            tree = encode_idealized(x, dist, p, lc).stats.tree
        assert list(stopped) == list(tree.level1)
        assert [node.ordinal for node in stopped.values()] == \
            [node.ordinal for node in tree.level1.values()]
        return tree

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(level1_cells())
    def test_equals_the_full_encode(self, cell):
        self.assert_same_level1(*cell)

    @pytest.mark.parametrize("cell", NEVER_FROZEN)
    def test_equals_the_full_encode_that_never_freezes(self, cell):
        tree = self.assert_same_level1(*cell)
        assert tree.sizes[1] < tree.caps[1]

    @pytest.mark.parametrize("block_bits", (1, 13))
    @pytest.mark.parametrize("cell", NEVER_FROZEN + FROZEN)
    def test_equals_the_full_encode_with_small_x_blocks(self, cell, block_bits, monkeypatch):
        # both sides read x by blocks through the encoder's step; blocks
        # this small refetch every phrase or two
        monkeypatch.setattr(codec, "_X_BLOCK_BITS", block_bits)
        tree = self.assert_same_level1(*cell)
        assert (cell in FROZEN) == (1 in tree.caps and tree.sizes[1] >= tree.caps[1])


class TestRateSweep:
    def test_sweep_step_schedule(self):
        assert sweep_step(1 << 14) == 3
        assert sweep_step(1 << 16) == 3
        assert sweep_step(1 << 18) == 4
        for n in (64, 256, 1024, 1 << 12, 1 << 20):
            assert sweep_step(n) == max(2, default_step(n) - 1)

    def test_rows_and_aggregates(self, tmp_path):
        out = tmp_path / "rates.csv"
        cfg = ExperimentConfig(dist=Fraction(11, 100), ell=0,
                               n_values=(256, 512), trials=2, seed=1,
                               out=str(out))
        rows = rate_sweep(cfg)
        assert len(rows) == 2 * 2 + 2
        cells = [r for r in rows if r["seed"] != "mean"]
        assert [(r["n"], r["seed"]) for r in cells] == [
            (256, 1), (256, 2), (512, 1), (512, 2)]
        for r in rows:
            assert r["gap"] == r["rate"] - r["R(D)"]
        means = [r for r in rows if r["seed"] == "mean"]
        assert [r["n"] for r in means] == [256, 512]
        got = means[0]["rate"]
        assert got == pytest.approx(sum(r["rate"] for r in cells[:2]) / 2)
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == CSV_COLUMNS
            assert sum(1 for _ in reader) == 6

    def test_worker_pool_merge_is_deterministic(self):
        cfg = ExperimentConfig(dist=Fraction(11, 100), n_values=(256,),
                               trials=4, seed=2)
        serial = rate_sweep(cfg)
        pooled = rate_sweep(ExperimentConfig(dist=Fraction(11, 100),
                                             n_values=(256,), trials=4,
                                             seed=2, workers=2))
        for a, b in zip(serial, pooled):
            assert a["seed"] == b["seed"]
            assert a["rate"] == b["rate"]
            assert a["escapes"] == b["escapes"]


class TestWorkers:
    def test_reports_do_not_depend_on_workers(self, monkeypatch):
        # two cores at least, so that workers=2 starts a real pool anywhere
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for cfg in CONFIGS:
            pooled = dataclasses.replace(cfg, workers=2)
            assert list(_check_records(pooled)) == list(_check_records(cfg))
            assert _sweep_rows(pooled) == _sweep_rows(cfg)

    def test_idealized_checks_keep_their_reports(self, monkeypatch):
        # digests of reports taken before dictionaries shared their
        # continuation tables; each must hold with the memo empty and
        # again once the serial run has filled it, serially and on a pool
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cases = (
            (check_symmetry, ExperimentConfig(ell=4, trials=200, seed=13),
             "48e723b700a4ed5723d55c3e8cfa76cd2ad2109950a1ab03748e73a7bbb6503f"),
            (check_symmetry, ExperimentConfig(ell=6, dist=Fraction(11, 100), trials=40, seed=13),
             "547c38fdec1e41d47e4f77955848636476d6fa57c3605b99c85b0d2f2b79b1fa"),
            (check_frontier_growth,
             ExperimentConfig(ell=6, dist=Fraction(11, 100), delta=0.5, trials=40, seed=13,
                              n_values=(4096,)),
             "72ef19f732ffdbf9416a6fe1e7b2b0137e80ff992d4b52ea4371135079fe9a40"),
            (check_frontier_growth, ExperimentConfig(trials=30, seed=13, n_values=(8192,)),
             "59c934498089032e12622294905f006d2a4e84451ee518c294ae6f5ed182fde1"),
        )
        dictionary._continuation.cache_clear()
        for workers in (1, 2):
            for check, cfg, want in cases:
                report = check(dataclasses.replace(cfg, workers=workers))
                text = json.dumps(dataclasses.asdict(report), sort_keys=True, default=str)
                assert hashlib.sha256(text.encode()).hexdigest() == want, (check, cfg)

    @pytest.mark.parametrize("cores, trials, started", [
        (64, 3, [3]),      # one process per trial at most
        (4, 50, [4]),      # one process per core at most
        (None, 50, []),    # core count unknown: run serially
    ])
    def test_process_count_is_clamped(self, monkeypatch, cores, trials, started):
        seen = []

        class InlinePool:
            """Records the requested process count and maps in-process."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        cfg = small_cfg(trials=trials, workers=100_000)
        pooled = harness.random_codebook_baseline(cfg)
        assert seen == started
        assert pooled == harness.random_codebook_baseline(dataclasses.replace(cfg, workers=1))
