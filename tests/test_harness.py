"""Harness plumbing: config parsing, report arithmetic, check registry, sweeps."""

import csv
import dataclasses
from fractions import Fraction

import pytest
from test_harness_golden import CONFIGS, _check_records, _sweep_rows

import clp.harness as harness
from clp.dictionary import default_step
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

    def test_ball_intersection_exhaustive(self):
        r = check_ball_intersection(small_cfg(depth=2))
        assert r.passed and r.estimate == 0.0
        assert r.details["identity_on_identical_pairs"] is True

    def test_frontier_small_scale(self):
        r = check_frontier_growth(ExperimentConfig(n_values=(1024,), trials=30,
                                                   seed=5))
        assert r.passed and r.estimate == 0.0
        assert max(r.details["max_frontier_by_level"]) < r.details["deepest_level"]

    def test_short_phrases_rejects_zero_rate(self):
        cfg = small_cfg(p=Fraction(1, 2), dist=Fraction(1, 2))
        with pytest.raises(ZeroRate):
            check_short_phrases(cfg)


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
