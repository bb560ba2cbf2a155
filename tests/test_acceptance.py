"""End-to-end acceptance runs, one test (and one printed verdict line) each.

Each criterion prints one "[criterion N] PASS/FAIL" line with capture
suspended, so a full -v run shows a live scoreboard even while individual
assertions stay strict.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from clp.bits import BitSequence, bernoulli
from clp.codec import (
    EncodedStream,
    decode,
    encode_idealized,
    encode_practical,
    select_codelet,
)
from clp.dictionary import (
    LevelConfig,
    default_step,
    init_practical,
)
from clp.errors import LengthMismatch
from clp.harness import (
    ExperimentConfig,
    check_ball_intersection,
    check_coverage_probability,
    check_cycle_lemma,
    check_frontier_growth,
    check_match_count_mean,
    check_symmetry,
    random_codebook_baseline,
    rate_sweep,
)
from clp.matching import (
    MatchRelation,
    ball_probability_exact,
    hamming_distance,
    match_probability_exact,
    matches_prefixwise,
)
from clp.rd_math import (
    binary_entropy,
    lower_mutual_info,
    lower_mutual_info_float,
    optimal_reproduction_type,
    rate_distortion,
)
from rd_oracle import lower_mutual_info_oracle_batch


def _verdict(capsys, num: int, label: str, problems, elapsed: float = None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    with capsys.disabled():
        if problems:
            print(f"\n[criterion {num}] FAIL{stamp} {label}: " + "; ".join(problems),
                  flush=True)
        else:
            print(f"\n[criterion {num}] PASS{stamp} {label}", flush=True)
    if problems:
        pytest.fail(f"criterion {num}: " + "; ".join(problems))


# -- 1: math kernel vs brute-force oracle ---------------------------------


def test_criterion_01_math_kernel_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    problems = []
    ps = np.linspace(0.02, 0.98, 50)
    ds = np.linspace(0.0, 0.47, 20)
    worst_info = 0.0
    worst_rate = 0.0
    spot = 0
    for p in ps:
        qs, prow, drow = [], [], []
        for d in ds:
            lo, hi = max(0.0, p - d), min(1.0, p + d)
            grid = np.linspace(lo, hi, 100)
            qs.append(grid)
            prow.append(np.full(100, p))
            drow.append(np.full(100, d))
        q = np.concatenate(qs)
        pv = np.concatenate(prow)
        dv = np.concatenate(drow)
        want = lower_mutual_info_oracle_batch(q, pv, dv)
        got = np.array([lower_mutual_info_float(q[i], pv[i], dv[i])
                        for i in range(len(q))])
        worst_info = max(worst_info, float(np.max(np.abs(got - want))))
        for i in range(spot % 23, len(q), 97):  # exact-API spot checks
            worst_info = max(worst_info,
                             abs(lower_mutual_info(q[i], pv[i], dv[i]) - want[i]))
        spot += 1
        qstar = np.array([optimal_reproduction_type(p, d) for d in ds])
        rstar = lower_mutual_info_oracle_batch(qstar, np.full(20, p), ds)
        rates = np.array([rate_distortion(p, d) for d in ds])
        worst_rate = max(worst_rate, float(np.max(np.abs(rates - rstar))))
    if worst_info > 1e-9:
        problems.append(f"I_m mismatch {worst_info:.3g} > 1e-9")
    if worst_rate > 1e-9:
        problems.append(f"R(D) mismatch {worst_rate:.3g} > 1e-9")

    worst_arg = 0.0
    for p in ps:
        for d in ds:
            if d >= min(p, 1.0 - p) - 1e-6 or d == 0.0:
                continue  # zero-rate plateau: the minimizer is not unique
            grid = np.linspace(max(0.0, p - d), min(1.0, p + d), 401)
            vals = [lower_mutual_info_float(q, p, d) for q in grid]
            q_best = grid[int(np.argmin(vals))]
            worst_arg = max(worst_arg,
                            abs(q_best - optimal_reproduction_type(p, d)))
    if worst_arg > 2e-3:
        problems.append(f"argmin off q* by {worst_arg:.3g} > 2e-3")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        problems.append(f"took {elapsed:.1f}s > 10s")
    _verdict(capsys, 1, "math kernel matches grid oracle", problems, elapsed)


# -- 2: worked example ----------------------------------------------------


def test_criterion_02_worked_example_trace(capsys):
    problems = []
    x = BitSequence.from_str("0110101101000")
    half = Fraction(1, 2)
    res = encode_practical(x, half)
    if res.events[0].y_bits.to01() != "0":
        problems.append(f"first phrase {res.events[0].y_bits.to01()!r} != '0'")

    tree = init_practical(half)
    m1 = tree.find_matches(BitSequence.from_str("0"), MatchRelation.FULL_CODELET)
    tree.extend_codelet(select_codelet(m1, BitSequence.from_str("0"), 0, 0, half))
    if sorted(tree.leaf_strings()) != ["00", "01", "1"]:
        problems.append(f"C_1 = {sorted(tree.leaf_strings())}")
    m2 = tree.find_matches(BitSequence.from_str("11"), MatchRelation.FULL_CODELET)
    if sorted(m.sequence().to01() for m in m2) != ["01", "1"]:
        problems.append(f"step-2 match set {sorted(m.sequence().to01() for m in m2)}")
    tree.extend_codelet(select_codelet(m2, BitSequence.from_str("11"), 0, 1, half))
    if sorted(tree.leaf_strings()) != ["00", "010", "011", "1"]:
        problems.append(f"C_2 = {sorted(tree.leaf_strings())}")
    if res.events[1].y_bits.to01() != "01" or res.events[2].pos != 3:
        problems.append("second phrase is not '01' at position 1..2")
    if x[3:].to01() != "0101101000":
        problems.append(f"remainder {x[3:].to01()!r}")
    _verdict(capsys, 2, "half-distortion walk-through reproduced exactly", problems)


# -- 3: lossless reduction -------------------------------------------------


def _lz78_phrase_lengths(bits: str):
    seen = {""}
    out, cur = [], ""
    for b in bits:
        cur += b
        if cur not in seen:
            seen.add(cur)
            out.append(len(cur))
            cur = ""
    if cur:
        out.append(len(cur))
    return out


def test_criterion_03_lossless_reduction(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(101)
    sizes = [100000] * 3 + [
        int(round(10 ** float(u))) for u in rng.uniform(0.0, 4.0, 997)]
    zero = Fraction(0)
    bad_practical = bad_idealized = bad_bounds = 0
    for n in sizes:
        x = bernoulli(rng, n, float(rng.uniform(0.1, 0.9)))
        rp = encode_practical(x, zero)
        if rp.y != x:
            bad_practical += 1
        if [len(e.y_bits) for e in rp.events] != _lz78_phrase_lengths(x.to01()):
            bad_bounds += 1
        ell = int(rng.integers(2, 5))
        ri = encode_idealized(x, zero, cfg=LevelConfig(ell=ell, horizon_n=n))
        if ri.y != x:
            bad_idealized += 1
    if bad_practical:
        problems.append(f"{bad_practical} practical outputs differ from input")
    if bad_idealized:
        problems.append(f"{bad_idealized} idealized outputs differ from input")
    if bad_bounds:
        problems.append(f"{bad_bounds} phrase-boundary mismatches vs reference parse")
    _verdict(capsys, 3, f"D=0 is lossless on {len(sizes)} inputs up to n=100000",
             problems, time.perf_counter() - t0)


# -- 4: distortion guarantee ------------------------------------------------


def test_criterion_04_distortion_guarantee(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(102)
    bad = 0
    for case in range(10000):
        n = int(rng.integers(1, 300))
        d = Fraction(int(rng.integers(0, 33)), 64)
        x = bernoulli(rng, n, float(rng.uniform(0.05, 0.95)))
        rp = encode_practical(x, d)
        ri = encode_idealized(x, d, cfg=LevelConfig(ell=2, horizon_n=n))
        if hamming_distance(x, rp.y) > d * n or hamming_distance(x, ri.y) > d * n:
            bad += 1
    if bad:
        problems.append(f"{bad}/10000 cases exceed the distortion budget")
    _verdict(capsys, 4, "hamming(x, y) <= D*n on 10^4 cases, both variants",
             problems, time.perf_counter() - t0)


# -- 5: byte-exact round trips ----------------------------------------------


def test_criterion_05_round_trip(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(103)
    bad_p = bad_i = 0
    for case in range(1000):
        n = int(rng.integers(1, 3000))
        x = bernoulli(rng, n, float(rng.uniform(0.1, 0.9)))
        d = Fraction(int(rng.integers(0, 33)), 64)
        rp = encode_practical(x, d)
        if decode(EncodedStream.from_bytes(rp.stream.to_bytes())) != rp.y:
            bad_p += 1
        ell = int(rng.integers(2, 5))
        ri = encode_idealized(x, d, cfg=LevelConfig(ell=ell, horizon_n=n))
        if decode(EncodedStream.from_bytes(ri.stream.to_bytes())) != ri.y:
            bad_i += 1
    if bad_p:
        problems.append(f"{bad_p}/1000 practical round trips differ")
    if bad_i:
        problems.append(f"{bad_i}/1000 idealized round trips differ")
    _verdict(capsys, 5, "decode(encode(x)) == y on 10^3 cases per variant",
             problems, time.perf_counter() - t0)


# -- 6: exhaustive enumeration oracles ---------------------------------------


def test_criterion_06_exhaustive_probability_and_search(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(104)
    rational_ps = [Fraction(1, 2), Fraction(3, 10), Fraction(7, 10), Fraction(1, 5)]
    rational_ds = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
                   Fraction(1, 2), Fraction(3, 4)]
    bad_prob = 0
    for L in range(1, 17):
        codes = np.arange(1 << L, dtype=np.uint32)
        shifts = np.arange(L, dtype=np.uint32)  # position j sits in bit j
        bits = ((codes[:, None] >> shifts) & 1).astype(np.int8)
        ones = bits.sum(axis=1, dtype=np.int64)
        lengths = np.arange(1, L + 1, dtype=np.int64)
        for _ in range(100):
            y = BitSequence(int(rng.integers(0, 1 << L)), L)
            p = rational_ps[int(rng.integers(len(rational_ps)))]
            d = rational_ds[int(rng.integers(len(rational_ds)))]
            dn, dd = d.numerator, d.denominator
            mism = (bits != bits[y.value]).astype(np.int64)
            cum = np.cumsum(mism, axis=1)
            pref_ok = np.all(cum * dd <= dn * lengths, axis=1)
            ball_ok = cum[:, -1] * dd <= dn * L
            a, b = p.numerator, p.denominator
            # exact: P(x) * b^L = a^ones (b-a)^(L-ones), summed by class
            pw = [a ** k * (b - a) ** (L - k) for k in range(L + 1)]
            for mask, fn in ((pref_ok, match_probability_exact),
                             (ball_ok, ball_probability_exact)):
                counts = np.bincount(ones[mask], minlength=L + 1)
                total = sum(int(c) * w for c, w in zip(counts, pw))
                if Fraction(total, b ** L) != fn(y, d, p):
                    bad_prob += 1
    if bad_prob:
        problems.append(f"{bad_prob} probability values disagree with enumeration")

    # search vs brute force over grown dictionaries
    bad_search = 0
    instance = 0
    while instance < 500:
        ell = int(rng.integers(2, 4))
        d = Fraction(int(rng.integers(0, 4)), 8)
        n = int(rng.integers(512, 4096))
        x = bernoulli(rng, n, float(rng.uniform(0.3, 0.7)))
        tree = encode_idealized(x, d, cfg=LevelConfig(ell=ell, horizon_n=n)).stats.tree
        for _ in range(10):
            wlen = int(rng.integers(1, 4 * ell + 2))
            window = BitSequence(int(rng.integers(0, 1 << wlen)), wlen)
            got, frontier = tree.search(window.value, window.length)
            want = None
            for level in range(tree.max_level(), 0, -1):
                depth = level * tree.ell
                if depth > window.length:
                    continue
                live = [nd for nd in tree.levels[level]
                        if matches_prefixwise(window[:depth], nd.sequence(tree.ell), d)]
                if live:
                    want = min(live, key=lambda nd: nd.ordinal)
                    break
            if frontier.give_up or got is not want:
                bad_search += 1
            instance += 1
    if bad_search:
        problems.append(f"{bad_search}/500 searches disagree with brute force")
    elapsed = time.perf_counter() - t0
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.1f}s > 60s")
    _verdict(capsys, 6, "probabilities and search match exhaustive enumeration",
             problems, elapsed)


# -- 7: cycle lemma -----------------------------------------------------------


def test_criterion_07_cycle_lemma_sweep(capsys):
    r = check_cycle_lemma(ExperimentConfig())
    problems = []
    if not r.passed or r.std_error != 0.0:
        problems.append(r.summary())
    if r.estimate < 0.0:
        problems.append(f"worst margin {r.estimate} < 0")
    _verdict(capsys, 7, "deterministic lower bound holds across the full sweep", problems)


# -- 8: statistical lemma suite ----------------------------------------------


def test_criterion_08_lemma_suite(capsys):
    t0 = time.perf_counter()
    problems = []
    base = ExperimentConfig()  # 10^4 trials, seed 7
    frontier_cfg = ExperimentConfig(dist=Fraction(11, 100), ell=0,
                                    n_values=(1 << 16,), trials=1000)
    runs = [
        (check_match_count_mean, base, 10000),
        (check_coverage_probability, base, 10000),
        (check_symmetry, base, 10000),
        (check_frontier_growth, frontier_cfg, 1000),
        (check_ball_intersection, base, 10000),
        (random_codebook_baseline, base, 10000),
    ]
    for fn, cfg, floor in runs:
        r = fn(cfg)
        if not r.passed:
            problems.append(r.summary())
        if r.samples < floor:
            problems.append(f"{r.lemma_id}: only {r.samples} samples < {floor}")
    elapsed = time.perf_counter() - t0
    if elapsed > 600.0:
        problems.append(f"took {elapsed:.1f}s > 600s")
    _verdict(capsys, 8, "six lemma checks pass at 3-sigma slack", problems, elapsed)


# -- 9: rate convergence -------------------------------------------------------


def test_criterion_09_rate_convergence(capsys):
    t0 = time.perf_counter()
    problems = []
    cfg = ExperimentConfig(p=Fraction(1, 2), dist=Fraction(11, 100), ell=0,
                           n_values=(1 << 14, 1 << 16, 1 << 18), trials=20,
                           seed=7)
    rows = rate_sweep(cfg)
    means = {r["n"]: r for r in rows if r["seed"] == "mean"}
    gaps = [means[n]["gap"] for n in cfg.n_values]
    if not (gaps[0] > gaps[1] > gaps[2]):
        problems.append(f"gaps not strictly decreasing: {[f'{g:.4f}' for g in gaps]}")
    if gaps[2] > 0.8 * gaps[0]:
        problems.append(f"gap(2^18) = {gaps[2]:.4f} > 0.8 * {gaps[0]:.4f}")

    for p in (Fraction(3, 10), Fraction(1, 2)):
        sweep = rate_sweep(ExperimentConfig(p=p, dist=Fraction(0), ell=2,
                                            n_values=(1 << 18,), trials=20,
                                            seed=7))
        mean_rate = [r for r in sweep if r["seed"] == "mean"][0]["rate"]
        target = binary_entropy(float(p))
        if abs(mean_rate - target) > 0.1:
            problems.append(f"lossless rate {mean_rate:.4f} vs h({p}) = {target:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed > 900.0:
        problems.append(f"took {elapsed:.1f}s > 900s")
    _verdict(capsys, 9, "rate gap shrinks with n; lossless rate near h(p)",
             problems, elapsed)


# -- 10: quasi-linear runtime ---------------------------------------------------


def test_criterion_10_quasi_linear_runtime(capsys):
    t0 = time.perf_counter()
    problems = []
    d = Fraction(11, 100)
    half = Fraction(1, 2)
    # warm-up so allocator and caches do not bill the first cell
    warm = bernoulli(np.random.default_rng(0), 1 << 14, 0.5)
    encode_idealized(warm, d, half, LevelConfig(ell=default_step(1 << 14),
                                                horizon_n=1 << 14))
    means = {}
    for n in (1 << 16, 1 << 17, 1 << 18):
        cfg = LevelConfig(ell=default_step(n), horizon_n=n)
        times = []
        for seed in range(5):
            x = bernoulli(np.random.default_rng(seed), n, 0.5)
            t1 = time.perf_counter()
            encode_idealized(x, d, half, cfg)
            times.append(time.perf_counter() - t1)
        means[n] = sum(times) / len(times)
    factors = []
    for small, big in ((1 << 16, 1 << 17), (1 << 17, 1 << 18)):
        factor = means[big] / means[small]
        factors.append(f"{factor:.2f}")
        if factor > 2.5:
            problems.append(f"time factor {factor:.2f} > 2.5 at n={big}")
    _verdict(capsys, 10, "encode time grows <= 2.5x per doubling of n "
             f"(factors {', '.join(factors)} at n=2^17, 2^18)",
             problems, time.perf_counter() - t0)
