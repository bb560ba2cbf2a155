"""The benchmark's workloads: inputs from a seed, one round of work, checks.

Every workload is a closed loop in one process: a round runs each
operation once, one at a time, and the benchmark repeats rounds until
its time is up.  Each operation's output is checked:

- a coder operation encodes one input and decodes ``stream.to_bytes()``;
  it fails unless every decode returns the encoder's y and
  Hamming(x, y) <= floor(D n);
- a lemma operation runs one check of ``clp.harness``; it fails when
  the report says ``passed=False``;
- at the default seed and full scale, the sha256 of every stream and
  every lemma report must match ``digests.json``;
- an exception raised by clp fails the operation, not the benchmark.

clp's functions are looked up on their modules at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import importlib
import json
import signal
import statistics
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")

# Lemma checks: the criterion-8 set plus cycle_lemma.  short_phrases is
# left out; at desk scale it is a diagnostic that fails by design.
MONTE_CARLO_CHECKS = ("check_match_count_mean", "check_coverage_probability",
                      "check_symmetry", "check_frontier_growth",
                      "random_codebook_baseline")
EXACT_CHECKS = ("check_cycle_lemma", "check_ball_intersection")


@dataclass(frozen=True)
class Scale:
    """Input sizes and repeat counts of one benchmark scale."""

    idealized_ns: tuple = (1 << 19, 1 << 20)
    practical_n: int = 1 << 16
    idealized_decodes: int = 3
    practical_decodes: int = 16
    trials: int = 1000
    frontier_n: int = 1 << 16
    frontier_encodes: int = 10
    exact_repeats: int = 5
    warmup_n: int = 1 << 12


SCALES = {
    "full": Scale(),
    # for the benchmark's own tests: every code path, in well under a second
    "tiny": Scale(idealized_ns=(1 << 10, 1 << 11), practical_n=1 << 9,
                  practical_decodes=2, trials=40, frontier_n=1 << 10,
                  frontier_encodes=2, exact_repeats=1, warmup_n=1 << 8),
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, what: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problem}")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    """Digest of every field of a LemmaReport, floats in full precision."""
    fields = dataclasses.asdict(report)
    return sha256_hex(json.dumps(fields, sort_keys=True, default=str).encode())


def load_digests(workload: str, seed: int, scale: str) -> Dict[str, str]:
    """Recorded digests, when this run is the one they were recorded for."""
    if seed != DEFAULT_SEED or scale != "full" or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


# -- speed sampler ------------------------------------------------------------
#
# The machines this runs on change speed by tens of percent within
# seconds (other tenants share the cores), so a wall time alone does not
# repeat from run to run.  Each timed operation is therefore also
# expressed in units of a fixed pure-Python reference loop, timed while
# the operation runs: a timer signal interrupts the running code every
# SAMPLE_PERIOD_S and times one short slice of the loop in between two
# bytecodes.  One "ref" is the time of REFERENCE_SLICES slices, about
# 60 ms on a quiet baseline machine.  The loop does integer arithmetic,
# dict and list work and big-integer shifts, like clp's own code, and
# calls nothing in clp.

SLICE_ITERATIONS = 1_000
SLICE_SHIFTS = 30
REFERENCE_SLICES = 60
SAMPLE_PERIOD_S = 0.02
MIN_SAMPLES = 8
# slice time on the baseline machine when it is quiet; scales set-up time
# to that speed
NOMINAL_SLICE_S = 0.001
# 2^20 bits: big-integer shifts over it stream through memory the way
# windows of a large input do
BIG = int.from_bytes(bytes(range(256)) * 512, "little")


def reference_slice() -> int:
    table = {}
    row = [0] * 64
    acc = 1
    for i in range(SLICE_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        row[i & 63] = acc >> 7
        table[acc & 1023] = table.get((acc >> 10) & 1023, 0) + row[(i * 7) & 63]
    for i in range(SLICE_SHIFTS):
        acc ^= (BIG >> (i * 33_331)) & 0xFFFFF
    return acc


def slice_seconds(budget_s: float) -> float:
    """Mean time of one reference slice, over about ``budget_s`` of slices."""
    slices = 0
    t0 = time.perf_counter()
    while True:
        reference_slice()
        slices += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / slices


class SpeedSampler:
    """Times reference slices from a timer signal while work runs.

    Use as a context manager around the rounds; ``measure`` then splits
    a timed interval into work seconds and work refs.  An inactive
    sampler installs no timer and measures refs as 0.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.at = array("d")
        self.cost = array("d")

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        self.at.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, t0: float, t1: float) -> tuple:
        """(seconds, refs) of the work done in [t0, t1].

        Slices taken inside the interval are not work, so their time is
        subtracted.  The speed is that of the slices inside, widened to
        the MIN_SAMPLES nearest ones when the interval is short.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        seconds = (t1 - t0) - sum(self.cost[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi < len(self.at) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            return seconds, 0.0
        slice_s = sum(self.cost[lo:hi]) / (hi - lo)
        return seconds, seconds / (slice_s * REFERENCE_SLICES)


# -- coders -------------------------------------------------------------------


@dataclass(frozen=True)
class CoderCase:
    name: str
    coder: str                    # "idealized" or "practical"
    x: object                     # clp.BitSequence
    p: Fraction
    dist: Fraction


def encode_case(case: CoderCase):
    codec = importlib.import_module("clp.codec")
    if case.coder == "idealized":
        return codec.encode_idealized(case.x, case.dist, case.p)
    relation = importlib.import_module("clp.matching").MatchRelation.FULL_CODELET
    return codec.encode_practical(case.x, case.dist, relation, case.p)


def check_decoded(case: CoderCase, y_enc, y_dec) -> Optional[str]:
    """Why a decoded y is wrong, or None when it is right."""
    n = case.x.length
    if y_dec != y_enc:
        return "decode(stream.to_bytes()) differs from the encoder's y"
    if y_dec.length != n:
        return f"y has {y_dec.length} symbols, x has {n}"
    budget = (case.dist.numerator * n) // case.dist.denominator
    dist = (case.x.value ^ y_dec.value).bit_count()
    if dist > budget:
        return f"Hamming distance {dist} exceeds floor(D n) = {budget}"
    return None


def decode_and_check(case: CoderCase, y_enc, data: bytes, repeats: int,
                     phase, clock: SpeedSampler) -> tuple:
    """(median decode seconds, median refs, problem or None) over ``repeats``."""
    codec = importlib.import_module("clp.codec")
    seconds, refs = [], []
    problem = None
    for _ in range(repeats):
        with phase("decode"):
            t0 = time.perf_counter()
            y_dec = codec.decode(data)
            s, r = clock.measure(t0, time.perf_counter())
        seconds.append(s)
        refs.append(r)
        problem = check_decoded(case, y_enc, y_dec)
        if problem is not None:
            break
    return statistics.median(seconds), statistics.median(refs), problem


class CoderWorkload:
    """Encode, then decode, each input once per round."""

    def __init__(self, name: str, cases: List[CoderCase], decodes: int,
                 digests: Dict[str, str]):
        self.name = name
        self.cases = cases
        self.decodes = decodes
        self.digests = digests
        self.source_bits = sum(c.x.length for c in cases)

    def round(self, tally: Tally, phase, clock: SpeedSampler) -> Dict[str, object]:
        enc: Dict[str, float] = {}
        dec: Dict[str, float] = {}
        enc_ref: List[float] = []
        dec_ref: List[float] = []
        gaps: List[float] = []
        rd_math = importlib.import_module("clp.rd_math")
        for case in self.cases:
            what = f"{self.name}/{case.name}"
            try:
                with phase("encode"):
                    t0 = time.perf_counter()
                    res = encode_case(case)
                    enc[case.name], r = clock.measure(t0, time.perf_counter())
                enc_ref.append(r)
                data = res.stream.to_bytes()
                dec[case.name], r, problem = decode_and_check(
                    case, res.y, data, self.decodes, phase, clock)
                dec_ref.append(r)
                want = self.digests.get(case.name)
                if problem is None and want is not None and sha256_hex(data) != want:
                    problem = "stream sha256 differs from the recorded digest"
                n = case.x.length
                gaps.append(res.stream.payload_bits / n
                            - rd_math.rate_distortion(case.p, case.dist))
            except Exception as exc:  # a clp failure fails this operation only
                problem = f"{type(exc).__name__}: {exc}"
            tally.record(what, problem)
        return {"main_s": sum(enc.values()), "aux_s": sum(dec.values()),
                "main_time": sum(enc_ref), "aux_time": sum(dec_ref),
                "encode_s": enc, "decode_s": dec, "rate_gaps": gaps}

    def digest_round(self) -> Dict[str, str]:
        return {c.name: sha256_hex(encode_case(c).stream.to_bytes()) for c in self.cases}


def _rng(seed: int, workload: int, case: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, case])


def idealized_cases(scale: Scale, seed: int) -> List[CoderCase]:
    bits = importlib.import_module("clp.bits")
    p = Fraction(1, 2)
    return [CoderCase(f"n{n}", "idealized", bits.bernoulli(_rng(seed, 1, i), n, float(p)),
                      p, Fraction(11, 100))
            for i, n in enumerate(scale.idealized_ns)]


def practical_cases(scale: Scale, seed: int) -> List[CoderCase]:
    bits = importlib.import_module("clp.bits")
    n = scale.practical_n
    sources = ((Fraction(1, 2), Fraction(11, 100)), (Fraction(3, 10), Fraction(1, 20)))
    return [CoderCase(f"p{p.numerator}_{p.denominator}", "practical",
                      bits.bernoulli(_rng(seed, 2, i), n, float(p)), p, d)
            for i, (p, d) in enumerate(sources)]


# -- lemma suite ------------------------------------------------------------


class LemmaWorkload:
    """The criterion-8 checks plus cycle_lemma, with fewer trials.

    The Monte Carlo checks run once per round and make up main_s; the
    two exact checks are short, so each runs exact_repeats times and
    aux_s sums their medians.
    """

    def __init__(self, scale: Scale, seed: int, workers: int, digests: Dict[str, str]):
        harness = importlib.import_module("clp.harness")
        self.base = harness.ExperimentConfig(trials=scale.trials, seed=seed,
                                             workers=workers)
        self.frontier = harness.ExperimentConfig(
            dist=Fraction(11, 100), ell=0, n_values=(scale.frontier_n,),
            trials=scale.frontier_encodes, seed=seed, workers=workers)
        self.repeats = scale.exact_repeats
        self.digests = digests
        self.name = "lemma-suite"

    def config_for(self, check: str):
        return self.frontier if check == "check_frontier_growth" else self.base

    def _run(self, check: str, tally: Tally, phase, clock: SpeedSampler) -> tuple:
        """(seconds, refs) one check took; records its outcome in the tally."""
        harness = importlib.import_module("clp.harness")
        took = (0.0, 0.0)
        try:
            with phase("verify"):
                t0 = time.perf_counter()
                report = getattr(harness, check)(self.config_for(check))
                took = clock.measure(t0, time.perf_counter())
            problem = None if report.passed else f"passed=False: {report.summary()}"
            want = self.digests.get(check)
            if problem is None and want is not None and report_digest(report) != want:
                problem = "report sha256 differs from the recorded digest"
        except Exception as exc:  # a clp failure fails this operation only
            problem = f"{type(exc).__name__}: {exc}"
        tally.record(f"{self.name}/{check}", problem)
        return took

    def round(self, tally: Tally, phase, clock: SpeedSampler) -> Dict[str, object]:
        seconds: Dict[str, float] = {}
        refs: Dict[str, float] = {}
        for check in MONTE_CARLO_CHECKS:
            seconds[check], refs[check] = self._run(check, tally, phase, clock)
        for check in EXACT_CHECKS:
            took = [self._run(check, tally, phase, clock) for _ in range(self.repeats)]
            seconds[check] = statistics.median([s for s, _ in took])
            refs[check] = statistics.median([r for _, r in took])
        mc, exact = MONTE_CARLO_CHECKS, EXACT_CHECKS
        return {"main_s": sum(seconds[c] for c in mc), "aux_s": sum(seconds[c] for c in exact),
                "main_time": sum(refs[c] for c in mc), "aux_time": sum(refs[c] for c in exact),
                "check_s": seconds}

    def digest_round(self) -> Dict[str, str]:
        harness = importlib.import_module("clp.harness")
        return {c: report_digest(getattr(harness, c)(self.config_for(c)))
                for c in MONTE_CARLO_CHECKS + EXACT_CHECKS}


WORKLOADS = ("idealized-large", "practical", "lemma-suite")


def build(workload: str, seed: int, scale_name: str, workers: int):
    """Generate the workload's inputs from the seed."""
    scale = SCALES[scale_name]
    digests = load_digests(workload, seed, scale_name)
    if workload == "idealized-large":
        return CoderWorkload(workload, idealized_cases(scale, seed),
                             scale.idealized_decodes, digests)
    if workload == "practical":
        return CoderWorkload(workload, practical_cases(scale, seed),
                             scale.practical_decodes, digests)
    if workload == "lemma-suite":
        return LemmaWorkload(scale, seed, workers, digests)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(scale: Scale, tally: Tally) -> None:
    """One small round trip of each coder, so lazy set-up is done."""
    bits = importlib.import_module("clp.bits")
    codec = importlib.import_module("clp.codec")
    x = bits.bernoulli(np.random.default_rng(0), scale.warmup_n, 0.5)
    for coder in ("idealized", "practical"):
        case = CoderCase("warm-up", coder, x, Fraction(1, 2), Fraction(11, 100))
        try:
            res = encode_case(case)
            problem = check_decoded(case, res.y, codec.decode(res.stream.to_bytes()))
        except Exception as exc:  # a clp failure fails this operation only
            problem = f"{type(exc).__name__}: {exc}"
        tally.record(f"warm-up/{coder}", problem)


NO_PHASE: Callable = lambda name: nullcontext()
