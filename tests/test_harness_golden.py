"""Golden digest of the lemma harness's deterministic output.

Every CHECKS report (or the exception a check raises) at a few small
configurations, plus the rate_sweep rows without their runtime column,
hash to one sha256.  A refactor of the coders or the dictionary must
leave it alone; a deliberate change to a check updates GOLDEN_SHA256
and says so.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction

from clp.harness import CHECKS, ExperimentConfig, rate_sweep

GOLDEN_SHA256 = "248ec9c795fead1156aa14d2e0b29ef0a4f34b4a0a75ef0457bcaecc917d41a0"

CONFIGS = (
    # defaults at desk scale: every check runs
    ExperimentConfig(trials=60, build_count=3, build_n=2048, seed=5, n_values=(512, 1024)),
    # odd step and a type that several checks cannot realize, so they raise
    ExperimentConfig(p=Fraction(3, 10), dist=Fraction(1, 10), ell=3, depth=6, trials=30,
                     build_count=3, build_n=700, seed=11, n_values=(777,)),
    # auto step, and an n large enough for short_phrases to count levels
    ExperimentConfig(ell=0, trials=3, build_count=2, build_n=1500, seed=3,
                     n_values=(1 << 15,)),
)


def _check_records(cfg):
    for name, check in CHECKS.items():
        try:
            report = dataclasses.asdict(check(cfg))
        except Exception as exc:  # the raised error is part of the contract
            report = {"raised": type(exc).__name__, "message": str(exc)}
        yield name, json.dumps(report, sort_keys=True, default=str)


def _sweep_rows(cfg):
    rows = rate_sweep(dataclasses.replace(cfg, trials=2))
    return [{k: v for k, v in row.items() if k != "runtime"} for row in rows]


def test_harness_golden_digest():
    digest = hashlib.sha256()
    for cfg in CONFIGS:
        for record in _check_records(cfg):
            digest.update(repr(record).encode())
        digest.update(json.dumps(_sweep_rows(cfg), sort_keys=True, default=str).encode())
    assert digest.hexdigest() == GOLDEN_SHA256
