#!/usr/bin/env python3
"""Benchmark of clp against its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload idealized-large --seed 1 --seconds 20 --trace 0

It imports ``clp`` from the checkout's ``src/`` (there is nothing to
build), generates the workload's inputs from ``--seed``, and repeats
rounds of the workload for ``--seconds`` seconds, checking every output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, taken by wrapping
clp's functions from outside (see bench_trace.py).  The lines before it
report the derived metrics of each workload (bits/s, doubling factor,
rate gap, failed share) and the machine.  README.md in this directory
defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace
import bench_workloads as bw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
SETUP_BRACKET_S = 0.25
SPAN_DIR = ROOT / ".perfbench"

END_TO_END = (("main_time", "ref"), ("aux_time", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Functions whose per-layer metrics each phase reports.
PHASE_FUNCS = {
    "encode": (
        "bits.window", "bits.concat_bits",
        "dictionary.search", "dictionary.find_matches", "dictionary.extend_codelet",
        "dictionary.promote", "dictionary.fill_level1", "dictionary.cap",
        "codec.encode_idealized", "codec.encode_practical", "codec.write_trunc",
        "codec.select_codelet", "codec.lz78_encode",
        "rd_math.lower_mutual_info_float",
    ),
    "decode": (
        "codec.decode", "codec.read_trunc", "codec.lz78_decode", "bits.concat_bits",
        "dictionary.promote", "dictionary.fill_level1", "dictionary.cap",
    ),
    "verify": (
        *("harness." + check for check in bench_trace.CHECKS),
        "matching.match_probability_exact", "matching.ball_probability_exact",
        "matching.cycle_lemma_lower_bound_exact",
        "codec.encode_idealized", "codec.write_trunc", "dictionary.search",
        "dictionary.promote", "dictionary.fill_level1", "dictionary.cap",
        "bits.window", "bits.bernoulli", "bits.concat_bits",
    ),
}
SELF_TIME = ("codec.encode_idealized", "codec.encode_practical", "codec.decode")
RESULT_COUNTS = (("codec.phrases", "count"), ("codec.escapes", "count"),
                 ("codec.payload_bits", "bits"), ("dictionary.give_ups", "count"))


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for phase, funcs in PHASE_FUNCS.items():
        out.append((f"{phase}.total.s", "s"))
        for f in funcs:
            name = f"{phase}.{f}"
            if f.startswith("harness."):
                out += [(f"{name}.s", "s"), (f"{name}.samples", "count")]
                continue
            out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
            if f in SELF_TIME:
                out.append((f"{name}.self_s", "s"))
            if f == "dictionary.search":
                out.append((f"{name}.hit_ratio", "ratio"))
            if f == "dictionary.find_matches":
                out.append((f"{name}.candidates_per_call", "1/call"))
        if phase != "decode":
            out += [(f"{phase}.{c}", unit) for c, unit in RESULT_COUNTS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("idealized-large", "practical", "lemma-suite"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import, generate inputs and warm up, then exit")
    ap.add_argument("--write-digests", action="store_true",
                    help="record stream and report digests of the default seed")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        ap.error("--seed must be a nonnegative 63-bit integer")
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must lie in [1, 600]")
    return args


# -- machine ----------------------------------------------------------------


def _git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((src / "clp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "clp_commit": _git_commit(ROOT),
        "clp_source_sha256": _source_digest(SRC),
    }


# -- measurement --------------------------------------------------------------


def measure_setup(args, tally) -> tuple:
    """(scaled, wall) median seconds of fresh processes that only set up.

    Each probe is a new interpreter that imports clp, generates the
    inputs and warms up.  Its wall time is also scaled to the nominal
    reference speed, measured with reference slices right before and
    right after it, so that a change of the machine's load between runs
    does not read as a change of set-up cost.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    scaled, wall = [], []
    before = bw.slice_seconds(SETUP_BRACKET_S)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        wall.append(time.perf_counter() - t0)
        after = bw.slice_seconds(SETUP_BRACKET_S)
        scaled.append(wall[-1] * bw.NOMINAL_SLICE_S / ((before + after) / 2))
        before = after
        tally.record("set-up", None if proc.returncode == 0 else
                     f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]!r}")
    return statistics.median(scaled), statistics.median(wall)


def run_rounds(workload, tally, phase, seconds: float, tracer=None, sample=True):
    """Closed loop: one round at a time for at most ``seconds``.

    A round starts only if a round of median length still fits, so a
    run ends within its time on slow machines too; the first round
    always runs.  ``sample`` times the reference slices behind the
    "ref" metrics; the traced run turns it off.
    """
    rounds = []
    start = time.perf_counter()
    with bw.SpeedSampler(active=sample) as clock:
        while True:
            gc.collect()
            if tracer is not None:
                tracer.round = len(rounds)
            t0 = time.perf_counter()
            result = workload.round(tally, phase, clock)
            result["wall_s"] = time.perf_counter() - t0
            rounds.append(result)
            typical = statistics.median(r["wall_s"] for r in rounds)
            if time.perf_counter() - start + typical > seconds:
                return rounds


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def derived_report(workload, rounds, tally):
    """Derived metrics that apply to this workload, name -> (value, unit)."""
    main = [r["main_s"] for r in rounds]
    aux = [r["aux_s"] for r in rounds]
    out = {"rounds": (len(rounds), "count"),
           "main_s": (_quartiles(main), "s"),
           "aux_s": (_quartiles(aux), "s"),
           "main_time": (_quartiles([r["main_time"] for r in rounds]), "ref"),
           "aux_time": (_quartiles([r["aux_time"] for r in rounds]), "ref"),
           "failed_share": (tally.failed / tally.attempted, "ratio")}
    if workload.name == "lemma-suite":
        out["verify_s"] = (statistics.median(m + a for m, a in zip(main, aux)), "s")
        return out
    bits = workload.source_bits
    out["encode_bits_per_s"] = (bits / statistics.median(main), "bits/s")
    out["decode_bits_per_s"] = (bits / statistics.median(aux), "bits/s")
    gaps = rounds[0]["rate_gaps"]
    if gaps:
        out["rate_gap"] = (sum(gaps) / len(gaps), "bits/symbol")
    if workload.name == "idealized-large":
        small, large = (c.name for c in workload.cases)
        ratios = [r["encode_s"][large] / r["encode_s"][small] for r in rounds
                  if small in r["encode_s"] and large in r["encode_s"]]
        if ratios:
            out["encode_doubling"] = (statistics.median(ratios), "ratio")
    return out


def layer_metrics(tracer, rounds, baseline_wall):
    """Per-layer metrics: medians over traced rounds, counts per round."""
    nr = len(rounds)
    per = tracer.per_round(nr)
    values = {}
    for phase, funcs in PHASE_FUNCS.items():
        values[f"{phase}.total.s"] = statistics.median(
            s for _, s, _ in per[(phase, f"phase.{phase}")])
        for f in funcs:
            rows = per[(phase, f)]
            name = f"{phase}.{f}"
            values[f"{name}.s"] = statistics.median(s for _, s, _ in rows)
            if f.startswith("harness."):
                values[f"{name}.samples"] = tracer.counts[(phase, f"{f}.samples")] / nr
                continue
            calls = sum(c for c, _, _ in rows)
            values[f"{name}.calls"] = calls / nr
            if f in SELF_TIME:
                values[f"{name}.self_s"] = statistics.median(x for _, _, x in rows)
            if f == "dictionary.search":
                hits = tracer.counts[(phase, "dictionary.search.hits")]
                values[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
            if f == "dictionary.find_matches":
                cand = tracer.counts[(phase, "dictionary.find_matches.candidates")]
                values[f"{name}.candidates_per_call"] = cand / calls if calls else 0.0
        if phase != "decode":
            for c, _ in RESULT_COUNTS:
                values[f"{phase}.{c}"] = tracer.counts[(phase, c)] / nr
    traced = statistics.median(r["wall_s"] for r in rounds)
    values["trace.overhead_ratio"] = traced / baseline_wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_metric_units()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clp" / "__init__.py").is_file():
        print(f"perfbench: no clp sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workers = min(2, os.cpu_count() or 1)
    tally = bw.Tally()
    workload = bw.build(args.workload, args.seed, args.scale, workers)
    bw.warm_up(bw.SCALES[args.scale], tally)
    if args.setup_probe:
        return 0 if tally.failed == 0 else 1
    if args.write_digests:
        if args.seed != bw.DEFAULT_SEED or args.scale != "full":
            print("perfbench: digests are recorded at the default seed and full scale",
                  file=sys.stderr)
            return 2
        table = json.loads(bw.DIGESTS.read_text()) if bw.DIGESTS.exists() else {}
        table[args.workload] = workload.digest_round()
        bw.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return 0

    if args.trace:
        baseline = run_rounds(workload, tally, bw.NO_PHASE, 0, sample=False)[0]["wall_s"]
        tracer = bench_trace.Tracer()
        patches = bench_trace.Patches(tracer)
        try:
            rounds = run_rounds(workload, tally, tracer.span_phase,
                                max(args.seconds - baseline, 0), tracer, sample=False)
        finally:
            patches.restore()
        metrics = layer_metrics(tracer, rounds, baseline)
        tracer.write(SPAN_DIR / f"spans-{args.workload}.npz")
    else:
        setup_s, setup_wall_s = measure_setup(args, tally)
        rounds = run_rounds(workload, tally, bw.NO_PHASE, args.seconds)
        values = {
            "main_time": statistics.median(r["main_time"] for r in rounds),
            "aux_time": statistics.median(r["aux_time"] for r in rounds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report = derived_report(workload, rounds, tally)
        report["setup_wall_s"] = (setup_wall_s, "s")
        for name, (value, unit) in report.items():
            print(f"report {name} = {value} {unit}")

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for reason in tally.reasons:
        print(f"failed {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
