"""Tests of the benchmark itself, at the tiny scale.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import pytest

import bench_trace
import bench_workloads as bw
import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_runs_restore_every_patched_attribute(capsys):
    before = bench_trace.snapshot()
    assert len(before) > len(bench_trace.TARGETS)  # imported names count too
    for trace in (0, 1):
        _run(capsys, "idealized-large", trace)
        after = bench_trace.snapshot()
        assert before.keys() == after.keys()
        assert all(after[k] is v for k, v in before.items())


def test_untraced_run_installs_no_wrappers(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the untraced run patched clp")
    monkeypatch.setattr(bench_trace, "Patches", refuse)
    _, result = _run(capsys, "practical", 0)
    assert result["correct"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_are_the_benchmark_names(capsys, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in bw.WORKLOADS:
        _, result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        metrics = result["metrics"]
        assert set(metrics) == set(declared)
        for name, metric in metrics.items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_tiny_run_has_no_failures(capsys, workload):
    lines, result = _run(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "report failed_share = 0.0 ratio" in lines
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_splits_encode_time(capsys):
    _, result = _run(capsys, "idealized-large", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["encode.codec.encode_idealized.calls"] == 2
    assert 0 < m["encode.codec.encode_idealized.self_s"] < m["encode.codec.encode_idealized.s"]
    assert m["encode.codec.encode_idealized.s"] <= m["encode.total.s"]
    assert m["encode.bits.window.calls"] > 0 and m["encode.dictionary.search.calls"] > 0
    assert m["encode.codec.payload_bits"] > 0 and m["trace.overhead_ratio"] > 0
    assert (run.SPAN_DIR / "spans-idealized-large.npz").is_file()


def _corrupting(mutate):
    """encode_case whose stream bytes come out mutated."""
    original = bw.encode_case
    codec = __import__("clp.codec", fromlist=["EncodedStream"])

    def encode(case):
        res = original(case)
        stream = res.stream
        bad = codec.EncodedStream(stream.header, mutate(stream.payload), stream.payload_bits)
        return res._replace(stream=bad)
    return encode


@pytest.mark.parametrize("workload", ["idealized-large", "practical"])
@pytest.mark.parametrize("mutate", [
    lambda p: p[: len(p) // 2],
    lambda p: p[:8] + bytes([p[8] ^ 0xFF]) + p[9:],
], ids=["truncated", "flipped"])
def test_corrupted_stream_is_a_failed_operation(monkeypatch, workload, mutate):
    wl = bw.build(workload, 5, "tiny", 1)
    monkeypatch.setattr(bw, "encode_case", _corrupting(mutate))
    tally = bw.Tally()
    wl.round(tally, bw.NO_PHASE, bw.SpeedSampler(active=False))
    assert tally.attempted == len(wl.cases)
    assert tally.failed == len(wl.cases)


def test_digest_mismatch_is_a_failed_operation():
    wl = bw.build("practical", 5, "tiny", 1)
    wl.digests = {case.name: "0" * 64 for case in wl.cases}
    tally = bw.Tally()
    wl.round(tally, bw.NO_PHASE, bw.SpeedSampler(active=False))
    assert tally.failed == len(wl.cases)
    assert all("digest" in r for r in tally.reasons)


def test_failed_lemma_check_and_exception_are_counted(monkeypatch):
    wl = bw.build("lemma-suite", 5, "tiny", 1)
    harness = __import__("clp.harness", fromlist=["check_cycle_lemma"])
    real = harness.check_cycle_lemma

    def failing(cfg):
        return dataclasses.replace(real(cfg), estimate=-1.0, passed=False)

    def raising(cfg):
        raise RuntimeError("boom")
    monkeypatch.setattr(harness, "check_cycle_lemma", failing)
    monkeypatch.setattr(harness, "check_ball_intersection", raising)
    tally = bw.Tally()
    wl.round(tally, bw.NO_PHASE, bw.SpeedSampler(active=False))
    assert tally.failed == 2
    assert any("passed=False" in r for r in tally.reasons)
    assert any("RuntimeError: boom" in r for r in tally.reasons)


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "practical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
