"""Command line behavior: plumbing, formats, and exit codes."""

import csv
import re

import numpy as np
import pytest

from clp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CORRUPT,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_COLUMNS,
    main,
)


@pytest.fixture
def raw_file(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "input.bin"
    path.write_bytes(rng.bytes(512))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestEncodeDecode:
    def test_round_trip_idealized(self, tmp_path, raw_file, capsys):
        enc = tmp_path / "out.clp"
        dec = tmp_path / "back.bin"
        assert run("encode", "--in", raw_file, "--out", enc,
                   "--distortion", "1/4", "--p", "1/2") == EXIT_OK
        banner = capsys.readouterr().out
        assert "4096 bits" in banner
        assert run("decode", "--in", enc, "--out", dec) == EXIT_OK
        assert dec.stat().st_size == 512

    def test_lossless_practical_is_exact(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        dec = tmp_path / "back.bin"
        assert run("encode", "--in", raw_file, "--out", enc,
                   "--variant", "practical", "--distortion", "0") == EXIT_OK
        assert run("decode", "--in", enc, "--out", dec) == EXIT_OK
        assert dec.read_bytes() == raw_file.read_bytes()

    def test_bit_limit_truncates(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        dec = tmp_path / "back.bin"
        assert run("encode", "--in", raw_file, "--out", enc,
                   "--distortion", "0", "--variant", "practical",
                   "--bits", "1000") == EXIT_OK
        assert run("decode", "--in", enc, "--out", dec) == EXIT_OK
        assert dec.stat().st_size == 125  # ceil(1000 / 8)

    def test_seed_flag_changes_nothing(self, tmp_path, raw_file):
        a = tmp_path / "a.clp"
        b = tmp_path / "b.clp"
        run("encode", "--in", raw_file, "--out", a, "--distortion", "1/4",
            "--seed", "1")
        run("encode", "--in", raw_file, "--out", b, "--distortion", "1/4",
            "--seed", "999")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("encode", "--in", tmp_path / "nope.bin",
                   "--out", tmp_path / "x", "--distortion", "1/4") == EXIT_USAGE

    def test_bad_fraction_is_usage_error(self, tmp_path, raw_file, capsys):
        with pytest.raises(SystemExit) as err:
            run("encode", "--in", raw_file, "--out", tmp_path / "x",
                "--distortion", "banana")
        assert err.value.code == EXIT_USAGE

    def test_corrupt_magic(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4")
        blob = bytearray(enc.read_bytes())
        blob[0] ^= 0xFF
        enc.write_bytes(bytes(blob))
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT

    def test_practical_stream_relabelled_idealized(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4",
            "--variant", "practical")
        blob = bytearray(enc.read_bytes())
        blob[31] = 1  # coder id: idealized, but the header step is 0
        enc.write_bytes(bytes(blob))
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT

    def test_idealized_stream_with_full_codelet_relation(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4")
        blob = bytearray(enc.read_bytes())
        blob[32] = 0  # match relation: full-codelet, which the idealized coder never writes
        enc.write_bytes(bytes(blob))
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT

    def test_unknown_source_with_nonzero_numerator(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4")
        blob = bytearray(enc.read_bytes())
        blob[21:25] = (12345).to_bytes(4, "big")  # p numerator beside the "unknown" denominator
        blob[25:29] = b"\xff" * 4
        enc.write_bytes(bytes(blob))
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT

    def test_idealized_stream_with_unknown_source(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4")
        blob = bytearray(enc.read_bytes())
        blob[21:29] = bytes(4) + b"\xff" * 4  # p "unknown", which no idealized header may say
        enc.write_bytes(bytes(blob))
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT

    def test_negative_level_step_is_usage_error(self, tmp_path, raw_file, capsys):
        with pytest.raises(SystemExit) as err:
            run("encode", "--in", raw_file, "--out", tmp_path / "x",
                "--distortion", "1/4", "--ell", "-3")
        assert err.value.code == EXIT_USAGE
        assert "-3 is negative" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_truncated_stream(self, tmp_path, raw_file):
        enc = tmp_path / "out.clp"
        run("encode", "--in", raw_file, "--out", enc, "--distortion", "1/4")
        enc.write_bytes(enc.read_bytes()[:40])
        assert run("decode", "--in", enc, "--out", tmp_path / "y") == EXIT_CORRUPT


class TestRdTable:
    def test_known_point(self, capsys):
        assert run("rd", "--p", "1/2", "--distortion", "1/4") == EXIT_OK
        out = capsys.readouterr().out
        assert "R(D) = 0.188721876 bits/symbol" in out
        assert "q*   = 1/2 = 0.500000000" in out
        assert "<- q*" in out
        assert "infeasible" in out

    def test_zero_rate_point(self, capsys):
        assert run("rd", "--p", "1/2", "--distortion", "1/2") == EXIT_OK
        out = capsys.readouterr().out
        assert "R(D) = 0.000000000" in out


class TestAnalyze:
    def test_single_check_with_csv(self, tmp_path, capsys):
        out = tmp_path / "reports.csv"
        assert run("analyze", "--check", "cycle_lemma", "--out", out) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "cycle-lemma: pass" in stdout
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == REPORT_COLUMNS
            row = next(reader)
            assert row[0] == "cycle-lemma" and row[-1] == "pass"

    def test_timings_go_to_stderr_only(self, tmp_path, capsys):
        outputs = []
        for flags in ((), ("--timings",)):
            out = tmp_path / f"reports{len(flags)}.csv"
            code = run("analyze", "--check", "cycle_lemma,ball_intersection",
                       "--out", out, *flags)
            captured = capsys.readouterr()
            outputs.append((code, captured.out.replace(str(out), "CSV"), out.read_text(),
                            captured.err))
        (code, stdout, csv_text, err), (t_code, t_stdout, t_csv_text, t_err) = outputs
        assert (t_code, t_stdout, t_csv_text) == (code, stdout, csv_text) and code == EXIT_OK
        assert err == ""
        lines = t_err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "timing cycle_lemma", "timing ball_intersection"]
        assert re.fullmatch(r"timing ball_intersection: \d+\.\d{6} s, 19600 samples", lines[1])

    def test_unknown_check(self):
        assert run("analyze", "--check", "no_such_thing") == EXIT_USAGE

    def test_failing_check_exits_three(self, tmp_path, capsys):
        # at D = 1/4 the short-phrase mass genuinely exceeds the n/log^2 n
        # allowance at this horizon, so the verdict must be an honest FAIL
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p = 1/2\nd = 1/4\nell = 2\nn = 262144\nseed = 3\n")
        code = run("analyze", "--check", "short_phrases", "--config", cfg)
        assert code == EXIT_CHECK_FAILED
        assert "short-phrases: FAIL" in capsys.readouterr().out

    def test_rate_sweep_must_run_alone(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 256\ntrials = 1\n")
        assert run("analyze", "--check", "rate_sweep,symmetry",
                   "--config", cfg) == EXIT_USAGE

    def test_rate_sweep_alone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 256, 512\ntrials = 2\nd = 11/100\nell = 0\nseed = 1\n")
        out = tmp_path / "rates.csv"
        assert run("analyze", "--check", "rate_sweep", "--config", cfg,
                   "--out", out) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "n=256" in stdout and "n=512" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 + 2  # header, cells, aggregates

    def test_config_file_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        assert run("analyze", "--check", "symmetry", "--config", cfg) == EXIT_USAGE
