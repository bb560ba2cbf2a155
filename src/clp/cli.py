"""Command line front end: encode, decode, rd, analyze.

File bits are read most-significant-bit first within each byte, the
usual order for binary files; a reconstruction whose bit count is not
a byte multiple is zero-padded at the end of the last byte.

Exit codes: 0 success, 1 usage error, 2 corrupt or truncated stream,
3 one or more analysis checks failed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional

from .bits import BitSequence
from .codec import (
    EncodedStream,
    coding_rate,
    decode,
    encode_idealized,
    encode_practical,
)
from .dictionary import LevelConfig, default_step
from .errors import CorruptStream, Infeasible
from .harness import ExperimentConfig, LemmaReport, rate_sweep, run_checks
from .matching import hamming_distance
from .rd_math import lower_mutual_info, rate_distortion, target_reproduction_type

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORRUPT = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction like 11/100")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{text} lies outside [0, 1]")
    return value


def _step(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; 0 picks the step from the input length")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clp",
                     description="Lossy compression of binary sequences "
                                 "under a Hamming distortion budget.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    enc = sub.add_parser("encode", help="compress a file of bits")
    enc.add_argument("--in", dest="infile", required=True, metavar="FILE")
    enc.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    enc.add_argument("--distortion", type=_fraction, required=True, metavar="NUM/DEN",
                     help="per-symbol Hamming budget D")
    enc.add_argument("--p", type=_fraction, default=None, metavar="NUM/DEN",
                     help="source bias when known; estimated adaptively otherwise")
    enc.add_argument("--variant", choices=("practical", "idealized"),
                     default="idealized")
    enc.add_argument("--ell", type=_step, default=0, metavar="K",
                     help="level step for the idealized coder, >= 0 (0 = auto)")
    enc.add_argument("--delta", type=float, default=0.01, metavar="F",
                     help="search give-up budget for the idealized coder")
    enc.add_argument("--seed", type=int, default=0, metavar="S",
                     help="accepted for interface stability; both coders "
                          "are deterministic, so it has no effect")
    enc.add_argument("--bits", type=int, default=None, metavar="N",
                     help="encode only the first N bits of the input")

    dec = sub.add_parser("decode", help="reconstruct bits from a stream")
    dec.add_argument("--in", dest="infile", required=True, metavar="FILE")
    dec.add_argument("--out", dest="outfile", required=True, metavar="FILE")

    rd = sub.add_parser("rd", help="print the rate-distortion point")
    rd.add_argument("--p", type=_fraction, required=True, metavar="NUM/DEN")
    rd.add_argument("--distortion", type=_fraction, required=True, metavar="NUM/DEN")

    ana = sub.add_parser("analyze", help="run verification checks or rate sweeps")
    ana.add_argument("--check", required=True, metavar="NAME|all",
                     help="comma-separated check names, 'all', or 'rate_sweep'")
    ana.add_argument("--config", default=None, metavar="FILE",
                     help="flat key = value experiment settings")
    ana.add_argument("--out", default=None, metavar="CSV")
    ana.add_argument("--timings", action="store_true",
                     help="print each check's elapsed seconds and sample count to stderr")
    return parser


def _cmd_encode(args) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read()
    if args.bits is not None and not 0 <= args.bits <= 8 * len(data):
        raise ValueError(f"--bits {args.bits} but the file holds {8 * len(data)} bits")
    x = BitSequence.from_bytes_msb(data, args.bits)
    if args.variant == "practical":
        result = encode_practical(x, args.distortion, src=args.p)
    else:
        ell = args.ell if args.ell >= 1 else default_step(x.length)
        cfg = LevelConfig(ell=ell, delta=args.delta)
        result = encode_idealized(x, args.distortion, args.p, cfg)
    stream, y = result.stream, result.y
    blob = stream.to_bytes()
    with open(args.outfile, "wb") as fh:
        fh.write(blob)
    dist = hamming_distance(x, y) / x.length if x.length else 0.0
    print(f"{x.length} bits -> {len(blob)} bytes "
          f"({coding_rate(stream):.4f} bits/symbol, distortion {dist:.4f})")
    return EXIT_OK


def _cmd_decode(args) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read()
    stream = EncodedStream.from_bytes(data)
    y = decode(stream)
    with open(args.outfile, "wb") as fh:
        fh.write(y.to_bytes_msb())
    print(f"{len(data)} bytes -> {y.length} bits")
    return EXIT_OK


def _cmd_rd(args) -> int:
    p, d = args.p, args.distortion
    rate = rate_distortion(p, d)
    qstar = target_reproduction_type(p, d)
    print(f"p = {p}   D = {d}")
    print(f"R(D) = {rate:.9f} bits/symbol")
    print(f"q*   = {qstar} = {float(qstar):.9f}")
    print()
    print("  q       I_m(q, p, D)")
    for k in range(21):
        q = Fraction(k, 20)
        try:
            info = f"{lower_mutual_info(q, p, d):.9f}"
        except Infeasible:
            info = "infeasible"
        mark = "  <- q*" if q == qstar else ""
        print(f"  {float(q):.2f}    {info}{mark}")
    return EXIT_OK


REPORT_COLUMNS = ["check", "estimate", "bound", "samples",
                  "std_error", "direction", "passed"]


def _write_reports(reports: List[LemmaReport], out: Optional[str]) -> None:
    if not out:
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([r.lemma_id, repr(r.estimate), repr(r.bound),
                             r.samples, repr(r.std_error), r.direction,
                             "pass" if r.passed else "fail"])


def _print_timing(name: str, report: LemmaReport, seconds: float) -> None:
    print(f"timing {name}: {seconds:.3f} s, {report.samples} samples", file=sys.stderr)


def _cmd_analyze(args) -> int:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    names = tuple(t.strip() for t in args.check.split(",") if t.strip())
    if not names:
        raise ValueError("--check names are empty")
    out = args.out if args.out is not None else cfg.out
    if "rate_sweep" in names:
        if names != ("rate_sweep",):
            raise ValueError("rate_sweep emits its own CSV; select it alone")
        rows = rate_sweep(replace(cfg, out=out))
        aggregates = [r for r in rows if r["seed"] == "mean"]
        for row in aggregates:
            print(f"n={row['n']}: rate {row['rate']:.4f}  "
                  f"R(D) {row['R(D)']:.4f}  gap {row['gap']:.4f}")
        if out:
            print(f"wrote {len(rows)} rows to {out}")
        return EXIT_OK
    cfg = replace(cfg, checks=names, out=out)
    reports = run_checks(cfg, _print_timing if args.timings else None)
    _write_reports(reports, out)
    for r in reports:
        print(r.summary())
    if out:
        print(f"wrote {len(reports)} rows to {out}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"encode": _cmd_encode, "decode": _cmd_decode,
               "rd": _cmd_rd, "analyze": _cmd_analyze}[args.command]
    try:
        return handler(args)
    except CorruptStream as exc:
        print(f"clp: corrupt stream: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (ValueError, OSError) as exc:
        print(f"clp: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
