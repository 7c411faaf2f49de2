"""Command-line front end: solve, count, check, and sieve subcommands.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 for a solution,
a valid grid or a finished sieve; 1 for none or an invalid grid; 2 for parse
and usage errors, unreadable or non-UTF-8 input (a closed stdin included),
a sieve bound above sys.maxsize, and a stdout that is closed or cannot be
written, --help's included; 141 (128 + SIGPIPE) when the reader closes
stdout early, as `sieve N | head` does.

`sieve N` writes the decimal text that `sieve.prime_text` makes, one
segment of 10**5 numbers per write, so neither a list of the primes nor
an int per number is made.
"""

from __future__ import annotations

import argparse
import os
import sys

from .grid import (IncompleteGridError, PuzzleFormatError, is_sudoku_matrix,
                   parse, render)
from .sieve import prime_text
from .solver import ConflictError, Event, SolveReport, solve


def _read_text(path: str) -> str:
    if path == "-":
        if sys.stdin is None:           # started with fd 0 closed
            raise OSError("stdin is closed")
        # Decode stdin's bytes strictly as UTF-8, as a file is, whatever
        # its text encoding.
        return sys.stdin.buffer.read().decode()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _ascii_int(text: str) -> int:
    """A number in ASCII digits only, as parse() reads a clue: no sign.
    Leading zeros do not count toward int()'s digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:          # past int()'s digit limit
        raise argparse.ArgumentTypeError(
            f"invalid number of {len(digits)} digits") from None


def _count_field(report: SolveReport) -> str:
    return str(report.solution_count) + ("+" if report.truncated else "")


def _stats_line(report: SolveReport) -> str:
    return (f"solutions={_count_field(report)} "
            f"trials={report.trials} passes={report.propagation_passes}")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line and return the process exit code."""
    if args.subcommand == "sieve":
        try:
            for text in prime_text(args.bound):
                sys.stdout.write(text)
        except (OverflowError, MemoryError):
            print(f"error: N={args.bound} is too large to sieve",
                  file=sys.stderr)
            return 2
        return 0

    try:
        g = parse(_read_text(args.input))
    except (PuzzleFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.subcommand == "check":
        try:
            ok = is_sudoku_matrix(g)
        except IncompleteGridError:
            print("error: check requires a complete grid (no blanks)",
                  file=sys.stderr)
            return 2
        print("VALID" if ok else "INVALID")
        return 0 if ok else 1

    solving = args.subcommand == "solve"
    # Only solve renders a board, so only solve needs its format to fit.
    if solving and args.format == "classic" and g.order != 3:
        print("error: classic format requires an order-3 board",
              file=sys.stderr)
        return 2
    try:
        report = solve(g, cap=1 if solving else 0,
                       limit=1 if solving else args.limit)
    except ConflictError as exc:
        print(f"conflicting clues: {exc}", file=sys.stderr)
        report = SolveReport(solution_count=0, solutions=[], trials=0,
                             propagation_passes=0,
                             terminal_event=Event.E1_CONTRADICTION)
    if solving and report.solution_count == 0:
        print("UNSOLVABLE")
    elif solving:
        sys.stdout.write(render(report.solutions[0], args.format))
    elif not args.stats:
        print(f"solutions={_count_field(report)}")
    if args.stats:
        print(_stats_line(report))
    return 0 if report.solution_count > 0 else 1


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help drops an OSError from its write, so
        # --help into a full stdout would exit 0 with the text lost; a
        # write and flush here let main report it as any lost output.
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bitsudoku",
        description="Solve, count, and check n^2 x n^2 Sudoku puzzles; "
                    "list primes with a bit-array sieve.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in (
            ("solve", "print the first solution or UNSOLVABLE"),
            ("count", "count every solution"),
            ("check", "validate a complete grid (VALID/INVALID)"),
            ("sieve", "print all primes up to N, one per line")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("generic", "classic"),
                       default="generic",
                       help="output rendering (classic is order-3 only)")
        p.add_argument("--stats", action="store_true",
                       help="emit a 'solutions= trials= passes=' line")
        p.add_argument("--cap", type=_ascii_int, default=1, metavar="N",
                       help="accepted for compatibility; changes no output")
        if name == "sieve":
            p.add_argument("bound", type=_ascii_int, metavar="N")
        else:
            p.add_argument("input", metavar="path|-",
                           help="puzzle file or - for stdin")
        if name == "count":
            p.add_argument("--limit", type=_ascii_int, metavar="N",
                           help="stop after counting N solutions")
    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:              # started with fd 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "limit", None) is not None and args.limit < 1:
            parser.error("--limit must be >= 1")
        code = run(args)
        sys.stdout.flush()
    except OSError as exc:
        # Keep the flush at interpreter exit from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    return code
