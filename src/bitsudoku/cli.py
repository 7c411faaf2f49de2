"""Command-line front end: solve, count, check, and sieve subcommands.

A puzzle file and stdin alike are read as bytes and decoded once, strictly
as UTF-8; parse() splits the lines.  Results go to stdout, diagnostics to
stderr.  Exit codes: 0 for a solution, a valid grid or a finished sieve;
1 for none or an invalid grid; 2 for parse and usage errors, unreadable or
non-UTF-8 input (a closed stdin included), a sieve bound above
sys.maxsize, and a stdout that is closed or cannot be written, --help's
included; 141 (128 + SIGPIPE) when the reader closes stdout early, as
`sieve N | head` does.

The command line is read as argparse read it, from one table of each
subcommand's options, without importing argparse: the subcommand comes
first, after at most -h/--help; options and the one positional follow in
any order, the last of a repeated option winning.  `--opt V` and
`--opt=V` both give a value, a unique prefix names an option (`--form`)
and `--` ends the options, but one after the positional with an option
between them is an unrecognized argument (`solve x --stats --`); a
token starting with - is an unknown option unless it is -, -5 and the
like, holds a space or is an option's value.
A bad value fails at once, so `solve --cap x -h` is a usage error and
`solve -h --cap x` prints help; an unknown option or a second positional
fails once the line is read.  A usage error writes the usage line and
`bitsudoku <cmd>: error: <message>` to stderr and raises SystemExit(2).
-h/--help writes argparse's help as it reads at 80 columns, never
rewrapped to the terminal, and raises SystemExit(0); -h takes nothing
after it in the same token, so -hh is an error.

`sieve N` writes the decimal text that `sieve.prime_text` makes, one
segment of 10**5 numbers per write, so neither a list of the primes nor
an int per number is made.

A process, `python -m bitsudoku` or the `bitsudoku` script, ends through
entry(): main()'s code, with the collector frozen on the way out, so the
collections at interpreter exit skip their walk over every object alive
by then.  Only that walk is skipped: exit handlers, the flushing of stdout
and stderr and every exit code stay.  The process is not cut short from
inside, which would skip those and the finally of a caller that runs
__main__ under runpy; nor does main() freeze, as a caller may run it many
times in one process.
"""

from __future__ import annotations

import gc
import os
import sys

from .grid import (IncompleteGridError, PuzzleFormatError, is_sudoku_matrix,
                   parse, render)
from .sieve import prime_text
from .solver import ConflictError, Event, SolveReport, solve

_OPTIONS = ("--help", "--format", "--stats", "--cap")
_PAD = "\n" + " " * 23
_PATH = "  path|-                puzzle file or - for stdin\n"
# Subcommand: (its options, the end of its usage line, its positional's
# help); the positional is `bound` for sieve and `input` for the others.
_COMMANDS = {
    "solve": (_OPTIONS, _PAD + "path|-", _PATH),
    "count": (_OPTIONS + ("--limit",), _PAD + "[--limit N]" + _PAD + "path|-",
              _PATH),
    "check": (_OPTIONS, _PAD + "path|-", _PATH),
    "sieve": (_OPTIONS, " N", "  N\n"),
}
_HELP_OPTION = """
options:
  -h, --help            show this help message and exit
"""
_TOP_HELP = """
Solve, count, and check n^2 x n^2 Sudoku puzzles; list primes with a segmented
sieve.

positional arguments:
  {solve,count,check,sieve}
    solve               print the first solution or UNSOLVABLE
    count               count every solution
    check               validate a complete grid (VALID/INVALID)
    sieve               print all primes up to N, one per line
""" + _HELP_OPTION
_OPTIONS_HELP = _HELP_OPTION + """\
  --format {generic,classic}
                        output rendering (classic is order-3 only)
  --stats               emit a 'solutions= trials= passes=' line
  --cap N               accepted for compatibility; changes no output
"""
_LIMIT_HELP = "  --limit N             stop after counting N solutions\n"


class _Args:
    """One parsed command line: `subcommand`, `input` or `bound`, and the
    options, which start at their defaults."""
    format, stats, cap, limit = "generic", False, 1, None


def _usage(cmd: str | None) -> str:
    if cmd is None:
        return "usage: bitsudoku [-h] {solve,count,check,sieve} ...\n"
    return (f"usage: bitsudoku {cmd} [-h] [--format {{generic,classic}}] "
            f"[--stats] [--cap N]{_COMMANDS[cmd][1]}\n")


def _help(cmd: str | None) -> str:
    if cmd is None:
        return _usage(None) + _TOP_HELP
    return (_usage(cmd) + "\npositional arguments:\n" + _COMMANDS[cmd][2]
            + _OPTIONS_HELP + (_LIMIT_HELP if cmd == "count" else ""))


def _fail(cmd: str | None, message: str):
    print(f"{_usage(cmd)}bitsudoku{' ' + cmd if cmd else ''}: error: "
          f"{message}", file=sys.stderr)
    raise SystemExit(2)


def _option(token: str, names: tuple[str, ...]) -> tuple | None:
    """None if `token` is a positional, else (the option it names, or None
    if it names none, and its `=` value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        hits = [n for n in names if n.startswith(name)]
        if len(hits) == 1:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "--help", token[2:] or None
    # A negative number (-5, -.5, -1.5) or a text with a space is a value.
    whole, dot, frac = token[1:].partition(".")
    if (whole + frac).isdecimal() and (frac or not dot) or " " in token:
        return None
    return None, None


def _read_text(path: str) -> str:
    if path != "-":
        with open(path, "rb") as fh:
            data = fh.read()
    elif sys.stdin is None:             # started with fd 0 closed
        raise OSError("stdin is closed")
    else:
        data = sys.stdin.buffer.read()
    return data.decode()                # strictly UTF-8, whatever the route


def _ascii_int(text: str) -> int:
    """A number in ASCII digits only, as parse() reads a clue: no sign.
    Leading zeros do not count toward int()'s digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid number {text!r}")
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:          # past int()'s digit limit
        raise ValueError(
            f"invalid number of {len(digits)} digits") from None


def _value(cmd: str, name: str, text: str) -> int | str:
    """The value of option `name` (or of N) given as `text`."""
    try:
        if name != "--format":
            return _ascii_int(text)
        if text in ("generic", "classic"):
            return text
        raise ValueError(f"invalid choice: {text!r} "
                         "(choose from 'generic', 'classic')")
    except ValueError as exc:
        _fail(cmd, f"argument {name}: {exc}")


def _parse(argv: list[str]) -> _Args:
    """Read one command line as the module docstring states."""
    args, cmd, names, value, extras = _Args(), None, ("--help",), None, []
    tokens, ended, last = iter(argv), False, None
    for token in tokens:
        if token == "--" and cmd and not ended:
            ended = True
            # argparse reads a `--` after the positional as part of it only
            # when nothing stands between them; otherwise it is left over.
            if value is not None and last is not value:
                extras.append(token)
            continue
        last = None
        found = not ended and token != "--" and _option(token, names)
        if not found and cmd is None:
            if token not in _COMMANDS:
                _fail(None, f"argument subcommand: invalid choice: {token!r}"
                      " (choose from 'solve', 'count', 'check', 'sieve')")
            cmd = args.subcommand = token
            names = _COMMANDS[cmd][0]
        elif not found and value is None:
            value = last = (_value(cmd, "N", token) if cmd == "sieve"
                            else token)
        elif not found or not found[0]:
            extras.append(token)
        elif found[0] in ("--help", "--stats") and found[1] is not None:
            _fail(cmd, f"argument {found[0]}: ignored explicit argument "
                  f"{found[1]!r}")
        elif found[0] == "--stats":
            args.stats = True
        elif found[0] == "--help":
            sys.stdout.write(_help(cmd))
            sys.stdout.flush()
            raise SystemExit(0)
        else:
            name, text = found
            if text is None:
                text = next(tokens, None)
                if text is None or text == "--" or _option(text, names):
                    _fail(cmd, f"argument {name}: expected one argument")
            setattr(args, name[2:], _value(cmd, name, text))
    if cmd is None:
        _fail(None, "the following arguments are required: subcommand")
    if value is None:
        _fail(cmd, "the following arguments are required: "
              + _COMMANDS[cmd][1].split()[-1])
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    if args.limit is not None and args.limit < 1:
        _fail(None, "--limit must be >= 1")
    setattr(args, "bound" if cmd == "sieve" else "input", value)
    return args


def _count_field(report: SolveReport) -> str:
    return str(report.solution_count) + ("+" if report.truncated else "")


def _stats_line(report: SolveReport) -> str:
    return (f"solutions={_count_field(report)} "
            f"trials={report.trials} passes={report.propagation_passes}")


def run(args: _Args) -> int:
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


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:              # started with fd 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return 2
    try:
        code = run(_parse(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()
    except OSError as exc:
        # Keep the flush at interpreter exit from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> int:
    """The process entry of `python -m bitsudoku` and the `bitsudoku`
    script: main()'s exit code, with every object alive by then frozen so
    the collections at interpreter exit do not walk them."""
    try:
        return main()
    finally:
        gc.freeze()
