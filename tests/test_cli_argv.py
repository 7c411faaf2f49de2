"""The CLI's command-line grammar: what each argv line parses to.

Each row of ARGV maps one command line to its outcome in `cli.main`, with
`cli.run` replaced by a recorder: (0, subcommand, format, stats, cap,
limit, input or bound) for a line that parses, (2,) for a usage error, or
(0, first 16 hex digits of the sha256 of stdout) for --help.  The rows
were recorded from the argparse parser the CLI used before it read its
command line itself, on Python 3.11 with COLUMNS=80, so they are the
contract; the differential test below checks the same grammar against
that parser, kept in `tests/oracles.py`, on drawn lines.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings, strategies as st

from bitsudoku import cli

from oracles import parse_cli_args

TOP_HELP = "3a261e2088449e29"
SOLVE_HELP = "1863cfd53065e57d"

ARGV = {
    "": (2,),
    "-h": (0, TOP_HELP),
    "--help": (0, TOP_HELP),
    "--he": (0, TOP_HELP),
    "solve": (2,),
    "frobnicate x": (2,),
    "-- solve x": (2,),
    "--x solve x": (2,),
    "--x solve -h": (0, SOLVE_HELP),
    "-h solve --cap x": (0, TOP_HELP),
    "solve -h": (0, SOLVE_HELP),
    "count --help": (0, "91d2d92afb1e9fcd"),
    "check --h": (0, "af771796dd9b01da"),
    "sieve --help": (0, "21ba005d3cc205b4"),
    "sieve -h=": (2,),
    "solve x": (0, "solve", "generic", False, 1, None, "x"),
    "solve -": (0, "solve", "generic", False, 1, None, "-"),
    "solve --form classic x": (0, "solve", "classic", False, 1, None, "x"),
    "solve --format=classic --s x": (0, "solve", "classic", True, 1, None,
                                     "x"),
    "solve x --stats --cap 5": (0, "solve", "generic", True, 5, None, "x"),
    "solve --cap=007 x": (0, "solve", "generic", False, 7, None, "x"),
    "solve --c 2 x": (0, "solve", "generic", False, 2, None, "x"),
    "solve --cap 3 --cap 4 x": (0, "solve", "generic", False, 4, None, "x"),
    "solve --format classic --format generic x": (0, "solve", "generic",
                                                  False, 1, None, "x"),
    "solve --format x y": (2,),
    "solve --stats=1 x": (2,),
    "count --lim 3 x": (0, "count", "generic", False, 1, 3, "x"),
    "count --limit=3 --limit 5 x": (0, "count", "generic", False, 1, 5, "x"),
    "count --li=2 -": (0, "count", "generic", False, 1, 2, "-"),
    "count --limit 0 x": (2,),
    "count --limit 0 x -h": (0, "91d2d92afb1e9fcd"),
    "count --limit -3 x": (2,),
    "solve --limit 3 x": (2,),
    "solve --lim=3 x": (2,),
    "solve -- -x": (0, "solve", "generic", False, 1, None, "-x"),
    "solve -- -h": (0, "solve", "generic", False, 1, None, "-h"),
    "solve x --": (0, "solve", "generic", False, 1, None, "x"),
    "solve x --stats --": (2,),
    "solve -- x y": (2,),
    "solve -5": (0, "solve", "generic", False, 1, None, "-5"),
    "solve -x": (2,),
    "solve x y": (2,),
    "solve x y -h": (0, SOLVE_HELP),
    "solve --bogus -h": (0, SOLVE_HELP),
    "solve --cap x -h": (2,),
    "solve -h --cap x": (0, SOLVE_HELP),
    "solve --cap -h": (2,),
    "solve --cap": (2,),
    "sieve -5": (2,),
    "sieve -- -5": (2,),
    "sieve +7": (2,),
    "sieve 0010": (0, "sieve", "generic", False, 1, None, 10),
    "sieve x -h": (2,),
    "sieve 10 --stats --format classic": (0, "sieve", "classic", True, 1,
                                          None, 10),
    "sieve 1_0": (2,),
    "check --format classic --cap 9 -": (0, "check", "classic", False, 9,
                                         None, "-"),
}


def test_argv_lines_parse_as_recorded(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run", lambda args: seen.append(args) or 0)
    got = {}
    for line in ARGV:
        seen.clear()
        try:
            code = cli.main(line.split())
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        if seen:
            a = seen[0]
            got[line] = (code, a.subcommand, a.format, a.stats, a.cap,
                         getattr(a, "limit", None),
                         a.bound if a.subcommand == "sieve" else a.input)
        else:
            got[line] = (code, hashlib.sha256(out.encode()).hexdigest()[:16]
                         ) if out else (code,)
    assert got == ARGV


FIELDS = ("subcommand", "format", "stats", "cap", "limit", "input", "bound")
COMMANDS = ("solve", "count", "check", "sieve")
TOKENS = [*COMMANDS, "frob", "x", "5", "0", "-", "--", "-5", "-1.5", "+7",
          "", "a b", "-a b", "-x", "--bogus", "---", "-h", "-hx", "--help",
          "--he", "--h", "--format", "--form", "--format=classic",
          "--fo=generic", "--format=x", "classic", "generic", "--stats",
          "--s", "--stats=1", "--cap", "--ca", "--cap=3", "--c=x",
          "--limit", "--lim", "--limit=0", "--l=2"]


def _outcome(parse, argv):
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            args = parse(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue()
    return (0,) + tuple(getattr(args, f, None) for f in FIELDS)


def _dashes_after_a_subcommand(argv):
    if "--" not in argv:
        return True
    at = argv.index("--")
    return argv.count("--") == 1 and any(t in COMMANDS for t in argv[:at])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=6)
       .filter(_dashes_after_a_subcommand))
def test_argv_parses_as_argparse_parses_it(argv):
    """Both accept with equal fields, both exit 2, or both print the same
    help.  A line holds at most one `--`, and only after a subcommand:
    argparse 3.12 and later read a `--` before the subcommand, and a
    second `--`, otherwise than 3.10 and 3.11 do, and CI runs both kinds,
    so those lines are pinned by ARGV alone.  The parser's own `-h` takes no
    other letter and an ambiguous prefix (`--=x`) is an unknown option,
    so `-hh` and `--=x` are not drawn: argparse reads `-hh` as help and
    fails `--=x` before it reads any help flag."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _outcome(cli._parse, argv) == _outcome(parse_cli_args, argv)
