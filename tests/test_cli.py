import gc
import hashlib
import io
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from functools import cache
from pathlib import Path

import pytest

from bitsudoku import cli
from bitsudoku.cli import main
from bitsudoku.grid import is_sudoku_matrix, parse

from oracles import (CLASSIC_81, IMPOSSIBLE_81, INVALID_4, clues,
                     delete_cells, pattern_grid, primes_by_trial_division,
                     ref_render, shuffled_valid_grid)
from test_golden import seeded_board

EMPTY_4 = "2\n" + "0 0 0 0\n" * 4
COMPLETE_4 = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"
REPEATED_4 = "2\n1 0 0 1\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"

SRC = Path(__file__).resolve().parents[1] / "src"


def _process(argv, cwd=None, **env):
    """argv started with src on PYTHONPATH and a pipe on each of its three
    streams; a variable given as None is left out of its environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=cwd,
        env={name: value for name, value in env.items() if value is not None})


@pytest.fixture
def puzzle_file(tmp_path):
    def write(text):
        path = tmp_path / "puzzle.txt"
        path.write_text(text)
        return str(path)
    return write


def test_solve_output_reparses_as_valid_grid(puzzle_file, capsys):
    code = main(["solve", puzzle_file(CLASSIC_81)])
    out = capsys.readouterr().out
    assert code == 0
    solved = parse(out).copy()
    assert is_sudoku_matrix(solved)
    original = parse(CLASSIC_81)
    for i, j, v in clues(original):
        assert solved.value(i, j) == v


def test_stdin_rejects_the_bytes_a_file_rejects(tmp_path, capsys):
    data = b"# caf\xe9\n" + EMPTY_4.encode()
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    assert main(["count", str(path)]) == 2
    file_err = capsys.readouterr().err

    proc = _process([sys.executable, "-m", "bitsudoku", "count", "-"],
                    PYTHONIOENCODING=None)
    out, err = proc.communicate(data, timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode() == file_err


@pytest.mark.parametrize("data", [
    b"# mixed breaks\r\n2\r1 0 0 0\r\n0 0 0 0\r0 0 0 0\r\n0 0 0 0\r",
    "2\n0 0 0 0\u20280 0 x 0\n0 0 0 0\n0 0 0 0\n".encode(),
    "\r\n".join(CLASSIC_81[r * 9:(r + 1) * 9] for r in range(9)).encode(),
], ids=["crlf-and-cr", "u2028-then-malformed", "classic-crlf"])
def test_file_and_stdin_read_line_breaks_alike(tmp_path, capsys, data):
    path = tmp_path / "breaks.txt"
    path.write_bytes(data)
    file_code = main(["count", "--stats", str(path)])
    file_out, file_err = capsys.readouterr()

    proc = _process(
        [sys.executable, "-m", "bitsudoku", "count", "--stats", "-"])
    out, err = proc.communicate(data, timeout=60)
    assert proc.returncode == file_code
    assert out.decode() == file_out
    assert err.decode() == file_err


def test_stdin_is_decoded_as_utf8_whatever_its_text_encoding():
    data = b"# caf\xe9\n" + EMPTY_4.encode()
    proc = _process([sys.executable, "-m", "bitsudoku", "count", "-"],
                    PYTHONIOENCODING="latin-1")
    out, err = proc.communicate(data, timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert b"byte 0xe9" in err


# With fd 0 closed, sys.stdin is None: reading "-" is an unreadable input,
# one error line and exit 2, not a traceback.
@pytest.mark.parametrize("command", ["solve", "count", "check"])
def test_closed_stdin_is_an_input_error(command):
    proc = _process(["sh", "-c", '"$0" -m bitsudoku "$1" - <&-',
                     sys.executable, command])
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error: ")
    assert err.count(b"\n") == 1


# With fd 1 closed sys.stdout is None, and on /dev/full every write fails:
# either way the output is lost, which is one error line and exit 2, not a
# traceback and exit 1, which count would otherwise read as "no solutions".
@pytest.mark.parametrize("redirect", [">&-", ">/dev/full"])
@pytest.mark.parametrize("command", [["solve", "-"], ["count", "-"],
                                     ["sieve", "10"]])
def test_unwritable_stdout_is_an_output_error(command, redirect):
    proc = _process(["sh", "-c", f'"$0" -m bitsudoku "$@" {redirect}',
                     sys.executable, *command])
    out, err = proc.communicate(EMPTY_4.encode(), timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error: ")
    assert err.count(b"\n") == 1


# In process too: the lost output is exit 2, and main() leaves no new
# descriptor open behind it, as a caller may run it many times.
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_unwritable_stdout_in_process_leaves_no_descriptor(monkeypatch,
                                                           capsys):
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        before = os.listdir("/proc/self/fd")
        assert main(["sieve", "10"]) == 2
        assert len(os.listdir("/proc/self/fd")) == len(before)
    assert capsys.readouterr().err.startswith("error: cannot write to stdout")


# --help's text is output like any other: when it is lost, the process
# must still exit 2, whether the write or the flush fails.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["--help"], ["sieve", "--help"]])
def test_help_into_a_full_stdout_is_an_output_error(argv, unbuffered):
    proc = _process(["sh", "-c", '"$0" -m bitsudoku "$@" >/dev/full',
                     sys.executable, *argv], PYTHONUNBUFFERED=unbuffered)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith(b"error: cannot write to stdout: ")
    assert err.count(b"\n") == 1


@cache
def _trial_primes():
    """One trial-division list, read by prefix for each bound below."""
    return primes_by_trial_division(200_001)


# Each decimal block of 10**4 numbers that holds a prime is one stdout
# write, struck in segments 10**5 numbers wide, so 100001 and 200001
# start the second and third segment, and 100000 and 200000 end one.
# 9999 and 99999 end a block, and 10001 = 73 * 137 and 100001 = 11 * 9091
# end on a block that holds no prime and prints nothing.  pi(N) = 4095,
# 4096 and 4097 at 38872, 38873 and 38891; 0, 1 and 2 print no line or
# one.  961 = 31**2 and 1369 = 37**2 are the first strikes of two primes.
@pytest.mark.parametrize("bound", [0, 1, 2, 38872, 38873, 38891,
                                   65536, 65537, 131072, 131073,
                                   960, 961, 962, 1368, 1369, 1370,
                                   9999, 10000, 10001, 99999, 100000, 100001,
                                   199999, 200000, 200001])
def test_sieve_output_matches_trial_division(bound, capsys):
    code = main(["sieve", str(bound)])
    assert code == 0
    primes = _trial_primes()
    assert capsys.readouterr().out == "".join(
        f"{p}\n" for p in primes[:bisect_right(primes, bound)])


def test_sieve_into_a_closed_pipe_exits_141_quietly():
    proc = _process([sys.executable, "-m", "bitsudoku", "sieve", "1000000"])
    assert proc.stdout.readline() == b"2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_sieve_interrupted_by_ctrl_c_exits_130_quietly():
    proc = _process([sys.executable, "-m", "bitsudoku", "sieve",
                     "1000000000"])
    try:
        assert proc.stdout.readline() == b"2\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert b"Traceback" not in err
    finally:
        proc.kill()


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _sieve_peak(bound, monkeypatch):
    """The exit code and tracemalloc peak of `sieve bound` into a stdout
    that keeps nothing."""
    monkeypatch.setattr("sys.stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["sieve", bound])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The primes up to 10**6 alone take about 2.8 MB as a list of ints; each
# block's text is written before the next is made, so none of them is kept.
def test_sieve_holds_no_prime_list(monkeypatch):
    code, peak = _sieve_peak("1000000", monkeypatch)
    assert code == 0
    assert peak < 1.5e6, peak


# Memory is one segment, one block's text and the primes up to sqrt(N),
# whatever N, so 10**7 stays under the same 1.5 MB as 10**6.
def test_sieve_memory_does_not_grow_with_the_bound(monkeypatch):
    code, peak = _sieve_peak("10000000", monkeypatch)
    assert code == 0
    assert peak < 1.5e6, peak


# A count with --stats or --limit runs solve, which then keeps no board,
# pruned only when no stats line shows its counters; a bare count runs
# count_solutions, which keeps none at all.
def test_count_retains_no_boards_whatever_the_cap(puzzle_file, monkeypatch,
                                                  capsys):
    calls = []
    real_solve, real_count = cli.solve, cli.count_solutions

    def spy(g, cap, limit, prune):
        calls.append(("solve", cap, prune))
        return real_solve(g, cap=cap, limit=limit, prune=prune)

    def count_spy(g):
        calls.append(("count_solutions",))
        return real_count(g)

    monkeypatch.setattr(cli, "solve", spy)
    monkeypatch.setattr(cli, "count_solutions", count_spy)
    path = puzzle_file(EMPTY_4)
    code = main(["count", "--stats", "--cap", "100000", path])
    assert code == 0
    assert capsys.readouterr().out == "solutions=288 trials=568 passes=929\n"
    assert calls == [("solve", 0, False)]
    code = main(["count", "--cap", "100000", path])
    assert code == 0
    assert capsys.readouterr().out == "solutions=288\n"
    assert calls[1:] == [("count_solutions",)]
    code = main(["count", "--limit", "300", "--cap", "100000", path])
    assert code == 0
    assert capsys.readouterr().out == "solutions=288\n"
    assert calls[2:] == [("solve", 0, True)]


# Modules whose import cost a bare interpreter start should not pay: the
# dataclass machinery (dataclasses with inspect, ast, dis and tokenize) and
# typing.  Under -S no site hook imports them first.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_modules():
    code = ("import sys; b = set(sys.modules); import bitsudoku.cli; "
            "print(' '.join(sorted(set(sys.modules) - b)))")
    proc = _process([sys.executable, "-S", "-c", code])
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    loaded = set(out.decode().split())
    assert "bitsudoku.cli" in loaded
    assert loaded.isdisjoint(HEAVY_MODULES), sorted(
        loaded.intersection(HEAVY_MODULES))


# The command line is read without argparse, and so without the gettext
# and locale modules argparse loads: a process of the benchmark's kinds
# loads none of the three.  What site loaded before the run is not
# counted, as it would load for any script.
_LOADED = """\
import runpy, sys
before = set(sys.modules)
sys.argv[0] = "bitsudoku"
try:
    runpy.run_module("bitsudoku", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\nLOADED " + " ".join(set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv", [
    ["solve", "--stats", "--format", "classic", "-"],
    ["sieve", "1"],
])
def test_cli_process_loads_no_argument_parser(argv):
    proc = _process([sys.executable, "-c", _LOADED, *argv])
    _, err = proc.communicate(CLASSIC_81.encode(), timeout=60)
    assert proc.returncode == 0, err
    loaded = set(err.rsplit(b"LOADED ", 1)[1].decode().split())
    assert "bitsudoku.cli" in loaded
    assert loaded.isdisjoint({"argparse", "gettext", "locale"})


def _in_process(argv, data, monkeypatch):
    """main(argv)'s exit code, stdout and stderr, with the bytes `data` on
    stdin; a usage error's SystemExit is read as its exit code."""
    out, err = io.BytesIO(), io.BytesIO()
    for name, buffer in (("stdin", io.BytesIO(data)), ("stdout", out),
                         ("stderr", err)):
        monkeypatch.setattr(sys, name, io.TextIOWrapper(
            buffer, "utf-8", write_through=True))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


# The process entry returns to whatever ran `__main__`, so a wrapper's
# finally still runs (the benchmark reads its peak RSS there) and the
# process ends with main()'s code.
@pytest.mark.parametrize("text, argv, code", [
    (EMPTY_4, ["solve"], 0),
    (REPEATED_4, ["solve"], 1),
    (EMPTY_4, ["solve", "--cap", "x"], 2),      # usage error: SystemExit
], ids=["solved", "unsolvable", "usage-error"])
def test_process_entry_returns_to_its_caller(puzzle_file, monkeypatch, text,
                                             argv, code):
    path = puzzle_file(text)
    expected_code, expected, _ = _in_process(argv + [path], b"", monkeypatch)
    assert expected_code == code
    proc = _process([sys.executable, "-c", _LOADED, *argv, path])
    out, err = proc.communicate(timeout=60)
    assert b"\nLOADED " in err
    assert proc.returncode == code
    assert out == expected


PAD = "0" * 5000

# (order, seed, blanks) of a board of tests/test_golden.py -> the first 16
# hex digits of the sha256 of the stdout of `solve --stats`, of `count
# --stats` (`count --limit 1 --stats` at orders 4-5) and of a plain `solve`.
# The first two were recorded from an earlier engine, so a refactor must
# reproduce them byte for byte; any drift is a behaviour change.  The
# third is the first without its stats line, though a plain solve runs the
# pruned search: it must print the same board.
# Two inputs that run unbounded today, `count --stats` of Norvig's
# "impossible" puzzle and `solve --stats` of a blank 25x25 board, are left
# out: neither ends in bounded time until solve takes a budget (ROADMAP
# item 3).  A bare `count` of that puzzle and a plain `solve` of that board
# do end, by count_solutions and by the pruned search (the count-impossible
# and solve-blank25 rows).
GOLDEN_STDOUT = {
    (2, 2, 12): ("0118adc00ca058f5", "ae8ba10bd5e9669e", "3acd4fdf6c208f1d"),
    (2, 3, 13): ("9d99d75c444f4d6b", "121ecd888cd9a8df", "24e9d7841c52ee3d"),
    (2, 4, 16): ("a0b497ed00f9e169", "6e88f60689be3e78", "a3fe5c9ab087b2ed"),
    (3, 1, 50): ("c199f59ff45f89b4", "03391b5bbbb87caa", "494580bc5051ef68"),
    (3, 1, 53): ("56b0150768a1125a", "09c92e223bcac051", "394f66d885e7ef95"),
    (3, 2, 50): ("c221105ec1e8d4da", "2e27a752f7d4b7b8", "77b2f157af64c8a2"),
    (3, 3, 50): ("db1c82a434a0cfc1", "b33d9effe0191510", "7f1d9b364a8f5195"),
    (3, 3, 53): ("c1143714f5ff6538", "1176b128f286fce5", "737e255124be5224"),
    (3, 4, 53): ("85de8307b0a6c17b", "d54093080a1a45e4", "e34b3e7f5226261c"),
    (4, 1, 120): ("f390e73e717128bd", "582e4fadabcc1fe9", "426f5cfebcba94d2"),
    (4, 1, 130): ("facc9a7881c62f57", "6141ed9e02882d72", "ddb8b3b415b40c06"),
    (4, 2, 130): ("123412aa4c47cd4f", "0e34a8d4d7c6f6a3", "c5ff258ce68b98a1"),
    (4, 3, 130): ("1b8839ecd2fde05d", "674841de50921bab", "f20885a99fe016a3"),
    (5, 1, 280): ("41c274303ee2456c", "c4e53a28a1a7bc04", "9b04f04f8d6e915c"),
    (5, 2, 245): ("a0300855a3d05be1", "538a2a8e99b37b23", "515d79bed8deb276"),
    (5, 2, 270): ("2870385e93a54297", "034f9faac2c3425e", "515d79bed8deb276"),
    (5, 3, 270): ("2f115a200b8a1254", "ea6ab8f6af43534a", "68337742550353a9"),
}


def _board(order, seed, blanks):
    return f"b{order}_{seed}_{blanks}"


@cache
def _inputs():
    """The files the rows of both tables read, by name, as bytes."""
    repeat25 = [[0] * 25 for _ in range(25)]
    repeat25[0][0] = repeat25[1][1] = 7
    swapped25 = pattern_grid(5)
    swapped25[0][0], swapped25[0][1] = swapped25[0][1], swapped25[0][0]
    plain25 = pattern_grid(5)
    for k in random.Random(2012).sample(range(625), 220):
        plain25[k // 25][k % 25] = 0
    padded25 = ["# the board of plain25.txt, zero-padded", "5"]
    for row in plain25:
        padded25 += ["", "# a row", " ".join("%03d" % v for v in row)]
    texts = {
        "blank16.txt": ref_render(4, [[0] * 16] * 16),
        "blank25.txt": ref_render(5, [[0] * 25] * 25),
        "repeat25.txt": ref_render(5, repeat25),
        "swapped25.txt": ref_render(5, swapped25),
        "plain25.txt": ref_render(5, plain25),
        "padded25.txt": "".join(line + "\n" for line in padded25),
        "crlf4.txt": "2\r\n1 0 0 0\r\n0 0 0 0\r\n0 0 0 0\r\n0 0 0 0\r\n",
        "classic.txt": CLASSIC_81 + "\n",
        "impossible.txt": IMPOSSIBLE_81 + "\n",
        "empty4.txt": EMPTY_4,
        "complete4.txt": COMPLETE_4,
        "witness4.txt": "2\n0 2 3 4\n1 0 0 0\n0 0 0 0\n0 0 0 0\n",
        "invalid4.txt": INVALID_4,
        "twice4.txt": "2\n1 0 1 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n",
        "value9.txt": "2\n1 2 3 9\n0 0 0 0\n0 0 0 0\n0 0 0 0\n",
        "long-value.txt": "2\n1 2 3 4\n3 1" + PAD + " 1 2\n2 1 4 3\n4 3 2 1\n",
        "padded4.txt": EMPTY_4.replace("0", PAD),
        "valid16.txt": ref_render(4, shuffled_valid_grid(4, random.Random(1))),
        "empty.txt": "",
        **{_board(*key) + ".txt": ref_render(key[0], seeded_board(*key).cells)
           for key in GOLDEN_STDOUT},
    }
    return {name: text.encode() for name, text in texts.items()} | {
        "non-utf8.txt": b"\xff\xfe5300"}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, data in _inputs().items():
        (path / name).write_bytes(data)
    return path


def _starts(line):
    return re.compile(re.escape(line.encode() + b"\n"))


def _exactly(line):
    return re.compile(re.escape(line.encode() + b"\n") + rb"\Z")


_SILENT = re.compile(rb"\Z")      # matches only an empty stderr

SOLVED_PLAIN25 = ("a6b18135e64ffd72163267f0c4df20e7"
                  "b246712a908c0cf29dd539b356dce165")
SIEVE_1E6 = ("4883963dd4510a29d6df2ffe4dd11e4e"
             "1a910e815c7810b200c77b3357f22a28")

# Both tables map a name to (argv, stdin, exit code, stdout, stderr).  stdin
# names an input file or an earlier row of the same table, whose stdout it
# then reads; None is an empty stdin.  stdout is the exact bytes, the first
# 16 or more hex digits of their sha256, or a pattern that matches from
# their start; stderr is bytes it holds or a pattern that matches from its
# start, _SILENT for none.  PROCESS_ROWS run as processes, CLI_ROWS through
# main() in this process, and _judge reads a run of either by this one rule.
PROCESS_ROWS = {
    "help": (["--help"], None, 0, _starts(
        "usage: bitsudoku [-h] {solve,count,check,sieve} ..."), _SILENT),
    "count-help": (["count", "--help"], None, 0, _starts(
        "usage: bitsudoku count [-h] [--format {generic,classic}] [--stats]"
        " [--cap N]"), _SILENT),
    # The bytes the benchmark's cli workload checks.
    "sieve-1e6": (["sieve", "1000000"], None, 0, SIEVE_1E6, _SILENT),
    "solve-blank16": (["solve", "blank16.txt"], None, 0, "09c2b86b75b0ce5ba3"
                      "7287826441a4ce55452cb315aac8eaae7cc25965c1eaef",
                      _SILENT),
    "check-blank16": (["check", "-"], "solve-blank16", 0, b"VALID\n",
                      _SILENT),
    # The clue scan's two verdicts at 25x25: a repeat inside one block, and
    # a row with two values swapped.
    "solve-repeat25": (["solve", "repeat25.txt"], None, 1, b"UNSOLVABLE\n",
                       b"block 1 contains 7 more than once"),
    "check-swapped25": (["check", "swapped25.txt"], None, 1, b"INVALID\n",
                        _SILENT),
    # A canonical row takes parse's one lookup; the padded board's rows are
    # read again token by token.  Both give the same bytes.
    "solve-plain25": (["solve", "plain25.txt"], None, 0, SOLVED_PLAIN25,
                      _SILENT),
    "solve-padded25": (["solve", "padded25.txt"], None, 0, SOLVED_PLAIN25,
                       _SILENT),
    "check-plain25": (["check", "-"], "solve-plain25", 0, b"VALID\n",
                      _SILENT),
    "crlf-file": (["count", "--stats", "crlf4.txt"], None, 0,
                  b"solutions=72 trials=141 passes=232\n", _SILENT),
    "crlf-stdin": (["count", "--stats", "-"], "crlf4.txt", 0,
                   b"solutions=72 trials=141 passes=232\n", _SILENT),
    "classic": (["solve", "--format", "classic", "-"], "classic.txt", 0,
                re.compile(rb"[1-9]{81}\n\Z"), _SILENT),
    "check-classic": (["check", "-"], "classic", 0, b"VALID\n", _SILENT),
    # A bare count runs count_solutions, which settles this in milliseconds;
    # solve's search did not end in 15 minutes.  Run as a process, a bare
    # count that went back to solve fails the row at the 60 s timeout
    # instead of hanging the suite.
    "count-impossible": (["count", "impossible.txt"], None, 1,
                         b"solutions=0\n", _SILENT),
    # A plain solve runs solve's search pruned by the cover rule, which
    # prints this board after 485 trials; unpruned, the search did not end
    # in 25 minutes, and this row would fail at the 60 s timeout.
    "solve-blank25": (["solve", "blank25.txt"], None, 0, "556c1a12e0729931"
                      "5545713ea7175f2e82f21cb8c4460761674539373834d462",
                      _SILENT),
    "check-blank25": (["check", "-"], "solve-blank25", 0, b"VALID\n",
                      _SILENT),
}


def _golden_rows(key, with_stats, count, plain):
    """The four rows of one golden board: `solve --stats`, `count --stats`
    (with --limit 1 at orders 4-5), a plain `solve`, and `check -` reading
    that solve's board."""
    name = _board(*key)
    path = name + ".txt"
    limit = ["--limit", "1"] if key[0] > 3 else []
    return {
        name + "-solve-stats": (["solve", "--stats", path], None, 0,
                                with_stats, _SILENT),
        name + "-count-stats": (["count", *limit, "--stats", path], None, 0,
                                count, _SILENT),
        name + "-solve": (["solve", path], None, 0, plain, _SILENT),
        name + "-check": (["check", "-"], name + "-solve", 0, b"VALID\n",
                          _SILENT),
    }


_USAGE = re.compile(rb"usage: bitsudoku")
_ERROR = re.compile(rb"error: ")
_CONFLICT = _exactly("conflicting clues: row 1 contains 1 more than once")

CLI_ROWS = {
    "count": (["count", "empty4.txt"], None, 0, b"solutions=288\n", _SILENT),
    "count-stdin": (["count", "-"], "empty4.txt", 0, b"solutions=288\n",
                    _SILENT),
    "count-empty-stdin": (["count", "-"], "empty.txt", 2, b"",
                          _exactly("error: empty puzzle document")),
    # A count stopped by its limit is a lower bound, marked by its +.
    "count-limit": (["count", "--limit", "10", "empty4.txt"], None, 0,
                    b"solutions=10+\n", _SILENT),
    "count-limit-50": (["count", "--stats", "--limit", "50", "empty4.txt"],
                       None, 0, b"solutions=50+ trials=102 passes=167\n",
                       _SILENT),
    # --limit without --stats runs the pruned search, which ends here.
    "count-limit-blank25": (["count", "--limit", "2", "blank25.txt"], None,
                            0, b"solutions=2+\n", _SILENT),
    **{command + "-stats": ([command, "--stats", "complete4.txt"], None, 0,
                            board + b"solutions=1 trials=0 passes=0\n",
                            _SILENT)
       for command, board in (("solve", COMPLETE_4.encode()), ("count", b""))},
    # solve keeps the board it prints, whatever --cap says.
    "solve-cap-0": (["solve", "--cap", "0", "complete4.txt"], None, 0,
                    COMPLETE_4.encode(), _SILENT),
    **{command + "-witness": ([command, "witness4.txt"], None, 1, verdict,
                              _SILENT)
       for command, verdict in (("count", b"solutions=0\n"),
                                ("solve", b"UNSOLVABLE\n"))},
    "solve": (["solve", "empty4.txt"], None, 0, COMPLETE_4.encode(), _SILENT),
    "check-solved": (["check", "-"], "solve", 0, b"VALID\n", _SILENT),
    "check-valid": (["check", "complete4.txt"], None, 0, b"VALID\n", _SILENT),
    "check-stats": (["check", "--stats", "complete4.txt"], None, 0,
                    b"VALID\n", _SILENT),
    "check-invalid": (["check", "invalid4.txt"], None, 1, b"INVALID\n",
                      _SILENT),
    "check-incomplete": (["check", "empty4.txt"], None, 2, b"", b"complete"),
    # Conflicting clues are a board with no solution, not an input error.
    **{command + "-conflict": ([command, "twice4.txt"], None, 1, verdict,
                               _CONFLICT)
       for command, verdict in (("solve", b"UNSOLVABLE\n"),
                                ("count", b"solutions=0\n"))},
    **{command + "-stats-conflict": (
        [command, "--stats", "twice4.txt"], None, 1,
        verdict + b"solutions=0 trials=0 passes=0\n", _CONFLICT)
       for command, verdict in (("solve", b"UNSOLVABLE\n"), ("count", b""))},
    "count-value-9": (["count", "value9.txt"], None, 2, b"", _exactly(
        "error: value 9 outside [0, 4] (line 2, column 4)")),
    "count-missing": (["count", "missing.txt"], None, 2, b"", _ERROR),
    "solve-non-utf8-file": (["solve", "non-utf8.txt"], None, 2, b"", _ERROR),
    "solve-non-utf8-stdin": (["solve", "-"], "non-utf8.txt", 2, b"",
                             re.compile(rb"error: .*byte 0xff")),
    "classic-file": (["solve", "--format", "classic", "classic.txt"], None, 0,
                     "f9e16cbbcc897384", _SILENT),
    "check-classic-file": (["check", "-"], "classic-file", 0, b"VALID\n",
                           _SILENT),
    # Only solve renders a board, so only solve refuses classic at order 2.
    "classic-order-2": (["solve", "--format", "classic", "empty4.txt"], None,
                        2, b"", b"order-3"),
    "count-classic": (["count", "--format", "classic", "empty4.txt"], None, 0,
                      b"solutions=288\n", _SILENT),
    "check-classic": (["check", "--format", "classic", "valid16.txt"], None,
                      0, b"VALID\n", _SILENT),
    **{f"sieve-{bound}": (["sieve", str(bound)], None, 0, stdout, _SILENT)
       for bound, stdout in ((0, b""), (1, b""), (2, b"2\n"), (3, b"2\n3\n"),
                             (10, b"2\n3\n5\n7\n"),
                             (1000, "55542ac8f84d3c79"),
                             (65537, "a946ac942b19fc69"),
                             (1000000, SIEVE_1E6))},
    "sieve-10-stats-classic": (["sieve", "10", "--stats", "--format",
                                "classic"], None, 0, b"2\n3\n5\n7\n", _SILENT),
    # Bounds above sys.maxsize fail before any work and any output.
    **{f"sieve-1e{e}": (["sieve", "1" + "0" * e], None, 2, b"", _exactly(
        f"error: N=1{'0' * e} is too large to sieve")) for e in (21, 19)},
    # Usage errors.  Numbers take ASCII digits only, as puzzle files do.
    **{"usage-" + name: (argv, None, 2, b"", _USAGE) for name, argv in (
        ("limit-0", ["count", "--limit", "0", "x"]), ("plus", ["sieve", "+7"]),
        ("cap-plus", ["solve", "--cap", "+1", "x"]), ("no-command", []),
        ("cap-neg", ["solve", "--cap", "-1", "x"]), ("pad", ["sieve", " 7 "]),
        ("arabic", ["sieve", "\u0663"]), ("unknown", ["frobnicate", "x"]),
        ("sieve-neg", ["sieve", "--", "-5"]), ("underscore", ["sieve", "1_0"]),
        ("limit-arabic", ["count", "--limit", "\u0662", "x"]))},
    # int() refuses a string of more than 4300 digits; leading zeros do not
    # count, and a longer number is one error line and exit 2, not a
    # traceback and exit 1, which count would read as "no solutions".
    "count-long-value": (["count", "long-value.txt"], None, 2, b"", _exactly(
        "error: value of 5001 digits outside [0, 4] (line 3, column 2)")),
    **{"usage-long-" + argv[0]: (argv, None, 2, b"",
                                 b"invalid number of 5000 digits")
       for argv in (["sieve", "1" * 5000],
                    ["count", "--limit", "1" * 5000, "x"],
                    ["solve", "--cap", "0" * 9 + "1" * 5000, "x"])},
    "count-zero-padded": (["count", "--limit", PAD + "9", "padded4.txt"],
                          None, 0, b"solutions=9+\n", _SILENT),
    "sieve-zero-padded": (["sieve", PAD + "7"], None, 0, b"2\n3\n5\n7\n",
                          _SILENT),
    # The golden boards, four rows each.
    **{name: row for key, stdouts in GOLDEN_STDOUT.items()
       for name, row in _golden_rows(key, *stdouts).items()},
}


def _judge(row, code, out, err, where):
    """Assert that one run, in process or as a process, keeps `row`."""
    _, _, want_code, stdout, stderr = row
    assert code == want_code, (where, err)
    if isinstance(stdout, bytes):
        assert out == stdout, where
    elif isinstance(stdout, str):
        assert len(stdout) >= 16, where
        assert hashlib.sha256(out).hexdigest().startswith(stdout), where
    else:
        assert stdout.match(out), where
    if isinstance(stderr, bytes):
        assert stderr in err, where
    else:
        assert stderr.match(err), (where, err)


def _routes():
    """(command, environment) of each way to start bitsudoku: python -m on
    src, and the console script pip installs, when one is on PATH, with no
    PYTHONPATH, so it runs the installed package."""
    routes = [([sys.executable, "-m", "bitsudoku"], {})]
    script = shutil.which("bitsudoku")
    if script:
        # The script and python -m end through one function, whatever the
        # exit code (test_process_entry_returns_to_its_caller).
        assert "from bitsudoku.cli import entry" in Path(script).read_text()
        routes.append(([script], {"PYTHONPATH": None}))
    return routes


def test_processes_keep_the_contract(inputs_dir):
    routes = _routes()
    # sieve 10**8 crosses 1,000 segments, ten times the largest bound the
    # other tests compare in full.  It runs once, by the last route, into a
    # file while the rows run.
    last, last_env = routes[-1]
    with _process(["sh", "-c", '"$@" > primes.txt', "sh", *last, "sieve",
                   "100000000"], cwd=inputs_dir, **last_env) as sieve:
        for command, env in routes:
            data = dict(_inputs())
            for name, row in PROCESS_ROWS.items():
                proc = _process([*command, *row[0]], cwd=inputs_dir, **env)
                out, err = proc.communicate(data.get(row[1]), timeout=60)
                data[name] = out
                _judge(row, proc.returncode, out, err, (name, command))
        _, err = sieve.communicate(timeout=60)
    assert sieve.returncode == 0, err
    digest = hashlib.sha256()
    with open(inputs_dir / "primes.txt", "rb") as primes:
        for chunk in iter(lambda: primes.read(1 << 20), b""):
            digest.update(chunk)
    (inputs_dir / "primes.txt").unlink()
    assert digest.hexdigest() == ("fb7e00e2e7eb157e21837f89d0911c01729ebbbd9a1"
                                  "8f8608f6e3936b9f953ee")


# The stdout of each row another row reads as its stdin, run once.
_SOURCE_STDOUT = {}


def _main_run(name, monkeypatch):
    """In-process main()'s exit code, stdout and stderr on row `name`."""
    argv, stdin = CLI_ROWS[name][:2]
    if stdin in CLI_ROWS:
        if stdin not in _SOURCE_STDOUT:
            with pytest.MonkeyPatch.context() as source_patch:
                _SOURCE_STDOUT[stdin] = _main_run(stdin, source_patch)[1]
        data = _SOURCE_STDOUT[stdin]
    else:
        data = _inputs().get(stdin, b"")
    return _in_process(argv, data, monkeypatch)


# Each row runs twice in one process and must print the same bytes twice.
@pytest.mark.parametrize("name", CLI_ROWS)
def test_main_keeps_the_contract(name, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    outs = []
    for _ in range(2):
        code, out, err = _main_run(name, monkeypatch)
        _judge(CLI_ROWS[name], code, out, err, name)
        outs.append(out)
    assert outs[0] == outs[1], name


def test_main_in_process_does_not_freeze_the_collector(puzzle_file, capsys):
    before = gc.get_freeze_count()
    assert main(["count", puzzle_file(EMPTY_4)]) == 0
    assert gc.get_freeze_count() == before


FUZZ_COMMANDS = (["solve", "-"], ["check", "-"],
                 ["count", "--limit", "3", "-"],
                 ["solve", "--stats", "--format", "classic", "-"])


def _fuzz_bytes(rng):
    """Random bytes, or the text of a seeded order-2 or order-3 board with
    some cells blank and up to three bytes changed.  Orders stay at 2-3
    and count stays under --limit: a sparse larger board has no bound on
    its work."""
    if rng.random() < 0.5:
        return rng.randbytes(rng.randrange(48))
    order = rng.choice((2, 3))
    cells = delete_cells(shuffled_valid_grid(order, rng),
                         rng.randrange(order ** 4 + 1), rng)
    data = bytearray(ref_render(order, cells).encode())
    for _ in range(rng.randrange(4)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


# Whatever bytes arrive on stdin, each command ends with exit 0, 1 or 2,
# never a traceback; exit 2 prints nothing to stdout and one error.
def test_cli_on_arbitrary_stdin_bytes(monkeypatch):
    rng = random.Random(2024)
    codes = set()
    for case in range(4000):
        data = _fuzz_bytes(rng)
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr("sys.stderr", err)
        code = main(FUZZ_COMMANDS[case % 4])
        assert code in (0, 1, 2), (case, data)
        if code == 2:
            assert out.getvalue() == "", (case, data)
            assert err.getvalue().startswith("error: "), (case, data)
        codes.add(code)
    assert codes == {0, 1, 2}
