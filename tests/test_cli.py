import gc
import io
import os
import random
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

from oracles import (CLASSIC_81, INVALID_4, clues, delete_cells,
                     primes_by_trial_division, ref_render,
                     shuffled_valid_grid)

EMPTY_4 = "2\n" + "0 0 0 0\n" * 4
COMPLETE_4 = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"
WITNESS_4 = "2\n0 2 3 4\n1 0 0 0\n0 0 0 0\n0 0 0 0\n"
REPEATED_4 = "2\n1 0 0 1\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"


@pytest.fixture
def puzzle_file(tmp_path):
    def write(text, name="puzzle.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_count_empty_shidoku(puzzle_file, capsys):
    code = main(["count", puzzle_file(EMPTY_4)])
    assert capsys.readouterr().out == "solutions=288\n"
    assert code == 0


def test_count_with_limit_marks_lower_bound(puzzle_file, capsys):
    code = main(["count", "--limit", "10", puzzle_file(EMPTY_4)])
    assert capsys.readouterr().out == "solutions=10+\n"
    assert code == 0


def test_count_stats_line_is_machine_parseable(puzzle_file, capsys):
    code = main(["count", "--stats", puzzle_file(COMPLETE_4)])
    assert capsys.readouterr().out == "solutions=1 trials=0 passes=0\n"
    assert code == 0


def test_solve_echoes_complete_grid_with_stats(puzzle_file, capsys):
    code = main(["solve", "--stats", puzzle_file(COMPLETE_4)])
    out = capsys.readouterr().out
    assert out == COMPLETE_4 + "solutions=1 trials=0 passes=0\n"
    assert code == 0


def test_count_witness_is_unsolvable(puzzle_file, capsys):
    code = main(["count", puzzle_file(WITNESS_4)])
    assert capsys.readouterr().out == "solutions=0\n"
    assert code == 1


def test_solve_witness_prints_unsolvable(puzzle_file, capsys):
    code = main(["solve", puzzle_file(WITNESS_4)])
    assert capsys.readouterr().out == "UNSOLVABLE\n"
    assert code == 1


def test_solve_output_reparses_as_valid_grid(puzzle_file, capsys):
    code = main(["solve", puzzle_file(CLASSIC_81)])
    out = capsys.readouterr().out
    assert code == 0
    solved = parse(out).copy()
    assert is_sudoku_matrix(solved)
    original = parse(CLASSIC_81)
    for i, j, v in clues(original):
        assert solved.value(i, j) == v


def test_solve_then_check_round_trip(puzzle_file, capsys):
    assert main(["solve", puzzle_file(EMPTY_4)]) == 0
    solved = capsys.readouterr().out
    assert main(["check", puzzle_file(solved, "solved.txt")]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_valid_and_invalid(puzzle_file, capsys):
    assert main(["check", puzzle_file(COMPLETE_4)]) == 0
    assert capsys.readouterr().out == "VALID\n"
    assert main(["check", puzzle_file(INVALID_4, "bad.txt")]) == 1
    assert capsys.readouterr().out == "INVALID\n"


def test_check_rejects_incomplete_grid(puzzle_file, capsys):
    code = main(["check", puzzle_file(EMPTY_4)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "complete" in captured.err


def test_parse_error_exits_2(puzzle_file, capsys):
    code = main(["count", puzzle_file("2\n1 2 3 9\n0 0 0 0\n0 0 0 0\n0 0 0 0\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_missing_file_exits_2(capsys):
    code = main(["count", "/nonexistent/puzzle.txt"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe5300")
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_reads_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(EMPTY_4.encode())))
    code = main(["count", "-"])
    assert capsys.readouterr().out == "solutions=288\n"
    assert code == 0


def test_undecodable_stdin_names_the_byte(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(b"\xff\xfe5300")))
    code = main(["solve", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "byte 0xff" in captured.err


def test_stdin_rejects_the_bytes_a_file_rejects(tmp_path, capsys):
    data = b"# caf\xe9\n" + EMPTY_4.encode()
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    assert main(["count", str(path)]) == 2
    file_err = capsys.readouterr().err

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-m", "bitsudoku", "count", "-"],
                          input=data, capture_output=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == file_err


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

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "bitsudoku", "count", "--stats", "-"],
        input=data, capture_output=True, env=env, timeout=60)
    assert proc.returncode == file_code
    assert proc.stdout.decode() == file_out
    assert proc.stderr.decode() == file_err


def test_stdin_is_decoded_as_utf8_whatever_its_text_encoding():
    data = b"# caf\xe9\n" + EMPTY_4.encode()
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="latin-1")
    proc = subprocess.run([sys.executable, "-m", "bitsudoku", "count", "-"],
                          input=data, capture_output=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"byte 0xe9" in proc.stderr


# With fd 0 closed, sys.stdin is None: reading "-" is an unreadable input,
# one error line and exit 2, not a traceback.
@pytest.mark.parametrize("command", ["solve", "count", "check"])
def test_closed_stdin_is_an_input_error(command):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m bitsudoku "$1" - <&-', sys.executable,
         command], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")
    assert proc.stderr.count(b"\n") == 1


# With fd 1 closed sys.stdout is None, and on /dev/full every write fails:
# either way the output is lost, which is one error line and exit 2, not a
# traceback and exit 1, which count would otherwise read as "no solutions".
@pytest.mark.parametrize("redirect", [">&-", ">/dev/full"])
@pytest.mark.parametrize("command", [["solve", "-"], ["count", "-"],
                                     ["sieve", "10"]])
def test_unwritable_stdout_is_an_output_error(command, redirect):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m bitsudoku "$@" {redirect}', sys.executable,
         *command], input=EMPTY_4.encode(), capture_output=True, env=env,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")
    assert proc.stderr.count(b"\n") == 1


# --help's text is output like any other: when it is lost, the process
# must still exit 2, whether the write or the flush fails.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["--help"], ["sieve", "--help"]])
def test_help_into_a_full_stdout_is_an_output_error(argv, unbuffered):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m bitsudoku "$@" >/dev/full', sys.executable,
         *argv], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: cannot write to stdout: ")
    assert proc.stderr.count(b"\n") == 1


def test_classic_output_format(puzzle_file, capsys):
    code = main(["solve", "--format", "classic", puzzle_file(CLASSIC_81)])
    out = capsys.readouterr().out
    assert code == 0
    line = out.strip()
    assert len(line) == 81 and line.isdigit() and "0" not in line


def test_classic_format_rejected_for_other_orders(puzzle_file, capsys):
    code = main(["solve", "--format", "classic", puzzle_file(EMPTY_4)])
    assert code == 2
    assert "order-3" in capsys.readouterr().err


def test_classic_format_is_ignored_by_count(puzzle_file, capsys):
    code = main(["count", "--format", "classic", puzzle_file(EMPTY_4)])
    assert capsys.readouterr().out == "solutions=288\n"
    assert code == 0


def test_classic_format_is_ignored_by_check(puzzle_file, capsys):
    grid = shuffled_valid_grid(4, random.Random(1))
    text = "4\n" + "".join(" ".join(map(str, row)) + "\n" for row in grid)
    code = main(["check", "--format", "classic", puzzle_file(text)])
    assert capsys.readouterr().out == "VALID\n"
    assert code == 0


def test_conflicting_clues_count_as_unsolvable(puzzle_file, capsys):
    twice = "2\n1 0 1 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
    code = main(["count", puzzle_file(twice)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "solutions=0\n"
    assert "conflicting" in captured.err


@pytest.mark.parametrize("command,verdict", [
    ("solve", "UNSOLVABLE\n"),
    ("count", ""),
])
def test_conflicting_clues_report_zero_stats(command, verdict, puzzle_file,
                                             capsys):
    twice = "2\n1 0 1 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
    code = main([command, "--stats", puzzle_file(twice)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == verdict + "solutions=0 trials=0 passes=0\n"
    assert "conflicting" in captured.err


def test_sieve_lists_primes(capsys):
    code = main(["sieve", "10"])
    assert capsys.readouterr().out == "2\n3\n5\n7\n"
    assert code == 0


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bitsudoku", "sieve", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


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


def test_sieve_one_yields_nothing(capsys):
    code = main(["sieve", "1"])
    assert capsys.readouterr().out == ""
    assert code == 0


# Neither bound is sieved: both are above sys.maxsize (2**63 - 1), the
# stated limit, so each fails before any work and before any output.
@pytest.mark.parametrize("bound", ["1000000000000000000000",
                                   "10000000000000000000"])
def test_sieve_bound_too_large_to_allocate_exits_2(bound, capsys):
    code = main(["sieve", bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: N={bound} is too large to sieve\n"


@pytest.mark.parametrize("argv", [
    ["count", "--limit", "0", "x"],
    ["solve", "--cap", "-1", "x"],
    ["sieve", "--", "-5"],
    ["frobnicate", "x"],
    [],
    # Numbers take ASCII digits only, as puzzle files do.
    ["sieve", "\u0663"],             # ARABIC-INDIC DIGIT THREE
    ["sieve", "+7"],
    ["sieve", "1_0"],
    ["sieve", " 7 "],
    ["count", "--limit", "\u0662", "x"],
    ["solve", "--cap", "+1", "x"],
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


# int() refuses a string of more than 4300 digits; leading zeros do not
# count, and a longer number is one error line and exit 2, not a traceback
# and exit 1, which count would read as "no solutions".
def test_over_long_value_in_a_puzzle_exits_2(puzzle_file, capsys):
    text = "2\n1 2 3 4\n3 1" + "0" * 5000 + " 1 2\n2 1 4 3\n4 3 2 1\n"
    code = main(["count", puzzle_file(text)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: value of 5001 digits outside [0, 4] "
                            "(line 3, column 2)\n")


@pytest.mark.parametrize("argv", [
    ["sieve", "1" * 5000],
    ["count", "--limit", "1" * 5000, "x"],
    ["solve", "--cap", "0" * 9 + "1" * 5000, "x"],
])
def test_over_long_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "invalid number of 5000 digits" in capsys.readouterr().err


def test_zero_padded_numbers_keep_their_value(puzzle_file, capsys):
    pad = "0" * 5000
    code = main(["count", "--limit", pad + "9",
                 puzzle_file(EMPTY_4.replace("0", pad))])
    assert capsys.readouterr().out == "solutions=9+\n"
    assert code == 0
    assert main(["sieve", pad + "7"]) == 0
    assert capsys.readouterr().out == "2\n3\n5\n7\n"


def test_count_retains_no_boards_whatever_the_cap(puzzle_file, monkeypatch,
                                                  capsys):
    caps = []
    real_solve = cli.solve

    def spy(g, cap, limit):
        caps.append(cap)
        return real_solve(g, cap=cap, limit=limit)

    monkeypatch.setattr(cli, "solve", spy)
    code = main(["count", "--cap", "100000", puzzle_file(EMPTY_4)])
    assert code == 0
    assert capsys.readouterr().out == "solutions=288\n"
    assert caps == [0]


def test_solve_keeps_a_solution_even_with_cap_zero(puzzle_file, capsys):
    code = main(["solve", "--cap", "0", puzzle_file(COMPLETE_4)])
    assert code == 0
    assert capsys.readouterr().out == COMPLETE_4


def test_repeat_invocations_are_byte_identical(puzzle_file, capsys):
    path = puzzle_file(EMPTY_4)
    runs = []
    for _ in range(2):
        main(["count", "--stats", "--limit", "50", path])
        runs.append(capsys.readouterr().out.encode())
    assert runs[0] == runs[1]


# Modules whose import cost a bare interpreter start should not pay: the
# dataclass machinery (dataclasses with inspect, ast, dis and tokenize) and
# typing.  Under -S no site hook imports them first.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; b = set(sys.modules); import bitsudoku.cli; "
            "print(' '.join(sorted(set(sys.modules) - b)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          input=CLASSIC_81.encode(), capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.rsplit(b"LOADED ", 1)[1].decode().split())
    assert "bitsudoku.cli" in loaded
    assert loaded.isdisjoint({"argparse", "gettext", "locale"})


def _main_code(argv):
    """In-process main()'s exit code, a usage error's SystemExit included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# The process entry returns to whatever ran `__main__`, so a wrapper's
# finally still runs (the benchmark reads its peak RSS there) and the
# process ends with main()'s code.
@pytest.mark.parametrize("text, argv, code", [
    (EMPTY_4, ["solve"], 0),
    (REPEATED_4, ["solve"], 1),
    (EMPTY_4, ["solve", "--cap", "x"], 2),      # usage error: SystemExit
], ids=["solved", "unsolvable", "usage-error"])
def test_process_entry_returns_to_its_caller(puzzle_file, capsys, text,
                                             argv, code):
    path = puzzle_file(text)
    assert _main_code(argv + [path]) == code
    expected = capsys.readouterr().out.encode()
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv, path],
                          capture_output=True, env=env, timeout=60)
    assert b"\nLOADED " in proc.stderr
    assert proc.returncode == code
    assert proc.stdout == expected


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
