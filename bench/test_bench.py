"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from bitsudoku import parse, solve  # noqa: E402

# sha256 of the seed-1 corpora; a change here changes every figure.
SEED1 = {
    "enumerate":
        "ee757329ea0f4490cc3300e285b3b1b28dfccff185c4ffc4f0420090f4b0d11c",
    "first-large":
        "67524179547b67836e9ccf9099fceec6190b928bbdf15ed19ec12af5c082b123",
    "cli": "0760731e004440cf35f5c514379a52c177dd0b866d93621e4168c4d626bdfa74",
}


def test_same_seed_gives_byte_identical_corpus():
    for make in (corpus.enumerate_corpus, corpus.first_large_corpus):
        assert corpus.digest(make(7)) == corpus.digest(make(7))
        assert corpus.digest(make(7)) != corpus.digest(make(8))
    cli = [corpus.digest(b) for b in corpus.cli_corpus(7).values()]
    assert cli == [corpus.digest(b) for b in corpus.cli_corpus(7).values()]


def test_seed1_corpus_is_pinned():
    assert corpus.digest(corpus.enumerate_corpus(1)) == SEED1["enumerate"]
    assert corpus.digest(corpus.first_large_corpus(1)) == SEED1["first-large"]
    cli = [b for group in corpus.cli_corpus(1).values() for b in group]
    assert corpus.digest(cli) == SEED1["cli"]


def test_generators_match_the_test_oracles():
    sys.path.append(str(ROOT / "tests"))
    oracles = pytest.importorskip("oracles")
    for order in (2, 3, 4, 5):
        for seed in range(3):
            a = oracles.shuffled_valid_grid(order, random.Random(seed))
            b = corpus.shuffled_valid_grid(order, random.Random(seed))
            assert a == b
            assert (oracles.delete_cells(a, order ** 3, random.Random(seed))
                    == corpus.delete_cells(b, order ** 3, random.Random(seed)))


def test_transform_keeps_the_solution_count():
    rng = random.Random(3)
    puzzle = corpus.delete_cells(corpus.shuffled_valid_grid(3, rng), 50, rng)
    copy = corpus.transform(puzzle, rng)
    assert copy != puzzle
    assert (reference.solve_reference(copy).count
            == reference.solve_reference(puzzle).count)


@pytest.mark.parametrize("limit", [None, 1])
def test_reference_reproduces_the_program_counters(limit):
    boards = (corpus.enumerate_corpus(2)[4:16] if limit is None
              else corpus.first_large_corpus(2)[:12])
    for b in boards:
        r = solve(parse(b.text).to_grid(), limit=limit)
        o = reference.solve_reference(reference.parse_cells(b.text), limit)
        assert (r.solution_count, r.trials, r.propagation_passes,
                r.truncated, r.terminal_event.value,
                tuple(map(tuple, r.solutions[0].cells))) == (
            o.count, o.trials, o.passes, o.truncated, o.root_event, o.first)


def test_golden_values_match_the_reference():
    texts = {"blank4": corpus.blank_text(2), "classic": corpus.CLASSIC,
             "inkala": corpus.INKALA, "hard1": corpus.HARD1,
             "blank16": corpus.blank_text(4)}
    for name, text in texts.items():
        limit = 1 if name == "blank16" else None
        board = corpus.Board(name, text)
        assert (workloads.expected_outcome(board, limit, {})
                == workloads.GOLDEN[name])


def test_validity_checker_rejects_broken_grids():
    full = corpus.shuffled_valid_grid(3, random.Random(1))
    clues = corpus.delete_cells(full, 40, random.Random(1))
    assert reference.is_valid_solution(full, clues)
    swapped = [row[:] for row in full]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    assert not reference.is_valid_solution(swapped, clues)
    other = corpus.shuffled_valid_grid(3, random.Random(2))
    assert not reference.is_valid_solution(other, clues)


def small_workload(name: str) -> workloads.InProcess:
    classic = corpus.Board("classic", corpus.CLASSIC + "\n")
    boards = [classic, corpus.Board("blank4", corpus.blank_text(2)), classic]
    return workloads.InProcess(name, lambda seed: boards, None, None,
                               "classic")


def test_doctored_golden_value_is_a_failed_operation():
    w = small_workload("t")
    tally, _, _ = workloads.run_in_process(w, 1, 0.01, False)
    assert tally.failed == 0 and tally.attempted == 3
    doctored = dict(workloads.GOLDEN)
    count, trials, *rest = doctored["blank4"]
    doctored["blank4"] = (count, trials + 1, *rest)
    tally, _, metrics = workloads.run_in_process(w, 1, 0.01, False,
                                                 golden=doctored)
    assert tally.failed == 1
    assert metrics["success_rate"] == 2 / 3


def test_crash_is_a_failed_operation():
    classic = corpus.Board("classic", corpus.CLASSIC + "\n")
    broken = corpus.Board("classic", "not a puzzle\n")
    w = workloads.InProcess("t", lambda seed: [classic, broken, classic],
                            None, None, "classic")
    tally, _, _ = workloads.run_in_process(w, 1, 0.01, False)
    assert tally.failed > 0 and tally.attempted == 3 * tally.failed


def test_traced_run_reports_counts_and_shares():
    tally, _, result = workloads.run_in_process(small_workload("t"), 1,
                                                0.01, True)
    layers = result["layers"]
    assert tally.failed == 0
    assert layers["solver.trials"] == 568
    assert layers["solver.solutions"] == 290
    assert 0 < layers["solver.search_share"] < 1


def test_tail_deadline_is_honoured(tmp_path):
    path = tmp_path / "blank25.txt"
    path.write_text(corpus.blank_text(5))
    env = workloads.cli_env(ROOT)
    t0 = perf_counter()
    status, code, out, seconds = workloads.run_cli(
        ["solve", str(path)], None, 0.5, env, ROOT)
    assert status == "timeout" and code is None and out == b""
    assert 0.5 <= seconds < 2.0 and perf_counter() - t0 < 2.0


def test_cli_judges_are_byte_exact():
    boards = corpus.cli_corpus(1)
    plan, tails = workloads.cli_plan(boards)
    solve_req = plan[0]
    judge = workloads.cli_judge(solve_req)
    o = reference.solve_reference(reference.parse_cells(solve_req.board.text),
                                  1)
    good = (corpus.classic_text([list(r) for r in o.first])
            + f"solutions=1{'+' if o.truncated else ''} trials={o.trials} "
              f"passes={o.passes}\n").encode()
    assert judge(0, good)
    assert not judge(1, good)
    assert not judge(0, good.replace(b"trials=", b"trials=1"))
    count = workloads.cli_judge(next(r for r in plan if r.kind == "count"))
    assert count(0, b"solutions=288\n") and not count(0, b"solutions=287\n")
    tail = workloads.cli_judge(tails[0])
    assert tail(1, b"solutions=0\n") and not tail(0, b"solutions=1\n")


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
