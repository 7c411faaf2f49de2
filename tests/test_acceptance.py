"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured runtime where a budget applies.

Expected values marked as derived were computed with the independent
references in oracles.py (propagation-free backtracking, list-based set
algebra, trial division) before the package was written, and are frozen
here: 288 completions of the empty 4x4 board, 78498 primes below one
million.
"""

import random
import time

import pytest

from bitsudoku.cli import main
from bitsudoku.grid import Grid, is_sudoku_matrix, parse
from bitsudoku.smallset import SmallSet
from bitsudoku.solver import Event, init_state, propagate, solve
from bitsudoku.sieve import primes_up_to

from oracles import (
    CLASSIC_81,
    brute_force_count,
    delete_cells,
    members_of_word,
    primes_by_trial_division,
    ref_difference,
    ref_insert,
    ref_intersect,
    ref_is_subset,
    ref_remove,
    ref_union,
    shuffled_valid_grid,
)

EMPTY_4 = "2\n" + "0 0 0 0\n" * 4
COMPLETE_4 = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"
WITNESS_4 = "2\n0 2 3 4\n1 0 0 0\n0 0 0 0\n0 0 0 0\n"

SHIDOKU_SOLUTIONS = 288       # brute_force_count(2, empty board)
PRIME_COUNT_1E6 = 78498       # len(primes_by_trial_division(10**6))


def report_pass(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS  ({message})")


def test_criterion_1_set_algebra_oracle_equivalence():
    """Every set operation agrees with the list reference on all 65536
    ordered pairs over an 8-element universe, in under 5 seconds."""
    m = 8
    started = time.perf_counter()
    words = list(range(1 << m))
    sets = [SmallSet(w, m) for w in words]
    lists = [members_of_word(w, m) for w in words]

    for wa in words:
        a, la = sets[wa], lists[wa]
        assert list(a.elements()) == la
        assert a.cardinality() == len(la)
        for d in range(1, m + 1):
            assert a.contains(d) == (d in la)
            assert list(a.insert(d)) == ref_insert(la, d)
            assert list(a.remove(d)) == ref_remove(la, d)
        for wb in words:
            b, lb = sets[wb], lists[wb]
            assert list(a.intersect(b)) == ref_intersect(la, lb)
            assert list(a.union(b)) == ref_union(la, lb)
            assert list(a.difference(b)) == ref_difference(la, lb)
            assert a.equals(b) == (la == lb)
            assert a.is_subset(b) == ref_is_subset(la, lb)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report_pass(1, f"65536 pairs x 5 binary ops + unary ops, {elapsed:.2f}s")


def test_criterion_2_empty_shidoku_count(tmp_path, capsys):
    """`count` on the blank 4x4 board reports exactly 288 solutions in
    under 1 second; 288 is re-derived from the brute-force oracle here."""
    assert brute_force_count(2, [[0] * 4 for _ in range(4)]) == SHIDOKU_SOLUTIONS

    path = tmp_path / "empty4.txt"
    path.write_text(EMPTY_4)
    started = time.perf_counter()
    code = main(["count", str(path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out

    assert out == f"solutions={SHIDOKU_SOLUTIONS}\n"
    assert code == 0
    assert elapsed < 1.0
    report_pass(2, f"count=288, {elapsed * 1000:.0f}ms")


def test_criterion_3_round_trip_soundness():
    """100 generated 4x4 puzzles and 20 generated 9x9 puzzles: every
    reported solution is a valid board preserving all clues, and the 4x4
    solution counts match the brute-force oracle exactly; under 30 s."""
    started = time.perf_counter()
    rng = random.Random(20250810)

    def check_solutions(puzzle, order, report):
        for sol in report.solutions:
            assert is_sudoku_matrix(sol)
            m = order * order
            for r in range(m):
                for c in range(m):
                    if puzzle[r][c] != 0:
                        assert sol.cells[r][c] == puzzle[r][c]

    for _ in range(100):
        puzzle = delete_cells(shuffled_valid_grid(2, rng),
                              rng.randint(0, 16), rng)
        report = solve(Grid(2, puzzle), cap=300)
        assert report.solution_count == brute_force_count(2, puzzle)
        assert len(report.solutions) == report.solution_count
        check_solutions(puzzle, 2, report)

    for _ in range(20):
        puzzle = delete_cells(shuffled_valid_grid(3, rng),
                              rng.randint(35, 45), rng)
        report = solve(Grid(3, puzzle), cap=20, limit=20)
        assert report.solution_count >= 1
        assert report.solutions
        check_solutions(puzzle, 3, report)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(3, f"100 4x4 + 20 9x9 puzzles, {elapsed:.2f}s")


def test_criterion_4_propagation_only_puzzle_needs_no_trials():
    """Deleting cells from a complete 9x9 board one at a time, keeping
    each deletion only while propagation alone still completes the board,
    yields a puzzle that solve() finishes with zero trials."""
    rng = random.Random(424242)
    complete = shuffled_valid_grid(3, rng)
    puzzle = [row[:] for row in complete]

    positions = [(r, c) for r in range(9) for c in range(9)]
    rng.shuffle(positions)
    for r, c in positions:
        saved = puzzle[r][c]
        puzzle[r][c] = 0
        _, event, _ = propagate(init_state(Grid(3, puzzle)))
        if event is not Event.E2_SOLVED:
            puzzle[r][c] = saved

    blanks = sum(row.count(0) for row in puzzle)
    assert blanks > 0

    report = solve(Grid(3, puzzle))
    assert report.trials == 0
    assert report.solution_count == 1
    assert report.solutions[0].cells == complete
    report_pass(4, f"{blanks} blanks solved with trials=0")


def test_criterion_5_contradiction_witness(tmp_path, capsys):
    """The hand-computed contradiction board (row 1 missing only 1, with
    a 1 already below in column 1) has zero solutions and exits 1."""
    g = parse(WITNESS_4).to_grid()
    state = init_state(g)
    # hand intersection: {1} & {2,3,4} & {3,4} = {}
    assert state.row_missing[0] == SmallSet.from_elements([1], 4)
    assert state.col_missing[0] == SmallSet.from_elements([2, 3, 4], 4)
    assert state.block_missing[0][0] == SmallSet.from_elements([3, 4], 4)

    report = solve(g)
    assert report.solution_count == 0
    assert report.terminal_event is Event.E1_CONTRADICTION

    path = tmp_path / "witness.txt"
    path.write_text(WITNESS_4)
    code = main(["count", str(path)])
    assert capsys.readouterr().out == "solutions=0\n"
    assert code == 1
    report_pass(5, "solutions=0, exit code 1")


def test_criterion_6_sieve_against_trial_division():
    """Sieve output agrees with trial division exhaustively to 10^4,
    never contains 1, and counts 78498 primes below 10^6; under 2 s."""
    started = time.perf_counter()

    assert primes_up_to(10_000) == primes_by_trial_division(10_000)
    for n in range(0, 60):
        assert primes_up_to(n) == primes_by_trial_division(n)
        assert 1 not in primes_up_to(n)

    million = primes_up_to(10 ** 6)
    assert len(million) == PRIME_COUNT_1E6
    assert million[0] == 2

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    report_pass(6, f"10^4 exhaustive + |primes<=10^6|=78498, {elapsed:.2f}s")


def test_criterion_7_byte_identical_reruns(tmp_path, capsys):
    """Every command used by this suite prints byte-identical stdout,
    including the trials and passes counters, when run twice."""
    files = {
        "empty4.txt": EMPTY_4,
        "complete4.txt": COMPLETE_4,
        "witness4.txt": WITNESS_4,
        "classic.txt": CLASSIC_81 + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def p(name):
        return str(tmp_path / name)

    commands = [
        ["count", p("empty4.txt")],
        ["count", "--stats", "--limit", "50", p("empty4.txt")],
        ["count", p("witness4.txt")],
        ["solve", "--stats", p("complete4.txt")],
        ["solve", "--stats", p("classic.txt")],
        ["solve", "--format", "classic", p("classic.txt")],
        ["check", p("complete4.txt")],
        ["sieve", "100"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            main(argv)
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1], f"nondeterministic output: {argv}"
    report_pass(7, f"{len(commands)} commands, two runs each")


def test_criterion_8_performance_sanity():
    """A published-difficulty 9x9 puzzle solves in under 50 ms and the
    full 288-solution count of the blank 4x4 board takes under 1 s."""
    nine = parse(CLASSIC_81).to_grid()
    started = time.perf_counter()
    report = solve(nine)
    nine_ms = (time.perf_counter() - started) * 1000
    assert report.solution_count >= 1
    assert nine_ms < 50.0

    blank4 = Grid(2, [[0] * 4 for _ in range(4)])
    started = time.perf_counter()
    report = solve(blank4, cap=0)
    four_s = time.perf_counter() - started
    assert report.solution_count == SHIDOKU_SOLUTIONS
    assert four_s < 1.0
    report_pass(8, f"9x9 in {nine_ms:.1f}ms, blank 4x4 count in {four_s:.3f}s")
