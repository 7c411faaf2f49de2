"""Golden counters: the solver's observable behaviour on a seeded corpus.

Each row pins (solution count, trials, propagation passes, truncated,
root event, digest of the retained solutions) for one seeded board and
one branch policy.  Orders 2-3 are counted exhaustively; orders 4-5 stop
at the first solution.  The values were recorded from the SmallSet-based
engine that preceded the int-word solver state, so a refactor of the
search must reproduce them exactly; any drift is a behaviour change.
solve(..., prune=True) must give each row's count, truncation, root event
and solutions, with no more trials or passes.
"""

import hashlib
import random

import pytest

from bitsudoku import (FEWEST_CANDIDATES, FIRST_BLANK, Event, Grid,
                       is_sudoku_matrix, solve)
from oracles import clues, delete_cells, shuffled_valid_grid

CAP = 3
E2 = Event.E2_SOLVED
E3 = Event.E3_EXHAUSTED_BY_SEARCH
FC = FEWEST_CANDIDATES
FB = FIRST_BLANK

# (order, seed, blanks) -> {policy: (count, trials, passes, truncated,
#                                    root event, solutions digest)}
GOLDEN = {
    (2, 2, 12): {
        FC: (1, 0, 2, False, E2, "2113df797a2f2ed2"),
        FB: (1, 0, 2, False, E2, "2113df797a2f2ed2")},
    (2, 3, 13): {
        FC: (12, 22, 37, False, E3, "89267fa478129ca3"),
        FB: (12, 22, 37, False, E3, "89267fa478129ca3")},
    (2, 4, 16): {
        FC: (288, 568, 929, False, E3, "c38c59617294d7c5"),
        FB: (288, 568, 929, False, E3, "c38c59617294d7c5")},
    (3, 1, 50): {
        FC: (22, 42, 93, False, E3, "48b09da527d31c2d"),
        FB: (22, 42, 93, False, E3, "48b09da527d31c2d")},
    (3, 1, 53): {
        FC: (66, 142, 343, False, E3, "d8a1505e65a303df"),
        FB: (66, 145, 341, False, E3, "48b09da527d31c2d")},
    (3, 2, 50): {
        FC: (197, 486, 1078, False, E3, "2d6d5f627c36c409"),
        FB: (197, 699, 1287, False, E3, "f5f149a6ac9ab6c9")},
    (3, 3, 50): {
        FC: (48, 110, 203, False, E3, "4e2e6686a523b5b8"),
        FB: (48, 329, 464, False, E3, "1cc03219f0b97858")},
    (3, 3, 53): {
        FC: (565, 1256, 2592, False, E3, "41325241d3e0ede5"),
        FB: (565, 3037, 4968, False, E3, "ababb85d880d5f49")},
    (3, 4, 53): {
        FC: (113, 258, 564, False, E3, "f242b917d3882829"),
        FB: (113, 306, 606, False, E3, "91c3661672f4122f")},
    (4, 1, 120): {
        FC: (1, 16, 45, True, E3, "3a70493af7e308bd"),
        FB: (1, 11, 31, True, E3, "75eb46b40f7bf917")},
    (4, 1, 130): {
        FC: (1, 173, 285, True, E3, "e9044716a99bf772"),
        FB: (1, 148, 237, True, E3, "810e61f4ba5be421")},
    (4, 2, 130): {
        FC: (1, 44, 88, True, E3, "b7d6c51f7253bcae"),
        FB: (1, 24, 59, True, E3, "b7d6c51f7253bcae")},
    (4, 3, 130): {
        FC: (1, 508, 617, True, E3, "26057d4da2ffbcde"),
        FB: (1, 496, 614, True, E3, "26057d4da2ffbcde")},
    # The blank board: no early two-candidate cell, so the fewest-candidates
    # choice is a minimum over most of the open list at every stall.  Its
    # row was recorded from the int-word engine while it still rescanned
    # the open list for that choice.
    (4, 1, 256): {
        FC: (1, 191, 228, True, E3, "3de2c06238a1c687"),
        FB: (1, 175, 227, True, E3, "21af9417da15fe38")},
    (5, 2, 245): {
        FC: (1, 0, 7, False, E2, "c5c69c25c1e0271d"),
        FB: (1, 0, 7, False, E2, "c5c69c25c1e0271d")},
    (5, 1, 280): {
        FC: (1, 7, 28, True, E3, "91fe6bdca7bfcb68"),
        FB: (1, 118, 131, True, E3, "24f10bae4fb67510")},
    (5, 2, 270): {
        FC: (1, 44, 70, True, E3, "c5c69c25c1e0271d"),
        FB: (1, 91, 130, True, E3, "08e781729e23d733")},
    (5, 3, 270): {
        FC: (1, 712, 1179, True, E3, "6bf43bf8066d305f"),
        FB: (1, 846, 1491, True, E3, "b45fd8246db2964c")},
}


def seeded_board(order: int, seed: int, blanks: int) -> Grid:
    rng = random.Random(seed)
    return Grid(order, delete_cells(shuffled_valid_grid(order, rng),
                                    blanks, rng))


def solutions_digest(solutions: list[Grid]) -> str:
    text = "|".join(" ".join(str(v) for row in s.cells for v in row)
                    for s in solutions)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def signature(order: int, seed: int, blanks: int, policy: str,
              prune: bool = False) -> tuple:
    limit = None if order <= 3 else 1
    report = solve(seeded_board(order, seed, blanks), cap=CAP, limit=limit,
                   branch=policy, prune=prune)
    return (report.solution_count, report.trials, report.propagation_passes,
            report.truncated, report.terminal_event,
            solutions_digest(report.solutions))


@pytest.mark.parametrize("policy", [FC, FB])
@pytest.mark.parametrize("order,seed,blanks", sorted(GOLDEN))
def test_counters_match_golden_table(order, seed, blanks, policy):
    golden = GOLDEN[order, seed, blanks][policy]
    assert signature(order, seed, blanks, policy) == golden
    # The pruned search gives every field but the counters, which it can
    # only lower.
    count, trials, passes, *rest = signature(order, seed, blanks, policy,
                                             prune=True)
    assert (count, *rest) == (golden[0], *golden[3:])
    assert trials <= golden[1] and passes <= golden[2]


# The digests above were produced by the engine itself; at orders 4-5 no
# brute-force count is feasible, so check each retained solution directly.
@pytest.mark.parametrize("policy", [FC, FB])
@pytest.mark.parametrize("order,seed,blanks",
                         sorted(key for key in GOLDEN if key[0] >= 4))
def test_large_solutions_are_valid_and_keep_clues(order, seed, blanks,
                                                  policy):
    puzzle = seeded_board(order, seed, blanks)
    report = solve(puzzle, cap=CAP, limit=1, branch=policy)
    assert report.solutions
    for sol in report.solutions:
        assert is_sudoku_matrix(sol)
        for i, j, v in clues(puzzle):
            assert sol.value(i, j) == v
