import random
import sys

import pytest

from bitsudoku.grid import Grid, first_conflict, is_sudoku_matrix, render
from bitsudoku.smallset import SmallSet
from bitsudoku.solver import (
    FEWEST_CANDIDATES,
    FIRST_BLANK,
    ConflictError,
    Event,
    assign,
    candidates,
    init_state,
    propagate,
    solve,
)

from oracles import (
    brute_force_count,
    brute_force_solutions,
    delete_cells,
    exact_cover_solutions,
    pattern_grid,
    ref_solve,
    shuffled_valid_grid,
)

COMPLETE_4 = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]

# Blank at (1,1) sees 1 as the only value missing from its row, but 1 is
# already taken in its column: the candidate intersection is empty.
WITNESS_4 = [[0, 2, 3, 4], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def grid4(cells=None):
    return Grid(2, cells if cells is not None else [[0] * 4 for _ in range(4)])


# -- init_state ---------------------------------------------------------------

def test_init_state_complete_grid():
    st = init_state(Grid(2, COMPLETE_4))
    assert st.blanks == []
    assert all(s == SmallSet.empty(4) for s in st.row_missing)
    assert all(s == SmallSet.empty(4) for s in st.col_missing)
    assert all(s == SmallSet.empty(4)
               for row in st.block_missing for s in row)


def test_init_state_all_blank():
    st = init_state(grid4())
    assert len(st.blanks) == 16
    assert st.blanks[0] == (1, 1) and st.blanks[-1] == (4, 4)
    full = SmallSet.full(4)
    assert all(s == full for s in st.row_missing)
    assert all(s == full for s in st.col_missing)
    assert all(s == full for row in st.block_missing for s in row)


def test_init_state_single_clue():
    cells = [[0] * 4 for _ in range(4)]
    cells[0][0] = 1
    st = init_state(grid4(cells))
    rest = SmallSet.from_elements([2, 3, 4], 4)
    full = SmallSet.full(4)
    assert st.row_missing[0] == rest
    assert st.col_missing[0] == rest
    assert st.block_missing[0][0] == rest
    assert st.row_missing[1] == full
    assert st.col_missing[3] == full
    assert st.block_missing[1][1] == full


def test_init_state_rejects_duplicate_clues():
    cells = [[0] * 4 for _ in range(4)]
    cells[0][0] = 3
    cells[0][3] = 3
    with pytest.raises(ConflictError) as err:
        init_state(grid4(cells))
    assert "row 1" in str(err.value)


# -- candidates ---------------------------------------------------------------

def test_candidates_all_blank():
    st = init_state(grid4())
    assert candidates(st, 1, 1) == SmallSet.full(4)


def test_candidates_row_forces_single_value():
    st = init_state(grid4([[0, 2, 3, 4], [0] * 4, [0] * 4, [0] * 4]))
    assert list(candidates(st, 1, 1)) == [1]


def test_candidates_witness_is_empty():
    st = init_state(grid4(WITNESS_4))
    assert st.row_missing[0] == SmallSet.from_elements([1], 4)
    assert st.col_missing[0] == SmallSet.from_elements([2, 3, 4], 4)
    assert st.block_missing[0][0] == SmallSet.from_elements([3, 4], 4)
    assert candidates(st, 1, 1).cardinality() == 0


def test_candidates_requires_blank_cell():
    st = init_state(Grid(2, COMPLETE_4))
    with pytest.raises(ValueError):
        candidates(st, 1, 1)


# -- assign -------------------------------------------------------------------

def test_assign_matches_from_scratch_state():
    st = init_state(grid4())
    assign(st, 1, 1, 2)
    assign(st, 3, 4, 1)
    fresh = init_state(st.grid)
    assert st.row_missing == fresh.row_missing
    assert st.col_missing == fresh.col_missing
    assert st.block_missing == fresh.block_missing
    assert st.blanks == fresh.blanks


def test_assign_updates_sets_and_blanks():
    st = init_state(grid4())
    assign(st, 2, 3, 4)
    assert not st.row_missing[1].contains(4)
    assert not st.col_missing[2].contains(4)
    assert not st.block_missing[0][1].contains(4)
    assert (2, 3) not in st.blanks


def test_assign_last_blank_empties_list():
    cells = [row[:] for row in COMPLETE_4]
    cells[2][2] = 0
    st = init_state(grid4(cells))
    assign(st, 3, 3, 4)
    assert st.blanks == []


def test_assign_rejects_non_candidate():
    st = init_state(grid4([[0, 2, 3, 4], [0] * 4, [0] * 4, [0] * 4]))
    with pytest.raises(ValueError):
        assign(st, 1, 1, 2)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (5, 1), (1, 5)])
def test_cells_off_the_board_raise_one_index_error(i, j):
    st = init_state(grid4())
    messages = []
    for call in (lambda: candidates(st, i, j), lambda: assign(st, i, j, 1),
                 lambda: grid4().value(i, j)):
        with pytest.raises(IndexError) as exc:
            call()
        messages.append(str(exc.value))
    assert messages == [f"cell ({i}, {j}) outside 1..4"] * 3
    assert st == init_state(grid4())


# -- propagate ----------------------------------------------------------------

def test_propagate_complete_grid_is_immediate():
    st = init_state(Grid(2, COMPLETE_4))
    st, event, passes = propagate(st)
    assert event is Event.E2_SOLVED
    assert passes == 0
    assert st.grid.cells == COMPLETE_4


def test_propagate_witness_contradicts():
    st = init_state(grid4(WITNESS_4))
    _, event, _ = propagate(st)
    assert event is Event.E1_CONTRADICTION


def test_propagate_restores_deleted_cell():
    cells = [row[:] for row in COMPLETE_4]
    cells[0][0] = 0
    st = init_state(grid4(cells))
    st, event, passes = propagate(st)
    assert event is Event.E2_SOLVED
    assert passes == 1
    assert st.grid.cells == COMPLETE_4


def test_propagate_stalls_on_all_blank():
    st = init_state(grid4())
    st, event, passes = propagate(st)
    assert event is Event.E3_EXHAUSTED_BY_SEARCH
    assert passes == 1
    assert len(st.blanks) == 16


def test_propagate_assignments_were_forced():
    # every cell propagation fills must be the sole candidate there when
    # recomputed from scratch with that cell blanked again
    rng = random.Random(11)
    cells = delete_cells(shuffled_valid_grid(3, rng), 30, rng)
    before = Grid(3, cells)
    st = init_state(before)
    st, _, _ = propagate(st)
    m = before.side
    for r in range(m):
        for c in range(m):
            if before.cells[r][c] == 0 and st.grid.cells[r][c] != 0:
                redo = st.grid.copy()
                redo.cells[r][c] = 0
                again = init_state(redo)
                assert candidates(again, r + 1, c + 1).contains(
                    st.grid.cells[r][c])


def overwrite_clue(cells, order, rng):
    """Give one clue a value that none of its three units holds, so the
    board stays free of repeated clues but usually has no completion."""
    m = order * order
    r, c = rng.choice([(r, c) for r in range(m) for c in range(m)
                       if cells[r][c]])
    br, bc = r // order * order, c // order * order
    seen = ({cells[r][x] for x in range(m)} | {cells[y][c] for y in range(m)}
            | {cells[y][x] for y in range(br, br + order)
               for x in range(bc, bc + order)})
    free = [v for v in range(1, m + 1) if v not in seen]
    if free:
        cells[r][c] = rng.choice(free)
    return cells


def contradicts_after_placing(g):
    """Whether propagation hits E1 in a sweep that already placed a cell,
    replayed one cell at a time through candidates() and assign()."""
    st = init_state(g)
    while st.blanks:
        placed = False
        for i, j in st.blanks:
            cand = candidates(st, i, j)
            if cand.cardinality() == 0:
                return placed
            if cand.cardinality() == 1:
                assign(st, i, j, min(cand))
                placed = True
        if not placed:
            return False
    return False


def assert_matches_fresh_state(st):
    fresh = init_state(st.grid)
    assert st.blanks == fresh.blanks
    assert st.row_missing == fresh.row_missing
    assert st.col_missing == fresh.col_missing
    assert st.block_missing == fresh.block_missing


def test_propagate_leaves_the_old_open_list_intact():
    # solve's trials in one frame all start from the same open list, so
    # propagate may replace state.open but never change the list it held.
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        cells = delete_cells(shuffled_valid_grid(3, rng),
                             rng.randint(25, 55), rng)
        if rng.random() < 0.5:
            cells = overwrite_clue(cells, 3, rng)
        st = init_state(Grid(3, cells))
        before = st.open
        contents = before[:]
        _, event, _ = propagate(st)
        assert before == contents
        seen.add(event)
    assert seen == set(Event)


def test_propagation_keeps_state_consistent():
    # After propagate (whatever its event) and after assign, the blank list
    # and the unit sets must be those rebuilt from the grid alone.  Half
    # the boards have an overwritten clue; many of those stop with E1 in a
    # sweep that had already placed cells, which the count below checks.
    late_contradictions = 0
    for order, blanks, boards in ((2, (4, 12), 200), (3, (25, 55), 200),
                                  (4, (60, 160), 30)):
        rng = random.Random(order)
        for _ in range(boards):
            cells = delete_cells(shuffled_valid_grid(order, rng),
                                 rng.randint(*blanks), rng)
            if rng.random() < 0.5:
                cells = overwrite_clue(cells, order, rng)
            g = Grid(order, cells)
            late_contradictions += contradicts_after_placing(g)
            st, event, _ = propagate(init_state(g))
            assert_matches_fresh_state(st)
            if event is Event.E3_EXHAUSTED_BY_SEARCH:
                i, j = st.blanks[-1]
                assign(st, i, j, max(candidates(st, i, j)))
                assert_matches_fresh_state(st)
                st, _, _ = propagate(st)
                assert_matches_fresh_state(st)
    assert late_contradictions >= 50


# -- solve --------------------------------------------------------------------

def test_solve_complete_grid():
    report = solve(Grid(2, COMPLETE_4))
    assert report.solution_count == 1
    assert report.trials == 0
    assert report.propagation_passes == 0
    assert report.terminal_event is Event.E2_SOLVED
    assert not report.truncated
    assert report.solutions[0].cells == COMPLETE_4


def test_solve_witness_has_no_solution():
    report = solve(grid4(WITNESS_4))
    assert report.solution_count == 0
    assert report.solutions == []
    assert report.terminal_event is Event.E1_CONTRADICTION


def test_solve_empty_shidoku_counts_288():
    report = solve(grid4(), cap=0)
    assert report.solution_count == 288
    assert report.solutions == []
    assert not report.truncated
    assert report.terminal_event is Event.E3_EXHAUSTED_BY_SEARCH


def test_solve_limit_stops_early():
    report = solve(grid4(), limit=10)
    assert report.solution_count == 10
    assert report.truncated


# The 288th solution is the last one the full enumeration finds, so a limit
# of 288 stops with nothing left untried, after all 568 trials.
@pytest.mark.parametrize("limit, count, truncated", [
    (287, 287, True),
    (288, 288, False),
    (289, 288, False),
])
def test_solve_limit_at_the_last_solution(limit, count, truncated):
    report = solve(grid4(), cap=0, limit=limit)
    assert report.solution_count == count
    assert report.truncated is truncated
    if not truncated:
        assert report.trials == 568


def test_solve_search_depth_needs_no_python_recursion():
    # The blank 16x16 board branches 182 times on its way to the first
    # solution; the search must not spend a Python frame per branching.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        report = solve(Grid(4, [[0] * 16 for _ in range(16)]), limit=1)
    finally:
        sys.setrecursionlimit(old_limit)
    assert report.solution_count == 1
    assert is_sudoku_matrix(report.solutions[0])


def test_solve_limit_zero_rejected():
    with pytest.raises(ValueError):
        solve(grid4(), limit=0)
    with pytest.raises(ValueError):
        solve(grid4(), cap=-1)
    with pytest.raises(ValueError):
        solve(grid4(), branch="random")


def test_solve_cap_bounds_retained_solutions():
    report = solve(grid4(), cap=3)
    assert report.solution_count == 288
    assert len(report.solutions) == 3


def test_solve_rejects_inconsistent_grid():
    cells = [[0] * 4 for _ in range(4)]
    cells[1][0] = 2
    cells[1][2] = 2
    with pytest.raises(ConflictError):
        solve(grid4(cells))


def _outside(n):
    m = n * n
    return [(n, v) for v in (-1, -m, -(m + 1), m + 1, 255, 256)]


def _not_ints(n):
    return [(n, v) for v in (-0.0, 0.0, 2.0, 2.5, "3", None, [1])]


@pytest.mark.parametrize("n, v", [case for n in (2, 3, 5)
                                  for case in _outside(n) + _not_ints(n)],
                         ids=repr)
def test_raw_cells_outside_the_range_raise(n, v):
    """A raw write that set_value would refuse or store as another object
    reaches no answer: every reader of the cells, render included, raises
    TypeError for a cell that is not an int, even one equal to a value (so
    check names no blank for a -0.0), and ValueError for an int outside
    0..n².  One value on a blank board repeats nothing, so a ConflictError
    would be wrong."""
    m = n * n
    blank = Grid(n, [[0] * m for _ in range(m)])
    blank.cells[1][2] = v
    complete = Grid(n, pattern_grid(n))
    complete.cells[1][2] = v
    calls = [lambda: solve(blank, limit=1), lambda: init_state(blank),
             lambda: first_conflict(blank), lambda: is_sudoku_matrix(complete),
             lambda: render(blank)]
    if n == 3:
        calls.append(lambda: render(blank, "classic"))
    expected = ValueError if isinstance(v, int) else TypeError
    for call in calls:
        with pytest.raises(expected) as err:
            call()
        assert type(err.value) is expected


def test_a_raw_true_reads_as_one():
    """A bool is an int, so every reader takes a raw True as the value 1."""
    for n, fmt in ((2, "generic"), (3, "classic")):
        m = n * n
        ones = Grid(n, [[0] * m for _ in range(m)])
        ones.cells[1][2] = 1
        complete = Grid(n, pattern_grid(n))
        raw, raw_complete = ones.copy(), complete.copy()
        raw.cells[1][2] = True
        j = complete.cells[1].index(1)
        raw_complete.cells[1][j] = True
        assert solve(raw, cap=3, limit=3) == solve(ones, cap=3, limit=3)
        assert init_state(raw) == init_state(ones)
        raw.cells[1][3] = True
        ones.cells[1][3] = 1
        assert first_conflict(raw) == first_conflict(ones) == ("row", 2, 1)
        assert is_sudoku_matrix(raw_complete)
        assert render(raw, fmt) == render(ones, fmt)


def _seeded_puzzles():
    rng = random.Random(29)
    for _ in range(10):
        full = shuffled_valid_grid(2, rng)
        yield 2, delete_cells(full, rng.randint(4, 12), rng)
    # Every solution of these boards is found after backtracking: 53, 63
    # and 30 solutions at order 3, 64, 74 and 138 at order 4.
    for order, blanks in ((3, (50, 56)), (4, (130, 145))):
        for seed in (1, 5, 6):
            rng = random.Random(seed)
            full = shuffled_valid_grid(order, rng)
            yield order, delete_cells(full, rng.randint(*blanks), rng)


def test_solutions_are_valid_and_preserve_clues():
    for order, puzzle in _seeded_puzzles():
        m = order * order
        report = solve(Grid(order, puzzle), cap=300)
        assert report.solution_count == len(report.solutions)
        assert len({str(sol.cells) for sol in report.solutions}) == \
            len(report.solutions)
        for sol in report.solutions:
            assert is_sudoku_matrix(sol)
            for r in range(m):
                for c in range(m):
                    if puzzle[r][c] != 0:
                        assert sol.cells[r][c] == puzzle[r][c]


def test_solution_count_matches_brute_force():
    rng = random.Random(37)
    for _ in range(25):
        puzzle = delete_cells(shuffled_valid_grid(2, rng),
                              rng.randint(0, 16), rng)
        expected = brute_force_count(2, puzzle)
        assert solve(Grid(2, puzzle), cap=0).solution_count == expected


def test_9x9_solutions_match_brute_force():
    # 42-48 blanks keep the oracle near a second in all; with this seed 8
    # of the 12 boards have more than one solution.
    rng = random.Random(7)
    multiple = 0
    for _ in range(12):
        puzzle = delete_cells(shuffled_valid_grid(3, rng),
                              rng.randint(42, 48), rng)
        expected = brute_force_solutions(3, puzzle)
        report = solve(Grid(3, puzzle), cap=len(expected) + 1)
        assert report.solution_count == len(expected)
        assert sorted(s.cells for s in report.solutions) == sorted(expected)
        multiple += len(expected) > 1
    assert multiple == 8


def _counter_corpus():
    """Seeded boards, each with the limits to run it under: exhaustive
    counts at orders 2 and 3, the first 1-3 solutions at order 4."""
    yield 2, WITNESS_4, [None]
    rng = random.Random(20120119)
    for _ in range(12):
        yield 2, delete_cells(shuffled_valid_grid(2, rng),
                              rng.randint(4, 16), rng), [None]
    for _ in range(16):
        yield 3, delete_cells(shuffled_valid_grid(3, rng),
                              rng.randint(44, 54), rng), [None]
    for _ in range(4):
        yield 4, delete_cells(shuffled_valid_grid(4, rng),
                              rng.randint(115, 135), rng), [1, 2, 3]


@pytest.mark.parametrize("branch", [FEWEST_CANDIDATES, FIRST_BLANK])
def test_counters_match_the_set_based_restatement(branch):
    seen = set()
    for order, puzzle, limits in _counter_corpus():
        for limit in limits:
            report = solve(Grid(order, puzzle), limit=limit, branch=branch)
            got = (report.solution_count, report.trials,
                   report.propagation_passes, report.truncated,
                   report.terminal_event.value,
                   report.solutions[0].cells if report.solutions else None)
            assert got == ref_solve(order, puzzle, limit, branch)
            seen.add((report.terminal_event, report.truncated))
    # Each root event occurs, and search both stops early and runs out.
    assert seen >= {(Event.E1_CONTRADICTION, False), (Event.E2_SOLVED, False),
                    (Event.E3_EXHAUSTED_BY_SEARCH, False),
                    (Event.E3_EXHAUSTED_BY_SEARCH, True)}


def test_branch_policies_agree_on_count():
    rng = random.Random(43)
    for _ in range(8):
        puzzle = delete_cells(shuffled_valid_grid(2, rng),
                              rng.randint(6, 16), rng)
        g = Grid(2, puzzle)
        a = solve(g, cap=0, branch=FEWEST_CANDIDATES)
        b = solve(g, cap=0, branch=FIRST_BLANK)
        assert a.solution_count == b.solution_count


def _solution_set(report):
    return sorted(s.cells for s in report.solutions)


def _geometry_moves(order, rng):
    """(name, row order, column order) for a permutation of the bands, of
    the stacks, of the rows within each band and of the columns within
    each stack; none is the identity."""
    m = order * order

    def not_identity(perm_of):
        while True:
            perm = perm_of()
            if perm != list(range(m)):
                return perm

    def groups():
        bands = rng.sample(range(order), order)
        return [b * order + i for b in bands for i in range(order)]

    def within():
        return [b * order + i for b in range(order)
                for i in rng.sample(range(order), order)]

    same = list(range(m))
    return [("bands", not_identity(groups), same),
            ("stacks", same, not_identity(groups)),
            ("rows", not_identity(within), same),
            ("columns", same, not_identity(within))]


# Orders 4-5 use the first-large blank ranges, where every exhaustive count
# takes milliseconds; wider ranges reach boards with no bound on their work.
@pytest.mark.parametrize("order, blanks, branch", [
    (2, (4, 16), FEWEST_CANDIDATES), (2, (4, 16), FIRST_BLANK),
    (3, (44, 54), FEWEST_CANDIDATES), (3, (44, 54), FIRST_BLANK),
    (4, (100, 120), FEWEST_CANDIDATES), (5, (200, 250), FEWEST_CANDIDATES),
])
def test_relabelled_and_transposed_boards_keep_their_count(order, blanks,
                                                            branch):
    """An exhaustive count tries every value at each branch cell, and both
    policies pick that cell by position and candidate count alone, so a
    relabelling of the digits keeps the whole search tree: count, trials,
    passes and root event, with the solutions relabelled.  A transposed
    board, or one whose bands, stacks, or rows or columns within them are
    permuted, keeps its count and its solution set, moved the same way;
    its passes may differ, since the sweep is row-major.  Each board gets
    one of the four permutations in turn."""
    m = order * order
    rng = random.Random(2012 + order)
    geometry = random.Random(-order)     # leaves the boards rng draws alone
    counts = []
    moves = set()
    for t in range(30):
        puzzle = delete_cells(shuffled_valid_grid(order, rng),
                              rng.randint(*blanks), rng)
        relabel = [0] + rng.sample(range(1, m + 1), m)
        base = solve(Grid(order, puzzle), cap=10 ** 6, branch=branch)
        counts.append(base.solution_count)

        moved = solve(Grid(order, [[relabel[v] for v in row]
                                   for row in puzzle]),
                      cap=10 ** 6, branch=branch)
        assert (moved.solution_count, moved.trials, moved.propagation_passes,
                moved.terminal_event) == (base.solution_count, base.trials,
                                          base.propagation_passes,
                                          base.terminal_event)
        assert _solution_set(moved) == sorted(
            [[relabel[v] for v in row] for row in s.cells]
            for s in base.solutions)

        turned = solve(Grid(order, [list(col) for col in zip(*puzzle)]),
                       cap=10 ** 6, branch=branch)
        assert turned.solution_count == base.solution_count
        assert _solution_set(turned) == sorted(
            [list(col) for col in zip(*s.cells)] for s in base.solutions)

        name, rows, cols = _geometry_moves(order, geometry)[t % 4]
        moves.add(name)
        shifted = solve(Grid(order, [[puzzle[r][c] for c in cols]
                                     for r in rows]),
                        cap=10 ** 6, branch=branch)
        assert shifted.solution_count == base.solution_count, name
        assert _solution_set(shifted) == sorted(
            [[s.cells[r][c] for c in cols] for r in rows]
            for s in base.solutions), name
    assert max(counts) > 1
    assert moves == {"bands", "stacks", "rows", "columns"}


@pytest.mark.parametrize("order, blanks, boards", [
    (2, (4, 16), 20), (3, (44, 54), 8), (4, (100, 120), 6),
    (5, (200, 250), 6),
])
def test_exhaustive_counts_match_the_exact_cover_oracle(order, blanks,
                                                        boards):
    """Algorithm X shares no code with the engine, so the two agree on a
    count and on every solution only if both are right.  The boards come
    from one fixed seed per order; orders 4-5 keep to the first-large
    blank ranges, as the relabelling test does."""
    rng = random.Random(110 + order)
    puzzles = [delete_cells(shuffled_valid_grid(order, rng),
                            rng.randint(*blanks), rng) for _ in range(boards)]
    if order == 2:
        puzzles.append(WITNESS_4)     # consistent, with no completion
    counts = []
    for puzzle in puzzles:
        report = solve(Grid(order, puzzle), cap=10 ** 6)
        expected = exact_cover_solutions(order, puzzle)
        assert report.solution_count == len(expected)
        assert _solution_set(report) == expected
        counts.append(len(expected))
    assert max(counts) > 1
    if order == 2:
        assert counts[-1] == 0


def test_trials_zero_when_propagation_decides():
    cells = [row[:] for row in COMPLETE_4]
    cells[0][0] = 0
    cells[1][1] = 0
    report = solve(grid4(cells))
    assert report.solution_count == 1
    assert report.trials == 0

    report = solve(grid4(WITNESS_4))
    assert report.trials == 0


def test_candidate_sets_shrink_under_assignment():
    st = init_state(grid4())
    before = {pos: candidates(st, *pos) for pos in st.blanks}
    assign(st, 1, 1, 3)
    for pos in st.blanks:
        assert candidates(st, *pos).is_subset(before[pos])


def test_solve_is_deterministic():
    rng = random.Random(51)
    puzzle = delete_cells(shuffled_valid_grid(2, rng), 10, rng)
    g = Grid(2, puzzle)
    first = solve(g, cap=5)
    second = solve(g, cap=5)
    assert first == second


def test_solve_does_not_mutate_input():
    g = grid4(WITNESS_4)
    solve(g)
    assert g.cells == WITNESS_4
