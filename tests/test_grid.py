import random
import re
from functools import reduce
from itertools import chain
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from bitsudoku.grid import (
    MAX_ORDER,
    Grid,
    IncompleteGridError,
    PuzzleFormatError,
    first_conflict,
    is_sudoku_matrix,
    parse,
    render,
    unit_scan,
    unit_table,
)
from bitsudoku.solver import ConflictError, init_state, solve
from oracles import (CLASSIC_81, delete_cells, ref_first_conflict, ref_render,
                     ref_token, ref_units, shuffled_valid_grid)

COMPLETE_4 = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]
BAD_BLOCKS_4 = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]


# -- block geometry ----------------------------------------------------------

def block_coordinates(n):
    """Each 1-based cell (i, j) -> its 1-based block (k, l), read from the
    block index 2m + (k-1)·n + (l-1) that unit_table gives the cell."""
    m = n * n
    blocks = {}
    for x, (_, _, b) in enumerate(unit_table(n)):
        k, l = divmod(b - 2 * m, n)
        blocks[x // m + 1, x % m + 1] = (k + 1, l + 1)
    return blocks


def test_unit_table_block_examples():
    blocks = block_coordinates(3)
    assert blocks[4, 7] == (2, 3)
    assert blocks[1, 1] == (1, 1)
    assert blocks[9, 9] == (3, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_table_satisfies_defining_inequalities(n):
    m = n * n
    table = unit_table(n)
    assert len(table) == m * m
    for (i, j), (k, l) in block_coordinates(n).items():
        assert table[(i - 1) * m + j - 1][:2] == (i - 1, m + j - 1)
        assert (k - 1) * n < i <= k * n
        assert (l - 1) * n < j <= l * n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocks_partition_the_board(n):
    m = n * n
    buckets = {}
    for cell, block in block_coordinates(n).items():
        buckets.setdefault(block, []).append(cell)
    assert len(buckets) == m
    assert all(len(cells) == m for cells in buckets.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_table_matches_solver_layout(n):
    m = n * n
    for (i, j), (k, l) in block_coordinates(n).items():
        # A lone clue leaves its value missing from every block but its
        # own, read through the solver's block_missing[k-1][l-1] view.
        cells = [[0] * m for _ in range(m)]
        cells[i - 1][j - 1] = 1
        missing = init_state(Grid(n, cells)).block_missing
        assert [[1 not in s for s in row] for row in missing] == [
            [(bk, bl) == (k, l) for bl in range(1, n + 1)]
            for bk in range(1, n + 1)]


# -- Grid basics -------------------------------------------------------------

def test_grid_value_accessors_are_one_based():
    g = Grid(2, COMPLETE_4)
    assert g.value(1, 1) == 1
    assert g.value(2, 3) == 1
    g.set_value(2, 3, 0)
    assert g.cells[1][2] == 0


def test_grid_rejects_bad_shape_and_values():
    with pytest.raises(ValueError):
        Grid(2, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Grid(2, [[5, 0, 0, 0]] + [[0] * 4 for _ in range(3)])
    with pytest.raises(ValueError):
        Grid(1, [[1]])
    with pytest.raises(ValueError):
        Grid(6, [[0] * 36 for _ in range(36)])


@pytest.mark.parametrize("bad", [1.5, "1", None, [1]])
def test_grid_rejects_values_that_are_not_0_to_side(bad):
    # Each names the first value, row-major, that is not one of 0..m.
    blank = [[0] * 4 for _ in range(4)]
    cells = [row[:] for row in blank]
    cells[1][2] = bad
    cells[3][0] = 7
    with pytest.raises(ValueError, match=r"^cell value %s outside \[0, 4\]$"
                       % re.escape(repr(bad))):
        Grid(2, cells)
    g = Grid(2, blank)
    with pytest.raises(ValueError, match="^cell value"):
        g.set_value(2, 3, bad)
    assert g.cells == blank


def test_grid_holds_each_value_as_the_int_it_equals():
    # 2.0, True and -0.0 equal 2, 1 and 0, so each is a cell value; the
    # grid keeps the int, which the solver's bit shifts need.
    cells = [[0] * 4 for _ in range(4)]
    cells[0][0] = 2.0
    cells[1][1] = True
    cells[2][2] = -0.0
    g = Grid(2, cells)
    assert (g.cells[0][0], g.cells[1][1], g.cells[2][2]) == (2, 1, 0)
    assert all(type(v) is int for row in g.cells for v in row)
    g.set_value(4, 4, 3.0)
    assert type(g.cells[3][3]) is int
    report = solve(g)
    assert report.solution_count > 0
    assert all(type(v) is int
               for sol in report.solutions for row in sol.cells for v in row)


def test_grid_index_errors():
    g = Grid(2, COMPLETE_4)
    with pytest.raises(IndexError):
        g.value(0, 1)
    with pytest.raises(IndexError):
        g.set_value(5, 1, 1)


# -- validity checks ---------------------------------------------------------

def test_is_sudoku_matrix_accepts_complete_valid_grid():
    assert is_sudoku_matrix(Grid(2, COMPLETE_4))


def test_is_sudoku_matrix_rejects_row_duplicate():
    cells = [row[:] for row in COMPLETE_4]
    cells[0][1] = 1
    assert not is_sudoku_matrix(Grid(2, cells))


def test_is_sudoku_matrix_rejects_block_duplicate():
    # rows and columns are fine here; only the blocks repeat values
    assert not is_sudoku_matrix(Grid(2, BAD_BLOCKS_4))


def test_is_sudoku_matrix_requires_complete_grid():
    cells = [row[:] for row in COMPLETE_4]
    cells[3][3] = 0
    with pytest.raises(IncompleteGridError):
        is_sudoku_matrix(Grid(2, cells))


def test_first_conflict_on_partial_boards():
    assert first_conflict(Grid(2, [[0] * 4 for _ in range(4)])) is None
    assert first_conflict(Grid(2, COMPLETE_4)) is None

    cells = [[0] * 9 for _ in range(9)]
    cells[0][2] = 5
    cells[4][2] = 5
    assert first_conflict(Grid(3, cells)) == ("column", 3, 5)


def test_sudoku_matrix_implies_consistent():
    assert first_conflict(Grid(2, COMPLETE_4)) is None
    assert not is_sudoku_matrix(Grid(2, BAD_BLOCKS_4))
    assert first_conflict(Grid(2, BAD_BLOCKS_4)) is not None


def _unit_check_corpus():
    """Seeded boards at orders 2-5: a third are valid grids with repeats
    written over a few cells, a third the same with random blanks, and a
    third random clues on a blank board."""
    rng = random.Random(20120118)
    for t in range(3000):
        n = rng.choice([2, 3, 4, 5])
        m = n * n
        if t % 3 == 2:
            cells = [[0] * m for _ in range(m)]
            writes = rng.randrange(1, 2 * m)
        else:
            cells = shuffled_valid_grid(n, rng)
            writes = rng.randrange(3)
        for _ in range(writes):
            cells[rng.randrange(m)][rng.randrange(m)] = rng.randrange(1, m + 1)
        if t % 3 == 1:
            for _ in range(rng.randrange(m * m)):
                cells[rng.randrange(m)][rng.randrange(m)] = 0
        yield n, cells


def test_unit_checks_match_naive_unit_scan():
    firsts = set()
    verdicts = set()
    for n, cells in _unit_check_corpus():
        g = Grid(n, cells)
        want = ref_first_conflict(n, cells)
        assert first_conflict(g) == want
        blanks = [(i + 1, j + 1) for i, row in enumerate(cells)
                  for j, v in enumerate(row) if v == 0]
        if blanks:
            message = r"^blank cell at \(%d, %d\)$" % blanks[0]
            with pytest.raises(IncompleteGridError, match=message):
                is_sudoku_matrix(g)
            verdict = "incomplete"
        else:
            perm = list(range(1, n * n + 1))
            verdict = all(sorted(values) == perm
                          for _, _, values in ref_units(n, cells))
            assert is_sudoku_matrix(g) == verdict
        if want:
            message = "^%s %d contains %d more than once$" % want
            with pytest.raises(ConflictError, match=message):
                init_state(g)
        else:
            # Each word is the full set less the values the unit holds, and
            # open lists the blanks row-major.
            full = range(1, n * n + 1)
            st = init_state(g)
            assert st.words == [sum(1 << (d - 1) for d in full if d not in vs)
                                for _, _, vs in ref_units(n, cells)]
            assert st.open == [(i - 1) * n * n + j - 1 for i, j in blanks]
        firsts.add(want and want[0])
        verdicts.add(verdict)
    assert firsts == {None, "row", "column", "block"}
    assert verdicts == {True, False, "incomplete"}


@st.composite
def _scan_boards(draw):
    """A valid or a blank board at order 2-5, less some cells, with up to
    three cells then overwritten by any clue."""
    n = draw(st.integers(2, 5))
    m = n * n
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    cells = (shuffled_valid_grid(n, rng) if draw(st.booleans())
             else [[0] * m for _ in range(m)])
    cells = delete_cells(cells, draw(st.integers(0, m * m)), rng)
    index = st.integers(0, m - 1)
    for r, c, v in draw(st.lists(st.tuples(index, index, st.integers(1, m)),
                                 max_size=3)):
        cells[r][c] = v
    return n, cells


@settings(max_examples=200, deadline=None)
@given(_scan_boards())
def test_unit_scan_matches_the_unit_by_unit_reference(board):
    n, cells = board
    words, conflict = unit_scan(n, list(chain.from_iterable(cells)))
    assert conflict == ref_first_conflict(n, cells)
    if conflict is None:
        assert words == [reduce(or_, (1 << (v - 1) for v in values if v), 0)
                         for _, _, values in ref_units(n, cells)]
    else:
        assert words is None


# Repeats whose bit sums carry in different ways; each unit is named by
# rank (rows, columns, blocks), then its first value met a second time.
@pytest.mark.parametrize("n, clues, want", [
    # One value three times in a row: 2 + 2 + 2 sets two bits, not three.
    (3, {(1, 1): 2, (1, 4): 2, (1, 7): 2}, ("row", 1, 2)),
    # Two repeated pairs in one column, read 5, 7, 7, 5.
    (3, {(1, 2): 5, (4, 2): 7, (7, 2): 7, (8, 2): 5}, ("column", 2, 7)),
    # The top value twice in the centre block, rows and columns clean.
    (5, {(11, 12): 25, (14, 15): 25, (1, 1): 25}, ("block", 13, 25)),
    # Columns rank before blocks, whatever the indices.
    (3, {(1, 1): 6, (2, 2): 6, (4, 5): 4, (9, 5): 4}, ("column", 5, 4)),
])
def test_unit_scan_names_the_first_repeat(n, clues, want):
    m = n * n
    cells = [[0] * m for _ in range(m)]
    for (i, j), v in clues.items():
        cells[i - 1][j - 1] = v
    assert ref_first_conflict(n, cells) == want
    assert unit_scan(n, list(chain.from_iterable(cells))) == (None, want)
    assert first_conflict(Grid(n, cells)) == want


# unit_scan sums each unit's bits in a 32-bit lane; a lane sums at most m
# bits below 2^m, so at the largest order no lane can carry.
def test_lane_sums_cannot_carry():
    assert MAX_ORDER ** 2 * 2 ** (MAX_ORDER ** 2 - 1) < 2 ** 32


# 25 in every cell of the first row, the first column and the centre
# block: those lanes sum 25 copies of the top bit, the largest sums there
# are.  With the first column alone, no row repeats a value.
@pytest.mark.parametrize("full_row_and_block, want", [
    (True, ("row", 1, 25)), (False, ("column", 1, 25))])
def test_unit_scan_names_the_first_repeat_at_the_largest_sums(
        full_row_and_block, want):
    cells = [[25 if c == 0 or full_row_and_block and (
                 r == 0 or 10 <= r < 15 and 10 <= c < 15) else 0
              for c in range(25)] for r in range(25)]
    assert ref_first_conflict(5, cells) == want
    flat = list(chain.from_iterable(cells))
    for given_cells in (flat, bytes(flat), bytearray(flat)):
        assert unit_scan(5, given_cells) == (None, want)


# On a full valid board every word is the full set, the top lanes (the
# last row, column and block) too, whatever type holds the cells.
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_scan_on_full_boards_gives_every_word(n):
    m = n * n
    cells = shuffled_valid_grid(n, random.Random(n))
    want = [reduce(or_, (1 << (v - 1) for v in values))
            for _, _, values in ref_units(n, cells)]
    assert want == [(1 << m) - 1] * (3 * m)
    flat = list(chain.from_iterable(cells))
    for given_cells in (flat, bytes(flat), bytearray(flat)):
        assert unit_scan(n, given_cells) == (want, None)


# -- parsing -----------------------------------------------------------------

def test_parse_classic_single_line():
    doc = parse(CLASSIC_81)
    assert doc.order == 3
    assert doc.cells[0][0] == 5
    assert doc.cells[0][2] == 0
    assert doc.cells[8][8] == 9
    assert (sum(row.count(0) for row in doc.cells)
            == sum(ch == "0" for ch in CLASSIC_81))


def test_parse_classic_accepts_dots_and_whitespace():
    text = CLASSIC_81.replace("0", ".")
    spread = "\n".join(text[i:i + 9] for i in range(0, 81, 9))
    assert parse(spread).cells == parse(CLASSIC_81).cells


def test_parse_generic_complete_document():
    doc = parse("2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n")
    assert doc.order == 2
    assert sum(row.count(0) for row in doc.cells) == 0
    assert doc.cells == COMPLETE_4


def test_parse_generic_comments_and_whitespace():
    doc = parse("# a puzzle\n2\n\n0 0 0 0   \n# middle\n0 0 0 0\n"
                "0 0 0 0\n0 0 0 0\n")
    assert doc.order == 2
    assert sum(row.count(0) for row in doc.cells) == 16


def test_parse_value_above_side_is_an_error():
    with pytest.raises(PuzzleFormatError) as err:
        parse("2\n1 2 3 5\n3 4 1 2\n2 1 4 3\n4 3 2 1\n")
    assert "5" in str(err.value)
    assert err.value.line == 2


def test_parse_reports_line_and_column():
    with pytest.raises(PuzzleFormatError) as err:
        parse("2\n1 2 3 4\n3 x 1 2\n2 1 4 3\n4 3 2 1\n")
    assert err.value.line == 3
    assert err.value.column == 2
    # A row both short and holding an odd token is judged by its length.
    with pytest.raises(PuzzleFormatError) as err:
        parse("2\n1 2 3 4\n3 x 1\n2 1 4 3\n4 3 2 1\n")
    assert str(err.value) == "expected 4 values per row, found 3 (line 3)"
    assert (err.value.line, err.value.column) == (3, None)


@pytest.mark.parametrize("text", [
    "",
    "# only comments\n",
    "2\n1 2 3 4\n",                      # too few rows
    "2\n" + "0 0 0 0\n" * 5,             # too many rows
    "2\n1 2 3\n3 4 1 2\n2 1 4 3\n4 3 2 1\n",   # short row
    "1\n1\n",                            # order too small
    "6\n" + ("0 " * 36 + "\n") * 36,     # order too large
    "12345",                             # classic with wrong cell count
    "2\n+1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n",    # signed value
    "2\n١ 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n",  # Arabic-Indic digit one
    "4\n1_0" + " 0" * 15 + "\n" + ("0 " * 16 + "\n") * 15,  # underscore
    "+2\n" + "0 0 0 0\n" * 4,            # signed order header
])
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(PuzzleFormatError):
        parse(text)


# int() refuses a string of more than 4300 digits.  A value is judged by
# its digits after the leading zeros, and a long one is named by its length.
def test_parse_judges_over_long_values_by_their_digits():
    pad = "0" * 5000
    doc = parse(f"2\n{pad}1 2 3 4\n3 4 1 {pad}\n2 1 4 3\n4 3 2 1\n")
    assert doc.cells == [[1, 2, 3, 4], [3, 4, 1, 0],
                         [2, 1, 4, 3], [4, 3, 2, 1]]
    with pytest.raises(PuzzleFormatError) as err:
        parse(f"2\n1 2 3 4\n3 {pad}1{pad} 1 2\n2 1 4 3\n4 3 2 1\n")
    assert (err.value.line, err.value.column) == (3, 2)
    assert str(err.value) == ("value of 5001 digits outside [0, 4] "
                              "(line 3, column 2)")


# One rule reads a clue and the command line's numbers: a value padded with
# zeros, even past int()'s digit limit, fails as the bare value does.
@pytest.mark.parametrize("value", ["5", "123", "9" * 4000, "9" * 5000],
                         ids=len)
def test_leading_zeros_never_change_the_message(value):
    messages = []
    for token in (value, "0" * 5000 + value):
        with pytest.raises(PuzzleFormatError) as err:
            parse(f"2\n1 2 3 4\n3 {token} 1 2\n2 1 4 3\n4 3 2 1\n")
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == ref_token(value, 4)[1] + " (line 3, column 2)"


def test_parse_classic_rejects_foreign_characters():
    with pytest.raises(PuzzleFormatError) as err:
        parse(CLASSIC_81[:40] + "x" + CLASSIC_81[41:])
    assert err.value.line == 1
    assert err.value.column == 41


# -- rendering ---------------------------------------------------------------

def test_render_generic_round_trip():
    doc = parse("2\n1 0 3 4\n3 4 0 2\n2 1 4 3\n0 3 2 1\n")
    assert parse(render(doc)) == doc


def test_render_classic_round_trip():
    doc = parse(CLASSIC_81)
    assert render(doc, "classic") == CLASSIC_81 + "\n"
    assert parse(render(doc, "classic")) == doc


def test_render_round_trip_random_documents():
    rng = random.Random(20240817)
    for order in (2, 3, 4, 5):
        m = order * order
        for _ in range(5):
            cells = [[rng.randint(0, m) for _ in range(m)] for _ in range(m)]
            doc = Grid(order, cells)
            again = parse(render(doc))
            assert again == doc


def test_render_classic_requires_order_3():
    doc = parse("2\n" + "0 0 0 0\n" * 4)
    with pytest.raises(ValueError):
        render(doc, "classic")
    with pytest.raises(ValueError):
        render(doc, "fancy")


def test_render_accepts_grid_objects():
    g = Grid(2, COMPLETE_4)
    assert parse(render(g)).cells == COMPLETE_4


def test_render_writes_each_value_as_an_integer():
    cells = [row[:] for row in COMPLETE_4]
    cells[0][0] = True
    cells[1][1] = -0.0
    g = Grid(2, cells)
    assert render(g) == "2\n1 2 3 4\n3 0 1 2\n2 1 4 3\n4 3 2 1\n"
    assert parse(render(g)) == g
    classic = parse(CLASSIC_81)
    classic.cells[0][0] = True
    assert render(classic, "classic") == "1" + CLASSIC_81[1:] + "\n"


def test_render_matches_reference_on_seeded_boards():
    rng = random.Random(20261018)
    for order in (2, 3, 4, 5):
        m = order * order
        for _ in range(10):
            cells = delete_cells(shuffled_valid_grid(order, rng),
                                 rng.randrange(m * m + 1), rng)
            g = Grid(order, cells)
            text = render(g)
            assert text == ref_render(order, cells)
            assert parse(text) == g
            if order == 3:
                flat = "".join(str(v) for row in cells for v in row)
                assert render(g, "classic") == flat + "\n"
                assert parse(render(g, "classic")) == g


# render marks each row's last value in a copy of the cells, never in the
# Grid itself.
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_render_matches_reference_on_blank_and_full_boards(order):
    m = order * order
    for cells in ([[0] * m for _ in range(m)],
                  shuffled_valid_grid(order, random.Random(order))):
        g = Grid(order, cells)
        assert render(g) == ref_render(order, cells)
        if order == 3:
            flat = "".join(str(v) for row in cells for v in row)
            assert render(g, "classic") == flat + "\n"
        assert g.cells == cells


# Tokens that are not the canonical "0".."m": some the format accepts, some
# it rejects, each with its own message.
ODD_TOKENS = ["007", "0" * 4401 + "3", "+1", "1_0", "\u0663", "26"]


def _ref_parse_rows(order, rows):
    """Cells, or the first (message, line, column), by the per-token
    reference; the rows start on line 2."""
    m = order * order
    cells = []
    for lineno, row in enumerate(rows, start=2):
        values = []
        for col, token in enumerate(row, start=1):
            v, message = ref_token(token, m)
            if message:
                return None, (message, lineno, col)
            values.append(v)
        cells.append(values)
    return cells, None


@pytest.mark.parametrize("order", [3, 5])
def test_parse_agrees_with_per_token_reference(order):
    m = order * order
    canonical = [str(v) for v in range(m + 1)]
    rng = random.Random(order)
    outcomes = set()
    for t in range(60):
        rows = [rng.choices(canonical, k=m) for _ in range(m)]
        # A few odd tokens, or (one doc in three) only accepted ones.
        odd = ODD_TOKENS if t % 3 else ODD_TOKENS[:2]
        for _ in range(rng.randrange(1, 4)):
            rows[rng.randrange(m)][rng.randrange(m)] = rng.choice(odd)
        text = f"{order}\n" + "".join(" ".join(r) + "\n" for r in rows)
        cells, error = _ref_parse_rows(order, rows)
        if error:
            message, line, column = error
            with pytest.raises(PuzzleFormatError) as err:
                parse(text)
            assert str(err.value) == (f"{message} (line {line}, "
                                      f"column {column})")
            assert (err.value.line, err.value.column) == (line, column)
            outcomes.add(message.split()[0])
        else:
            assert parse(text) == Grid(order, cells)
            outcomes.add("accepted")
    assert outcomes == {"accepted", "malformed", "value"}


def _ref_first_fault(order, rows):
    """The text of the error parse() gives for these body rows, read row by
    row: a row of the wrong length, else its first bad token; None if
    every row is sound.  The rows start on line 2."""
    m = order * order
    for lineno, row in enumerate(rows, start=2):
        if len(row) != m:
            return (f"expected {m} values per row, found {len(row)} "
                    f"(line {lineno})")
        for col, token in enumerate(row, start=1):
            message = ref_token(token, m)[1]
            if message:
                return f"{message} (line {lineno}, column {col})"
    return None


@pytest.mark.parametrize("order", [2, 5])
def test_parse_reports_the_first_of_two_faults(order):
    """A document with an odd token in one row and a row of the wrong
    length in another, or with one row a token short and another a
    canonical token long, fails as the row-by-row reference reads it,
    whichever fault comes first."""
    m = order * order
    rng = random.Random(100 + order)
    firsts = set()
    for t in range(80):
        rows = [[str(rng.randint(0, m)) for _ in range(m)] for _ in range(m)]
        a, b = rng.sample(range(m), 2)
        if t % 3 == 0:      # m² tokens in all, every one canonical
            rows[a].pop()
            rows[b].append(str(rng.randint(0, m)))
        else:
            rows[a][rng.randrange(m)] = rng.choice(ODD_TOKENS)
            if t % 3 == 1:
                rows[b] = rows[b][:rng.randrange(1, m)]
            else:
                rows[b].append(str(rng.randint(0, m)))
        text = f"{order}\n" + "".join(" ".join(r) + "\n" for r in rows)
        expected = _ref_first_fault(order, rows)
        with pytest.raises(PuzzleFormatError) as err:
            parse(text)
        assert str(err.value) == expected
        firsts.add(expected.split()[0])
    assert firsts == {"expected", "malformed", "value"}


# Mostly canonical 4x4 rows, so that some documents parse; the free text
# reaches the classic reader and the shape errors.
_TOKEN = st.sampled_from("0 1 2 3 4".split() * 6 + "007 5 +1 1_0 - # .".split())
_ROWS = st.lists(st.lists(_TOKEN, min_size=4, max_size=4).map(" ".join),
                 min_size=4, max_size=4).map("\n".join)


@given(st.sampled_from(["", "2\n", "3\n", "# c\n2\n"]),
       _ROWS | st.text(alphabet="0123456789 \t\n\r\x0b\x0c#.+-_"))
def test_parse_returns_a_grid_or_a_format_error(header, body):
    try:
        g = parse(header + body)
    except PuzzleFormatError:
        return
    assert parse(render(g)) == g
