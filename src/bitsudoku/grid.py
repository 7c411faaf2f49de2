"""Square boards of order n: an n²×n² matrix of values in [0, n²].

A value of 0 marks a blank cell.  Public coordinates (row i, column j,
block row k, block column l) are 1-based throughout; the underlying cell
array is ordinary 0-based storage.  Cell (i, j) lies in block (k, l) with
(k-1)·n < i <= k·n and (l-1)·n < j <= l·n.

Every reader of a Grid's cells (init_state, first_conflict,
is_sudoku_matrix, render) takes them from cell_bytes: one row-major
bytearray, which holds each raw cell as one byte and refuses any that is
not an int in 0..n².  unit_scan reads the clues at C speed: each unit's
word is the sum of one slice of the cells' bits, and only a board whose
sums lose bits to a carry is walked unit by unit to name its first repeat.

Text goes in and out through per-order tables.  parse reads a generic
document row by row: each row's tokens are looked up at once, and only a
row with a token the table lacks is read again token by token, which
accepts a zero-padded value and names any other fault.  render writes
either format by indexing one list of the tokens "0".."n²" with the bytes.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .smallset import _Record

MIN_ORDER = 2
MAX_ORDER = 5
# The value of each classic clue character; _parse_classic skips whitespace.
_CLASSIC = {".": 0, **{str(v): v for v in range(10)}}


class IncompleteGridError(ValueError):
    """A complete grid was required but blank cells are present."""


class PuzzleFormatError(ValueError):
    """Malformed puzzle text; carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def cell_index(i: int, j: int, side: int) -> int:
    """Flat index (i-1)·side + j-1 of cell (i, j) on a side×side board."""
    if not (1 <= i <= side and 1 <= j <= side):
        raise IndexError(f"cell ({i}, {j}) outside 1..{side}")
    return (i - 1) * side + j - 1


class Grid(_Record):
    """Cell storage for one board; `cells[r][c]` is 0-based raw access.

    The constructor and set_value take only a value equal to one of 0..n²
    and store it as that int, or raise ValueError naming the first other
    value.  A raw write to `cells` skips that check, and then every reader
    (solve, init_state, first_conflict, is_sudoku_matrix, render) raises
    TypeError for a raw cell that is not an int and ValueError for an int
    outside 0..n², where a bool is the int it is (True reads as 1).  Two
    grids are == when their order and cells are; grids are mutable and
    unhashable.
    """

    _fields = ("order", "cells")

    def __init__(self, order: int, cells: list[list[int]]) -> None:
        if not MIN_ORDER <= order <= MAX_ORDER:
            raise ValueError(
                f"order {order} outside [{MIN_ORDER}, {MAX_ORDER}]")
        m = order * order
        if len(cells) != m or any(len(row) != m for row in cells):
            raise ValueError(f"cell array is not {m}x{m}")
        # Own the storage, callers keep their lists, and hold each value as
        # the int it equals (2.0 as 2, True as 1).
        self.order = order
        self.cells = [[_cell_value(order, v) for v in row] for row in cells]

    @classmethod
    def _adopt(cls, order: int, cells: list[list[int]]) -> "Grid":
        """A Grid that takes `cells` as they are: fresh n²×n² rows of ints
        in [0, n²], which the caller has checked and no one else holds."""
        g = cls.__new__(cls)
        g.order = order
        g.cells = cells
        return g

    @property
    def side(self) -> int:
        return self.order * self.order

    def value(self, i: int, j: int) -> int:
        """Cell value at 1-based (i, j)."""
        cell_index(i, j, self.side)
        return self.cells[i - 1][j - 1]

    def set_value(self, i: int, j: int, v: int) -> None:
        cell_index(i, j, self.side)
        self.cells[i - 1][j - 1] = _cell_value(self.order, v)

    def copy(self) -> "Grid":
        """An independent copy, row by row."""
        return Grid._adopt(self.order, [row[:] for row in self.cells])

    to_grid = copy


def _cell_value(order: int, v: object) -> int:
    """The int in 0..n² that v equals, or the ValueError naming v."""
    try:
        return _text_tables(order)[0][v]
    except (KeyError, TypeError):   # TypeError: v is unhashable
        raise ValueError(
            f"cell value {v!r} outside [0, {order * order}]") from None


# bytes.translate deletes the first n² + 1 of these to leave a cell above n².
_BYTES = bytes(range(256))


def cell_bytes(g: Grid) -> bytearray:
    """g's cells row-major, one byte each; the one rule for a raw cell.

    bytearray raises TypeError for a cell that is not an int and
    ValueError for one outside 0..255; a cell above n² raises ValueError
    naming it and its (i, j).
    """
    flat: list[int] = []
    for row in g.cells:     # at C speed per row, unlike a chain per cell
        flat += row
    cells = bytearray(flat)
    m = g.side
    above = cells.translate(None, _BYTES[:m + 1])
    if above:
        k = cells.find(above[0])
        raise ValueError(f"cell value {above[0]} at ({k // m + 1}, "
                         f"{k % m + 1}) outside [0, {m}]")
    return cells


@cache
def _text_tables(order: int) -> tuple[dict[int, int], dict[str, int],
                                      list[str]]:
    """Each cell value 0..n² to itself, so a lookup by any equal value
    gives the int; each canonical token "0".."n²" to its value; and the
    list of those tokens, indexed by value.  A list, not a tuple, because
    its __getitem__ maps faster; no caller writes to it."""
    m = order * order
    return ({v: v for v in range(m + 1)}, {str(v): v for v in range(m + 1)},
            [str(v) for v in range(m + 1)])


@cache
def unit_table(order: int) -> tuple[tuple[int, int, int], ...]:
    """Per flat cell index k = r·m + c, its row, column, and block unit
    indices (r, m + c, 2m + block); a tuple, so callers share no state."""
    m = order * order
    return tuple((r, m + c, 2 * m + r // order * order + c // order)
                 for r in range(m) for c in range(m))


@cache
def _scan_tables(order: int) -> tuple[tuple, itemgetter, tuple[slice, ...]]:
    """Each value's bit (0 for a blank); a getter of the flat cells block by
    block, row-major in each; and each unit's slice, in unit_table's order,
    of the flat cells followed by that block-major copy."""
    m = order * order
    mm = m * m
    table = unit_table(order)
    block_major = itemgetter(*sorted(range(mm), key=lambda k: table[k][2]))
    units = ([slice(i, i + m) for i in range(0, mm, m)]
             + [slice(j, mm, m) for j in range(m)]
             + [slice(i, i + m) for i in range(mm, 2 * mm, m)])
    return (0, *(1 << v for v in range(m))), block_major, tuple(units)


def is_sudoku_matrix(g: Grid) -> bool:
    """Whether every row, column, and block is a permutation of {1..side}.

    The grid must be complete; blanks raise IncompleteGridError.  On a
    complete board a unit without a repeated value is a permutation.
    """
    cells = cell_bytes(g)
    k = cells.find(0)
    if k >= 0:
        m = g.side
        raise IncompleteGridError(f"blank cell at ({k // m + 1}, {k % m + 1})")
    return unit_scan(g.order, cells)[1] is None


def unit_scan(order: int, cells: bytearray | list[int]
              ) -> tuple[list[int] | None, tuple[str, int, int] | None]:
    """The words of values the row-major cells hold per unit of unit_table,
    value d at bit d-1, and None; or, if a unit repeats a value, None and
    the first (unit kind, unit index, duplicated value): units rank rows,
    then columns, then blocks, and each is read in reading order.  Each
    cell must be an int in 0..n², as cell_bytes gives them.

    A word is the sum of its cells' bits, and c single bits sum to c bits
    set, their OR, exactly when no two are equal.  Every clue lies in three
    units, so no unit repeats a value iff the words hold 3 bits per clue."""
    bit, block_major, units = _scan_tables(order)
    bits = [bit[v] for v in cells]
    bits += block_major(bits)
    words = list(map(sum, map(bits.__getitem__, units)))
    clues = len(cells) - cells.count(0)
    if sum(map(int.bit_count, words)) == 3 * clues:
        return words, None
    # A repeat lost bits: name the first.
    values = [*cells, *block_major(cells)]
    m = order * order
    for u, unit in enumerate(units):
        seen = set()
        for v in filter(None, values[unit]):
            if v in seen:
                return None, (("row", "column", "block")[u // m], u % m + 1, v)
            seen.add(v)


def first_conflict(g: Grid) -> tuple[str, int, int] | None:
    """The first conflict unit_scan finds on g, or None."""
    return unit_scan(g.order, cell_bytes(g))[1]


def parse(text: str) -> Grid:
    """Parse puzzle text in either accepted format into a Grid.

    Generic format: the first non-comment line is the order n, followed by
    n² lines of n² whitespace-separated ASCII decimal integers in [0, n²]
    (no sign, no underscores, no other scripts' digits); lines starting
    with '#' are comments.  Classic format (order 3 only): 81 characters
    from "123456789" for clues and '0' or '.' for blanks, with whitespace
    ignored.  A document whose first significant line is a lone integer of
    at most two digits is treated as generic; anything else as classic.
    """
    significant = []    # (line number, raw line); no blanks or comments
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            significant.append((lineno, raw))
    if not significant:
        raise PuzzleFormatError("empty puzzle document")

    header = significant[0][1].strip()
    if header.isascii() and header.isdigit() and len(header) <= 2:
        return _parse_generic(significant)
    return _parse_classic(significant)


def _parse_generic(significant: list[tuple[int, str]]) -> Grid:
    lineno, header = significant[0]
    order = int(header.strip())
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise PuzzleFormatError(
            f"order {order} outside [{MIN_ORDER}, {MAX_ORDER}]", lineno)
    m = order * order
    body = significant[1:]
    if len(body) != m:      # at the first extra row, or the last row read
        raise PuzzleFormatError(f"expected {m} rows, found {len(body)}",
                                (body[m:] or significant[-1:])[0][0])

    token_value = _text_tables(order)[1].__getitem__
    cells = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise PuzzleFormatError(
                f"expected {m} values per row, found {len(tokens)}", lineno)
        try:
            cells.append(list(map(token_value, tokens)))
        except KeyError:    # a token other than "0".."m": judge each one
            cells.append([_value(token, m, lineno, col)
                          for col, token in enumerate(tokens, start=1)])
    return Grid._adopt(order, cells)


def _value(token: str, m: int, lineno: int, col: int) -> int:
    """The value of one generic token, or the PuzzleFormatError naming it."""
    if not (token.isascii() and token.isdigit()):
        raise PuzzleFormatError(f"malformed value {token!r}", lineno, col)
    try:
        v = int(token)
    except ValueError:  # past int()'s digit limit; zeros don't count
        digits = token.lstrip("0")
        if len(digits) > 2:     # at least 100, above any side
            raise PuzzleFormatError(
                f"value of {len(digits)} digits outside [0, {m}]",
                lineno, col) from None
        v = int(digits or "0")
    if not 0 <= v <= m:
        raise PuzzleFormatError(f"value {v} outside [0, {m}]", lineno, col)
    return v


def _parse_classic(significant: list[tuple[int, str]]) -> Grid:
    values = []
    for lineno, raw in significant:
        for col, ch in enumerate(raw, start=1):
            v = _CLASSIC.get(ch)
            if v is not None:
                values.append(v)
            elif not ch.isspace():
                raise PuzzleFormatError(
                    f"character {ch!r} is not a clue digit, '0', or '.'",
                    lineno, col)
    if len(values) != 81:
        raise PuzzleFormatError(
            f"classic puzzle needs 81 cells, found {len(values)}")
    cells = [values[r * 9:(r + 1) * 9] for r in range(9)]
    return Grid._adopt(3, cells)


def render(board: Grid, fmt: str = "generic") -> str:
    """Serialize a board, each value as a decimal integer; blanks come out
    as 0.

    "generic" works for any order; "classic" is the 81-character single
    line and is only defined for order 3.  Both read the cells through
    cell_bytes and index the list of tokens "0".."n²" with them.
    """
    token = _text_tables(board.order)[2].__getitem__
    if fmt == "generic":
        m = board.side
        text = list(map(token, cell_bytes(board)))
        rows = [" ".join(text[k:k + m]) for k in range(0, m * m, m)]
        return f"{board.order}\n" + "\n".join(rows) + "\n"
    if fmt == "classic":
        if board.order != 3:
            raise ValueError("classic format requires an order-3 board")
        return "".join(map(token, cell_bytes(board))) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
