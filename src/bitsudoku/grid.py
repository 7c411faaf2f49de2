"""Square boards of order n: an n²×n² matrix of values in [0, n²].

A value of 0 marks a blank cell.  Public coordinates (row i, column j,
block row k, block column l) are 1-based throughout; the underlying cell
array is ordinary 0-based storage.  Cell (i, j) lies in block (k, l) with
(k-1)·n < i <= k·n and (l-1)·n < j <= l·n.

unit_scan reads the clues at C speed: each unit's word is the sum of one
slice of the cells' bits, and only a board whose sums lose bits to a
carry is walked unit by unit to name its first repeat.  A raw cell above
n² has no bit and one below 0 fails the bytearray that counts the clues.

Text goes in and out through per-order tables.  parse reads a generic
document row by row: each row's tokens are looked up at once, and only a
row with a token the table lacks is read again token by token, which
accepts a zero-padded value and names any other fault.  render writes
either format from one table of tokens keyed by value, so a cell outside
0..n² raises there, as solve and check refuse it.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
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

    A raw write to `cells` must be an int in [0, n²]: solve, check and
    render refuse anything else, and set_value enforces it.  Two grids
    are == when their order and cells are; grids are mutable and
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
        exact = _text_tables(order)[0]
        rows = []
        for row in cells:
            ints = list(map(exact.get, row))
            if None in ints:
                v = next(v for v in row if v not in exact)
                raise ValueError(f"cell value {v!r} outside [0, {m}]")
            rows.append(ints)
        self.order = order
        self.cells = rows

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
        exact = _text_tables(self.order)[0].get(v)
        if exact is None:
            raise ValueError(f"cell value {v!r} outside [0, {self.side}]")
        self.cells[i - 1][j - 1] = exact

    def copy(self) -> "Grid":
        """An independent copy, row by row."""
        return Grid._adopt(self.order, [row[:] for row in self.cells])

    to_grid = copy


@cache
def _text_tables(order: int) -> tuple[dict[int, int], dict[str, int],
                                      dict[int, str]]:
    """Each cell value 0..n² to itself, so a lookup by any equal value
    gives the int; each canonical token "0".."n²" to its value; and each
    value to its token, which a lookup by True, -0.0 or 2.0 finds as the
    int it equals."""
    m = order * order
    return ({v: v for v in range(m + 1)}, {str(v): v for v in range(m + 1)},
            {v: str(v) for v in range(m + 1)})


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
    for i, row in enumerate(g.cells, start=1):
        if 0 in row:
            raise IncompleteGridError(
                f"blank cell at ({i}, {row.index(0) + 1})")
    return first_conflict(g) is None


def unit_scan(order: int, cells: list[int]
              ) -> tuple[list[int] | None, tuple[str, int, int] | None]:
    """The words of values the row-major cells hold per unit of unit_table,
    value d at bit d-1, and None; or, if a unit repeats a value, None and
    the first (unit kind, unit index, duplicated value): units rank rows,
    then columns, then blocks, and each is read in reading order.

    A word is the sum of its cells' bits, and c single bits sum to c bits
    set, their OR, exactly when no two are equal.  Every clue lies in three
    units, so no unit repeats a value iff the words hold 3 bits per clue."""
    bit, block_major, units = _scan_tables(order)
    bits = [bit[v] for v in cells]
    bits += block_major(bits)
    words = list(map(sum, map(bits.__getitem__, units)))
    clues = len(cells) - bytearray(cells).count(0)
    if sum(map(int.bit_count, words)) == 3 * clues:
        return words, None
    # Every cell is in [0, n²] here, so a repeat lost bits: name the first.
    values = cells + list(block_major(cells))
    m = order * order
    for u, unit in enumerate(units):
        seen = set()
        for v in filter(None, values[unit]):
            if v in seen:
                return None, (("row", "column", "block")[u // m], u % m + 1, v)
            seen.add(v)


def first_conflict(g: Grid) -> tuple[str, int, int] | None:
    """The first conflict unit_scan finds on g, or None."""
    return unit_scan(g.order, list(chain.from_iterable(g.cells)))[1]


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
    line and is only defined for order 3.  Both look each value up in a
    table of the tokens "0".."n²", so a cell outside 0..n² raises KeyError
    (TypeError if unhashable).
    """
    token = _text_tables(board.order)[2].__getitem__
    if fmt == "generic":
        rows = [" ".join(map(token, row)) for row in board.cells]
        return f"{board.order}\n" + "\n".join(rows) + "\n"
    if fmt == "classic":
        if board.order != 3:
            raise ValueError("classic format requires an order-3 board")
        return "".join(map(token, chain.from_iterable(board.cells))) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
