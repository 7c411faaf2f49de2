"""Square boards of order n: an n²×n² matrix of values in [0, n²].

A value of 0 marks a blank cell.  Public coordinates (row i, column j,
block row k, block column l) are 1-based throughout; the underlying cell
array is ordinary 0-based storage.  Cell (i, j) lies in block (k, l) with
(k-1)·n < i <= k·n and (l-1)·n < j <= l·n.

Every reader of a Grid's cells (init_state, first_conflict,
is_sudoku_matrix, render) takes them from cell_bytes: one row-major
bytearray, which holds each raw cell as one byte and refuses any that is
not an int in 0..n², and any board whose rows are not n²×n².  unit_scan
reads the clues at C speed, as SWAR ("SIMD within a register") lane
sums: one int holds each cell's value bit in a 32-bit lane of its own,
and a few whole-int shifts and adds sum every row, column and block at
once, which struct formats then read out lane by lane.  Only a board
whose sums lose bits to a carry is read again, cell by cell through
unit_table, to name its first repeat.

Text goes in and out through per-order tables.  parse reads a generic
document row by row: each row's tokens are looked up at once, and only a
row with a token the table lacks is read again token by token, which
accepts a zero-padded value and names any other fault.  render writes
either format by one itemgetter over all the cell bytes: classic indexes
the tokens "0".."n²", generic the tokens "v " and "v\n", the latter
reached by a translate of each row's last byte.
"""

from __future__ import annotations

import struct
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
    TypeError for a raw cell that is not an int, ValueError naming an int
    outside 0..n² and its cell, where a bool is the int it is (True reads
    as 1), and the constructor's ValueError for rows that are not n²×n².
    Two grids are == when their order and cells are; grids are mutable
    and unhashable.
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

    A board that is not m×m raises the constructor's ValueError; bytearray
    raises TypeError for a cell that is not an int; an int outside 0..n²
    raises ValueError naming it and its (i, j).
    """
    m = g.side
    flat: list[int] = []
    for row in g.cells:     # at C speed per row, unlike a chain per cell
        if len(row) != m:
            break
        flat += row
    if len(flat) != m * m:  # a short or long row, or m rows too few or many
        raise ValueError(f"cell array is not {m}x{m}")
    try:
        cells = bytearray(flat)
    except ValueError:      # outside 0..255: find it among the ints
        k = next(k for k, v in enumerate(flat) if not 0 <= v <= m)
        raise _outside(flat[k], k, m) from None
    above = cells.translate(None, _BYTES[:m + 1])
    if above:
        raise _outside(above[0], cells.find(above[0]), m)
    return cells


def _outside(v: int, k: int, m: int) -> ValueError:
    return ValueError(f"cell value {v} at ({k // m + 1}, {k % m + 1}) "
                      f"outside [0, {m}]")


@cache
def _text_tables(order: int) -> tuple[dict[int, int], dict[str, int],
                                      list[str], list[str], bytes]:
    """Each cell value 0..n² to itself, so a lookup by any equal value
    gives the int; each canonical token "0".."n²" to its value; the list
    of those tokens, indexed by value; the list of generic tokens "v "
    then "v\n", indexed by v and by v + n² + 1; and the translate table
    that takes a row's last byte v to v + n² + 1.  No caller writes to
    the lists."""
    m = order * order
    values = range(m + 1)
    return ({v: v for v in values}, {str(v): v for v in values},
            [str(v) for v in values],
            [f"{v} " for v in values] + [f"{v}\n" for v in values],
            bytes.maketrans(bytes(values), bytes(range(m + 1, 2 * m + 2))))


@cache
def unit_table(order: int) -> tuple[tuple[int, int, int], ...]:
    """Per flat cell index k = r·m + c, its row, column, and block unit
    indices (r, m + c, 2m + block); a tuple, so callers share no state."""
    m = order * order
    return tuple((r, m + c, 2 * m + r // order * order + c // order)
                 for r in range(m) for c in range(m))


@cache
def _scan_tables(order: int) -> tuple[tuple[bytes, ...],
                                      tuple[struct.Struct, ...]]:
    """The lane sums' tables.

    Byte plane p of a 32-bit lane: a translate table from each value v in
    8p+1..8p+8 to byte p of its bit 1 << (v-1), and from 0 (a blank) and
    every other value to 0; one plane per 8 values.
    The readers of the row, column and block sums: little-endian 32-bit
    lanes at r·m, at 0..m-1, and at K·n·m + L·n, with pad bytes between,
    so they hold on any host."""
    m = order * order
    planes = tuple((bytes(8 * p + 1) + bytes(1 << b for b in range(8)))
                   .ljust(256, b"\0") for p in range(-(-m // 8)))

    def lanes(ks) -> struct.Struct:
        fmt, at = "<", 0
        for k in ks:
            fmt += f"{4 * (k - at)}xI"
            at = k + 1
        return struct.Struct(fmt)

    return planes, (lanes(range(0, m * m, m)), lanes(range(m)),
                    lanes(K * order * m + L * order
                          for K in range(order) for L in range(order)))


def _window(x: int, step: int, width: int) -> int:
    """The sum of x >> step·t for t < width, by doubling: each lane of the
    result adds up width lanes of x, step bits apart."""
    total = at = 0
    while True:
        if width & 1:
            total += x >> at
            at += step
        width >>= 1
        if not width:
            return total
        x += x >> step
        step *= 2


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
    cell must be an int in 0..n², as cell_bytes gives them, in a bytearray,
    bytes or list.

    A word is the sum of its cells' bits, and c single bits sum to c bits
    set, their OR, exactly when no two are equal.  Every clue lies in three
    units, so no unit repeats a value iff the words hold 3 bits per clue.
    The sums are taken in 32-bit lanes of one int x, lane k holding cell
    k's bit.  With R = _window(x, 32, n), each lane the sum of n cells
    along a row, rows are _window(R, 32n, n) at lanes r·m, blocks
    _window(R, 32m, n) at lanes K·n·m + L·n, and columns _window(x, 32m, m)
    at lanes 0..m-1.  A lane sums at most m bits below 2^m, less than
    m·2^(m-1) < 2^32 for m <= 25, so no lane carries into the next."""
    planes, (rows, columns, blocks) = _scan_tables(order)
    cells = bytes(cells)
    lanes = bytearray(4 * len(cells))
    for p, plane in enumerate(planes):
        lanes[p::4] = cells.translate(plane)
    x = int.from_bytes(lanes, "little")
    m = order * order
    r = _window(x, 32, order)
    size = len(lanes)
    words = [*rows.unpack_from(_window(r, 32 * order, order)
                               .to_bytes(size, "little")),
             *columns.unpack_from(_window(x, 32 * m, m)
                                  .to_bytes(size, "little")),
             *blocks.unpack_from(_window(r, 32 * m, order)
                                 .to_bytes(size, "little"))]
    clues = len(cells) - cells.count(0)
    if sum(map(int.bit_count, words)) == 3 * clues:
        return words, None
    # A repeat lost bits: name the first.  Row-major order reads every
    # unit in its own reading order, so one pass finds each unit's first
    # repeated value.
    seen = [0] * (3 * m)
    repeat = seen[:]
    for v, units in zip(cells, unit_table(order)):
        if v:
            bit = 1 << v
            for u in units:
                if seen[u] & bit and not repeat[u]:
                    repeat[u] = v
                seen[u] |= bit
    u = next(u for u, v in enumerate(repeat) if v)
    return None, (("row", "column", "block")[u // m], u % m + 1, repeat[u])


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

    token_value = _text_tables(order)[1]
    cells = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise PuzzleFormatError(
                f"expected {m} values per row, found {len(tokens)}", lineno)
        try:
            # m >= 4 tokens, so the getter gives a tuple of all of them.
            cells.append(list(itemgetter(*tokens)(token_value)))
        except KeyError:    # a token other than "0".."m": judge each one
            cells.append([_value(token, m, lineno, col)
                          for col, token in enumerate(tokens, start=1)])
    return Grid._adopt(order, cells)


def ascii_int(text: str) -> int:
    """The number `text` writes in ASCII digits alone, with no sign, space
    or underscore: a clue to parse(), N, --cap and --limit to the CLI.
    Leading zeros do not count toward int()'s digit limit.  Raises
    ValueError for any other text, and OverflowError, whose one argument
    is the count of digits after the leading zeros, past that limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid number {text!r}")
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:
        raise OverflowError(len(digits)) from None


def _value(token: str, m: int, lineno: int, col: int) -> int:
    """The value of one generic token, or the PuzzleFormatError naming it."""
    try:
        v = ascii_int(token)
    except ValueError:
        raise PuzzleFormatError(f"malformed value {token!r}",
                                lineno, col) from None
    except OverflowError as exc:
        raise PuzzleFormatError(f"value of {exc} digits outside [0, {m}]",
                                lineno, col) from None
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
    cell_bytes and join what one itemgetter of all the bytes picks from a
    list of tokens: classic from "0".."n²", generic from "v " and "v\n",
    after each row's last byte v is translated to v + n² + 1 in
    cell_bytes' fresh copy, so the Grid is never written.
    """
    _, _, plain, spaced, row_end = _text_tables(board.order)
    if fmt == "generic":
        m = board.side
        cells = cell_bytes(board)
        cells[m - 1::m] = cells[m - 1::m].translate(row_end)
        return f"{board.order}\n" + "".join(itemgetter(*cells)(spaced))
    if fmt == "classic":
        if board.order != 3:
            raise ValueError("classic format requires an order-3 board")
        return "".join(itemgetter(*cell_bytes(board))(plain)) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
