"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and shares no code with the package
under test: set algebra over explicit element lists, unit scans over
explicit value lists, propagation-free backtracking over raw cell arrays,
Knuth's Algorithm X over a board's exact-cover columns, the solver's sweep
and search restated over sets, trial-division primality, an unsegmented
Eratosthenes over every number, and argparse for the command line.
"""

import argparse
import random
import sys
from math import isqrt

# Widely published order-3 puzzle of ordinary difficulty, in classic form.
CLASSIC_81 = ("530070000600195000098000060800060003400803001"
              "700020006060000280000419005000080079")
# A complete 4x4 board whose rows and columns are permutations but whose
# blocks repeat values.
INVALID_4 = "2\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n"


# ---------------------------------------------------------------------------
# List-based set algebra (reference for the bitset type)
# ---------------------------------------------------------------------------

def members_of_word(bits: int, capacity: int) -> list[int]:
    """Decode a bit pattern into the ascending list of 1-based elements."""
    return [d for d in range(1, capacity + 1) if (bits >> (d - 1)) & 1]


def ref_intersect(a: list[int], b: list[int]) -> list[int]:
    return [d for d in a if d in b]


def ref_union(a: list[int], b: list[int]) -> list[int]:
    return sorted(a + [d for d in b if d not in a])


def ref_difference(a: list[int], b: list[int]) -> list[int]:
    return [d for d in a if d not in b]


def ref_insert(a: list[int], d: int) -> list[int]:
    return sorted(a + [d]) if d not in a else list(a)


def ref_remove(a: list[int], d: int) -> list[int]:
    return [x for x in a if x != d]


def ref_is_subset(a: list[int], b: list[int]) -> bool:
    return all(d in b for d in a)


# ---------------------------------------------------------------------------
# Propagation-free backtracking (reference solver)
# ---------------------------------------------------------------------------

def _legal(cells: list[list[int]], order: int, r: int, c: int, v: int) -> bool:
    m = order * order
    for x in range(m):
        if cells[r][x] == v or cells[x][c] == v:
            return False
    br = (r // order) * order
    bc = (c // order) * order
    for rr in range(br, br + order):
        for cc in range(bc, bc + order):
            if cells[rr][cc] == v:
                return False
    return True


def brute_force_solutions(order: int, cells: list[list[int]],
                          limit: int | None = None) -> list[list[list[int]]]:
    """Enumerate every completion of the puzzle by plain row-major backtracking.

    No candidate bookkeeping of any kind: each placement is checked by
    scanning the row, column, and block.  Input clues are assumed
    duplicate-free.
    """
    m = order * order
    work = [row[:] for row in cells]
    blanks = [(r, c) for r in range(m) for c in range(m) if work[r][c] == 0]
    found: list[list[list[int]]] = []

    def rec(k: int) -> bool:
        if k == len(blanks):
            found.append([row[:] for row in work])
            return limit is not None and len(found) >= limit
        r, c = blanks[k]
        for v in range(1, m + 1):
            if _legal(work, order, r, c, v):
                work[r][c] = v
                if rec(k + 1):
                    work[r][c] = 0
                    return True
                work[r][c] = 0
        return False

    rec(0)
    return found


def brute_force_count(order: int, cells: list[list[int]],
                      limit: int | None = None) -> int:
    return len(brute_force_solutions(order, cells, limit))


# ---------------------------------------------------------------------------
# Exact cover by Knuth's Algorithm X (arXiv cs/0011047), on dicts of sets
# ---------------------------------------------------------------------------

def exact_cover_solutions(order: int,
                          cells: list[list[int]]) -> list[list[list[int]]]:
    """Every completion of the puzzle, sorted, as the exact covers of its
    4m² columns: each cell filled once, and each value once in each row,
    column and block.  Choice (r, c, v) covers one column of each kind.
    Algorithm X branches on a column with the fewest choices left; the
    clues are chosen first, and a clue whose column is already covered
    leaves no solution."""
    m = order * order
    choices = {}
    for r in range(m):
        for c in range(m):
            b = r // order * order + c // order
            for v in range(1, m + 1):
                choices[r, c, v] = (("cell", r, c), ("row", r, v),
                                    ("column", c, v), ("block", b, v))
    columns = {}
    for choice, covered in choices.items():
        for col in covered:
            columns.setdefault(col, set()).add(choice)

    def select(choice):
        removed = []
        for col in choices[choice]:
            for other in columns[col]:
                for col2 in choices[other]:
                    if col2 != col:
                        columns[col2].remove(other)
            removed.append(columns.pop(col))
        return removed

    def deselect(choice, removed):
        for col in reversed(choices[choice]):
            columns[col] = removed.pop()
            for other in columns[col]:
                for col2 in choices[other]:
                    if col2 != col:
                        columns[col2].add(other)

    partial = []
    for r, row in enumerate(cells):
        for c, v in enumerate(row):
            if v:
                if any(col not in columns for col in choices[r, c, v]):
                    return []
                select((r, c, v))
                partial.append((r, c, v))
    found = []

    def search():
        if not columns:
            board = [[0] * m for _ in range(m)]
            for r, c, v in partial:
                board[r][c] = v
            found.append(board)
            return
        col = min(columns, key=lambda col: len(columns[col]))
        for choice in sorted(columns[col]):
            removed = select(choice)
            partial.append(choice)
            search()
            partial.pop()
            deselect(choice, removed)

    search()
    return sorted(found)


def ref_solve(order: int, cells: list[list[int]], limit: int | None = None,
              branch: str = "fewest-candidates") -> tuple:
    """The solver's counters restated over Python sets, one per unit, with
    recursion and fresh copies instead of words and a frame stack:
    (count, trials, passes, truncated, root event, first solution or None).

    A sweep walks the blanks row-major and places as it goes: no candidate
    ends the run at once ("contradiction", and that pass is not counted),
    one candidate is placed, two or more keep the cell.  After a completed
    pass, no blanks left is "solved"; nothing placed is
    "exhausted-by-search".  Search then branches on the first blank
    ("first-blank") or on the first cell with the fewest candidates, taken
    row-major and stopping at the first with two; each candidate, in
    ascending order, is one trial followed by a sweep.  With `limit`, the
    run stops at that many solutions, truncated if some branch on the way
    down still had values to try.  Clues are assumed duplicate-free.
    """
    m = order * order
    full = set(range(1, m + 1))
    count = trials = passes = 0
    first = None
    truncated = False

    def units_of(r, c):
        return ("row", r), ("column", c), ("block", r // order, c // order)

    def options(held, r, c):
        return full.difference(*(held[u] for u in units_of(r, c)))

    def place(work, held, r, c, v):
        work[r][c] = v
        for u in units_of(r, c):
            held[u].add(v)

    def sweep(work, held, blanks):
        done = 0
        while blanks:
            placed, survivors = 0, []
            for r, c in blanks:
                values = options(held, r, c)
                if len(values) > 1:
                    survivors.append((r, c))
                elif values:
                    place(work, held, r, c, values.pop())
                    placed += 1
                else:
                    return "contradiction", done, blanks
            done += 1
            blanks = survivors
            if blanks and not placed:
                return "exhausted-by-search", done, blanks
        return "solved", done, blanks

    def pick(held, blanks):
        if branch == "first-blank":
            return blanks[0]
        best, fewest = blanks[0], m + 1
        for r, c in blanks:
            size = len(options(held, r, c))
            if size < fewest:
                best, fewest = (r, c), size
                if size == 2:
                    break
        return best

    def run(work, held, blanks):
        """Sweep, then search below; (event of the sweep, limit reached)."""
        nonlocal count, trials, passes, first, truncated
        event, done, blanks = sweep(work, held, blanks)
        passes += done
        if event == "solved":
            count += 1
            if first is None:
                first = [row[:] for row in work]
            return event, limit is not None and count >= limit
        if event == "contradiction":
            return event, False
        r, c = pick(held, blanks)
        rest = [b for b in blanks if b != (r, c)]
        values = sorted(options(held, r, c))
        for i, v in enumerate(values):
            trials += 1
            work2 = [row[:] for row in work]
            held2 = {u: s.copy() for u, s in held.items()}
            place(work2, held2, r, c, v)
            if run(work2, held2, rest)[1]:
                truncated = truncated or i + 1 < len(values)
                return event, True
        return event, False

    work = [row[:] for row in cells]
    held = {u: set() for r in range(m) for c in range(m)
            for u in units_of(r, c)}
    for r in range(m):
        for c in range(m):
            if work[r][c]:
                place(work, held, r, c, work[r][c])
    blanks = [(r, c) for r in range(m) for c in range(m) if not work[r][c]]
    root_event, _ = run(work, held, blanks)
    return count, trials, passes, truncated, root_event, first


def clues(g) -> list[tuple[int, int, int]]:
    """Nonzero cells of a Grid as 1-based (row, column, value) triples,
    row-major."""
    return [(r + 1, c + 1, v) for r, row in enumerate(g.cells)
            for c, v in enumerate(row) if v != 0]


# ---------------------------------------------------------------------------
# Unit scan over explicit lists (reference for the validity checks)
# ---------------------------------------------------------------------------

def ref_units(order: int,
              cells: list[list[int]]) -> list[tuple[str, int, list[int]]]:
    """Every unit as (kind, 1-based index, values): rows top to bottom, then
    columns left to right, then blocks row-major; each unit's values in
    reading order (blocks row-major inside the block)."""
    m = order * order
    units = [("row", r + 1, [cells[r][c] for c in range(m)])
             for r in range(m)]
    units += [("column", c + 1, [cells[r][c] for r in range(m)])
              for c in range(m)]
    for bk in range(order):
        for bl in range(order):
            values = []
            for r in range(bk * order, (bk + 1) * order):
                for c in range(bl * order, (bl + 1) * order):
                    values.append(cells[r][c])
            units.append(("block", bk * order + bl + 1, values))
    return units


def ref_first_conflict(order: int,
                       cells: list[list[int]]) -> tuple[str, int, int] | None:
    """The first unit that repeats a nonzero value, with the first value it
    meets a second time, as (kind, index, value); None if there is none."""
    for kind, index, values in ref_units(order, cells):
        seen: list[int] = []
        for v in values:
            if v != 0:
                if v in seen:
                    return kind, index, v
                seen.append(v)
    return None


# ---------------------------------------------------------------------------
# Board text read and written one token at a time (reference for grid.py)
# ---------------------------------------------------------------------------

def ref_render(order: int, cells: list[list[int]]) -> str:
    """The generic document: the order line, then each row's values joined
    by single spaces, every line ending in a newline."""
    lines = [str(order)] + [" ".join(str(v) for v in row) for row in cells]
    return "".join(line + "\n" for line in lines)


def ref_token(token: str, m: int) -> tuple[int | None, str | None]:
    """One generic-format token on a side-m board, read digit by digit:
    (value, None) when it is ASCII digits naming 0..m, leading zeros
    allowed; otherwise (None, the message parse() gives).  A value too long
    for int() is named by its digits after the leading zeros."""
    if not token or any(ch not in "0123456789" for ch in token):
        return None, f"malformed value {token!r}"
    digits = token.lstrip("0")
    limit = sys.get_int_max_str_digits()
    if limit and len(token) > limit and len(digits) > 2:
        return None, f"value of {len(digits)} digits outside [0, {m}]"
    v = 0
    for ch in digits:
        v = 10 * v + "0123456789".index(ch)
    if v > m:
        return None, f"value {v} outside [0, {m}]"
    return v, None


# ---------------------------------------------------------------------------
# Deterministic valid-grid generation
# ---------------------------------------------------------------------------

def pattern_grid(order: int) -> list[list[int]]:
    """The canonical shifted-row complete grid; valid by construction."""
    m = order * order
    return [[(r * order + r // order + c) % m + 1 for c in range(m)]
            for r in range(m)]


def shuffled_valid_grid(order: int, rng: random.Random) -> list[list[int]]:
    """A random complete grid obtained from the pattern by transforms that
    preserve validity: digit relabeling, row swaps within a band, column
    swaps within a stack, band swaps, and stack swaps."""
    m = order * order
    cells = pattern_grid(order)

    relabel = list(range(1, m + 1))
    rng.shuffle(relabel)
    cells = [[relabel[v - 1] for v in row] for row in cells]

    rows = list(range(m))
    for band in range(order):
        chunk = rows[band * order:(band + 1) * order]
        rng.shuffle(chunk)
        rows[band * order:(band + 1) * order] = chunk
    bands = list(range(order))
    rng.shuffle(bands)
    rows = [rows[b * order + i] for b in bands for i in range(order)]

    cols = list(range(m))
    for stack in range(order):
        chunk = cols[stack * order:(stack + 1) * order]
        rng.shuffle(chunk)
        cols[stack * order:(stack + 1) * order] = chunk
    stacks = list(range(order))
    rng.shuffle(stacks)
    cols = [cols[s * order + i] for s in stacks for i in range(order)]

    return [[cells[r][c] for c in cols] for r in rows]


def delete_cells(cells: list[list[int]], count: int,
                 rng: random.Random) -> list[list[int]]:
    """Blank out `count` distinct cells, chosen uniformly."""
    m = len(cells)
    out = [row[:] for row in cells]
    positions = [(r, c) for r in range(m) for c in range(m)]
    for r, c in rng.sample(positions, count):
        out[r][c] = 0
    return out


# ---------------------------------------------------------------------------
# Trial division and a plain sieve (references for the sieve)
# ---------------------------------------------------------------------------

def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_by_trial_division(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime_by_trial_division(p)]


def primes_by_plain_sieve(n: int) -> list[int]:
    """Eratosthenes over one flag per number 0..n: no segments, no odd-only
    layout, every prime striking the whole range at once."""
    flags = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if flags[p]]


# ---------------------------------------------------------------------------
# argparse command line (reference for the CLI's own parser)
# ---------------------------------------------------------------------------

def _ascii_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number of {len(digits)} digits") from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI was built on, as it stood before the CLI
    read its command line itself."""
    parser = argparse.ArgumentParser(
        prog="bitsudoku",
        description="Solve, count, and check n^2 x n^2 Sudoku puzzles; "
                    "list primes with a segmented sieve.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in (
            ("solve", "print the first solution or UNSOLVABLE"),
            ("count", "count every solution"),
            ("check", "validate a complete grid (VALID/INVALID)"),
            ("sieve", "print all primes up to N, one per line")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("generic", "classic"),
                       default="generic",
                       help="output rendering (classic is order-3 only)")
        p.add_argument("--stats", action="store_true",
                       help="emit a 'solutions= trials= passes=' line")
        p.add_argument("--cap", type=_ascii_int, default=1, metavar="N",
                       help="accepted for compatibility; changes no output")
        if name == "sieve":
            p.add_argument("bound", type=_ascii_int, metavar="N")
        else:
            p.add_argument("input", metavar="path|-",
                           help="puzzle file or - for stdin")
        if name == "count":
            p.add_argument("--limit", type=_ascii_int, metavar="N",
                           help="stop after counting N solutions")
    return parser


def parse_cli_args(argv: list[str]) -> argparse.Namespace:
    """The command line as argparse reads it, with the CLI's one check
    past it: --limit must be at least 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", None) is not None and args.limit < 1:
        parser.error("--limit must be >= 1")
    return args
