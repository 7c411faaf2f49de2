"""The benchmark's own answer keys; nothing here imports the package.

`solve_reference` re-states the paper's search on flat integer words: a
row-major naked-singles sweep to a fixpoint, then a branch on the blank
with the fewest candidates (ties row-major, stopping at the first cell
with two), values in ascending order.  It reproduces the counters the
program reports (solutions, trials, passes, truncation, root event) and
the order of solutions, which the project treats as part of its output
contract, so any drift in them shows up as a failed operation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


def parse_cells(text: str) -> list[list[int]]:
    """Cells of a corpus text (generic, or classic 81 characters)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) == 1 and len(lines[0]) == 81:
        vals = [0 if ch in "0." else int(ch) for ch in lines[0]]
        return [vals[r * 9:(r + 1) * 9] for r in range(9)]
    m = int(lines[0]) ** 2
    cells = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    if len(cells) != m or any(len(row) != m for row in cells):
        raise ValueError("malformed corpus text")
    return cells


def is_valid_solution(cells: list[list[int]],
                      clues: list[list[int]]) -> bool:
    """Every row, column and block is a permutation of 1..m, and every
    clue of the puzzle is kept."""
    m = len(clues)
    n = int(round(m ** 0.5))
    if len(cells) != m or any(len(row) != m for row in cells):
        return False
    want = set(range(1, m + 1))
    units = [list(row) for row in cells]
    units += [[cells[r][c] for r in range(m)] for c in range(m)]
    units += [[cells[r][c] for r in range(br, br + n)
               for c in range(bc, bc + n)]
              for br in range(0, m, n) for bc in range(0, m, n)]
    if any(len(u) != m or set(u) != want for u in units):
        return False
    return all(clues[r][c] in (0, cells[r][c])
               for r in range(m) for c in range(m))


@dataclass(frozen=True)
class Outcome:
    """What one solve reports, in comparable form."""

    count: int
    trials: int
    passes: int
    truncated: bool
    root_event: str
    first: tuple[tuple[int, ...], ...] | None


def solve_reference(cells: list[list[int]], limit: int | None = None
                    ) -> Outcome:
    m = len(cells)
    n = int(round(m ** 0.5))
    full = (1 << m) - 1
    grid = [v for row in cells for v in row]
    row = [full] * m
    col = [full] * m
    blk = [full] * m
    unit_of = [(p // m, p % m, (p // m) // n * n + (p % m) // n)
               for p in range(m * m)]
    for p, v in enumerate(grid):
        if v:
            r, c, b = unit_of[p]
            bit = 1 << (v - 1)
            if not (row[r] & col[c] & blk[b] & bit):
                raise ValueError("conflicting clues")
            row[r] &= ~bit
            col[c] &= ~bit
            blk[b] &= ~bit
    blanks = [p for p, v in enumerate(grid) if v == 0]
    st = {"count": 0, "trials": 0, "passes": 0, "truncated": False,
          "root": "solved", "first": None}

    def put(p: int, v: int) -> None:
        r, c, b = unit_of[p]
        bit = 1 << (v - 1)
        grid[p] = v
        row[r] &= ~bit
        col[c] &= ~bit
        blk[b] &= ~bit

    def take(p: int) -> None:
        r, c, b = unit_of[p]
        bit = 1 << (grid[p] - 1)
        grid[p] = 0
        row[r] |= bit
        col[c] |= bit
        blk[b] |= bit

    def cand(p: int) -> int:
        r, c, b = unit_of[p]
        return row[r] & col[c] & blk[b]

    def sweep(journal: list[int]) -> str:
        nonlocal blanks
        if not blanks:
            return "solved"
        while True:
            assigned = False
            for p in blanks:
                bits = cand(p)
                if bits == 0:
                    blanks = [q for q in blanks if grid[q] == 0]
                    return "contradiction"
                if bits & (bits - 1) == 0:
                    put(p, bits.bit_length())
                    journal.append(p)
                    assigned = True
            blanks = [q for q in blanks if grid[q] == 0]
            st["passes"] += 1
            if not blanks:
                return "solved"
            if not assigned:
                return "exhausted-by-search"

    def restore(journal: list[int]) -> None:
        nonlocal blanks
        for p in journal:
            take(p)
        if journal:
            blanks = sorted(blanks + journal)

    def search(depth: int) -> bool:
        nonlocal blanks
        journal: list[int] = []
        event = sweep(journal)
        if depth == 0:
            st["root"] = event
        stop = False
        if event == "solved":
            st["count"] += 1
            if st["first"] is None:
                st["first"] = tuple(tuple(grid[r * m:(r + 1) * m])
                                    for r in range(m))
            stop = limit is not None and st["count"] >= limit
        elif event == "exhausted-by-search":
            best, best_size = blanks[0], m + 1
            for p in blanks:
                size = cand(p).bit_count()
                if size < best_size:
                    best, best_size = p, size
                    if size == 2:
                        break
            bits = cand(best)
            values = [d + 1 for d in range(m) if bits >> d & 1]
            for idx, v in enumerate(values):
                st["trials"] += 1
                put(best, v)
                blanks.remove(best)
                stop = search(depth + 1)
                take(best)
                blanks = sorted(blanks + [best])
                if stop:
                    if idx + 1 < len(values):
                        st["truncated"] = True
                    break
        restore(journal)
        return stop

    limit_depth = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit_depth, 4 * m * m + 100))
    try:
        search(0)
    finally:
        sys.setrecursionlimit(limit_depth)
    return Outcome(st["count"], st["trials"], st["passes"], st["truncated"],
                   st["root"], st["first"])


def primes_text(n: int) -> bytes:
    """The exact stdout of `sieve n`: one prime per line."""
    if n < 2:
        return b""
    mark = bytearray([1]) * (n + 1)
    mark[0:2] = b"\0\0"
    for p in range(2, int(n ** 0.5) + 1):
        if mark[p]:
            mark[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return "".join(f"{p}\n" for p in range(n + 1) if mark[p]).encode()
