"""Solution search over candidate sets kept per row, column, and block.

For every blank cell the legal values are the intersection of the values
still missing from its row, its column, and its block.  Propagation sweeps
the blanks in row-major order: an empty intersection is a contradiction, a
singleton is assigned on the spot, and a sweep that assigns nothing leaves
the rest to trial and error.  Each trial speculatively assigns one
candidate at the branching cell and recurses; trials are counted, every
solution is counted, and enumeration is exhaustive unless a limit is set.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

from .grid import Grid, first_conflict
from .smallset import SmallSet


class ConflictError(ValueError):
    """The input grid repeats a value within a row, column, or block."""


class Event(Enum):
    """Terminal condition of one propagation run.

    E1: some blank cell has no candidate left (no completion exists down
    this line).  E2: no blank cells remain.  E3: a full sweep assigned
    nothing while blanks remain, so resolution falls to search.
    """

    E1_CONTRADICTION = "contradiction"
    E2_SOLVED = "solved"
    E3_EXHAUSTED_BY_SEARCH = "exhausted-by-search"


# Branching-cell policies for the trial phase.
FEWEST_CANDIDATES = "fewest-candidates"
FIRST_BLANK = "first-blank"

# (i, j, word bit of the placed value)
_JournalEntry = tuple[int, int, int]


@dataclass
class SolverState:
    """A grid plus the missing-value words and the list of blank cells.

    rows[i-1], cols[j-1], and blocks[(k-1)*n + l-1] are int words holding
    the values absent from row i, column j, and block (k, l), value d at
    bit d-1; blanks is row-major sorted.  All are kept in lockstep with the
    grid.  row_missing, col_missing, and block_missing view the words as
    SmallSets.
    """

    grid: Grid
    rows: list[int]
    cols: list[int]
    blocks: list[int]
    blanks: list[tuple[int, int]]

    @property
    def row_missing(self) -> list[SmallSet]:
        return [SmallSet(w, self.grid.side) for w in self.rows]

    @property
    def col_missing(self) -> list[SmallSet]:
        return [SmallSet(w, self.grid.side) for w in self.cols]

    @property
    def block_missing(self) -> list[list[SmallSet]]:
        """Indexed [k-1][l-1]."""
        n = self.grid.order
        return [[SmallSet(w, self.grid.side)
                 for w in self.blocks[k * n:(k + 1) * n]] for k in range(n)]


@dataclass
class SolveReport:
    """Outcome of a solve run."""

    solution_count: int
    solutions: list[Grid]
    trials: int
    propagation_passes: int
    terminal_event: Event
    # True when a solution limit stopped the search with candidate branches
    # still untried; solution_count is then a lower bound.
    truncated: bool = False


def init_state(g: Grid) -> SolverState:
    """Build the missing-value words and blank list for a grid.

    Raises ConflictError naming the first unit that repeats a value.
    """
    conflict = first_conflict(g)
    if conflict is not None:
        kind, index, value = conflict
        raise ConflictError(f"{kind} {index} contains {value} more than once")

    m = g.side
    full = (1 << m) - 1
    state = SolverState(g.copy(), [full] * m, [full] * m, [full] * m, [])
    for r in range(m):
        for c in range(m):
            v = g.cells[r][c]
            if v == 0:
                state.blanks.append((r + 1, c + 1))
            else:
                _take(state, r + 1, c + 1, 1 << (v - 1))
    return state


def _block(state: SolverState, i: int, j: int) -> int:
    n = state.grid.order
    return (i - 1) // n * n + (j - 1) // n


def _take(state: SolverState, i: int, j: int, bit: int) -> None:
    """Drop a value from the three units of (i, j).

    AND with the complement, never XOR: a toggle would put back a value
    that is already absent.
    """
    state.rows[i - 1] &= ~bit
    state.cols[j - 1] &= ~bit
    state.blocks[_block(state, i, j)] &= ~bit


def candidates(state: SolverState, i: int, j: int) -> SmallSet:
    """Values legally placeable at blank cell (i, j)."""
    if state.grid.value(i, j) != 0:
        raise ValueError(f"cell ({i}, {j}) is not blank")
    return SmallSet(_candidate_bits(state, i, j), state.grid.side)


def _candidate_bits(state: SolverState, i: int, j: int) -> int:
    return (state.rows[i - 1] & state.cols[j - 1]
            & state.blocks[_block(state, i, j)])


def _apply(state: SolverState, i: int, j: int, bit: int) -> _JournalEntry:
    """Place the value whose word bit is `bit` at blank cell (i, j)."""
    state.grid.cells[i - 1][j - 1] = bit.bit_length()
    _take(state, i, j, bit)
    state.blanks.remove((i, j))
    return (i, j, bit)


def _undo(state: SolverState, entries: list[_JournalEntry]) -> None:
    for i, j, bit in reversed(entries):
        state.grid.cells[i - 1][j - 1] = 0
        state.rows[i - 1] |= bit
        state.cols[j - 1] |= bit
        state.blocks[_block(state, i, j)] |= bit
        bisect.insort(state.blanks, (i, j))


def assign(state: SolverState, i: int, j: int, d: int) -> SolverState:
    """Place d at blank cell (i, j), updating the sets and blank list."""
    if not candidates(state, i, j).contains(d):
        raise ValueError(f"{d} is not a candidate at ({i}, {j})")
    _apply(state, i, j, 1 << (d - 1))
    return state


def _propagate(state: SolverState,
               journal: list[_JournalEntry]) -> tuple[Event, int]:
    if not state.blanks:
        return Event.E2_SOLVED, 0
    passes = 0
    while True:
        assigned = False
        for i, j in list(state.blanks):
            p = _candidate_bits(state, i, j)
            if p == 0:
                return Event.E1_CONTRADICTION, passes
            if p & (p - 1) == 0:
                journal.append(_apply(state, i, j, p))
                assigned = True
        passes += 1
        if not state.blanks:
            return Event.E2_SOLVED, passes
        if not assigned:
            return Event.E3_EXHAUSTED_BY_SEARCH, passes


def propagate(state: SolverState) -> tuple[SolverState, Event, int]:
    """Sweep the blanks to a fixpoint, assigning forced cells.

    Each sweep walks the current blanks row-major; a cell whose candidate
    set is empty ends the run immediately with E1, a singleton is assigned
    and the sweep continues.  Returns E2 once no blanks remain, or E3 after
    a completed sweep that assigned nothing.  The pass count is the number
    of completed sweeps (0 when the grid arrives complete).
    """
    journal: list[_JournalEntry] = []
    event, passes = _propagate(state, journal)
    return state, event, passes


def _branch_cell(state: SolverState, policy: str) -> tuple[int, int]:
    if policy == FIRST_BLANK:
        return state.blanks[0]
    best = state.blanks[0]
    best_size = state.grid.side + 1
    for i, j in state.blanks:
        size = _candidate_bits(state, i, j).bit_count()
        if size < best_size:
            best, best_size = (i, j), size
            if size == 2:
                break
    return best


def solve(g: Grid, cap: int = 1, limit: int | None = None,
          branch: str = FEWEST_CANDIDATES) -> SolveReport:
    """Count (and retain up to `cap`) every completion of the puzzle.

    Propagation runs first; when it stalls, one blank cell is chosen by the
    `branch` policy and every candidate there is tried in ascending order,
    each attempt counted as one trial before recursing.  With `limit` set,
    enumeration stops as soon as that many solutions have been counted and
    the reported count is a lower bound.  The default policy branches on a
    cell with the fewest candidates (ties row-major); FIRST_BLANK always
    takes the first blank, which changes the trial count but never the
    solution count.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if branch not in (FEWEST_CANDIDATES, FIRST_BLANK):
        raise ValueError(f"unknown branch policy {branch!r}")

    state = init_state(g)
    solutions: list[Grid] = []
    count = 0
    trials = 0
    passes_total = 0
    skipped_branches = False
    root_event = Event.E2_SOLVED

    def search(depth: int) -> bool:
        nonlocal count, trials, passes_total, skipped_branches, root_event
        journal: list[_JournalEntry] = []
        event, passes = _propagate(state, journal)
        passes_total += passes
        if depth == 0:
            root_event = event
        stop = False
        if event is Event.E2_SOLVED:
            count += 1
            if len(solutions) < cap:
                solutions.append(state.grid.copy())
            stop = limit is not None and count >= limit
        elif event is Event.E3_EXHAUSTED_BY_SEARCH:
            i, j = _branch_cell(state, branch)
            untried = _candidate_bits(state, i, j)
            while untried:
                bit = untried & -untried   # lowest value first
                untried ^= bit
                trials += 1
                entry = _apply(state, i, j, bit)
                stop = search(depth + 1)
                _undo(state, [entry])
                if stop:
                    if untried:
                        skipped_branches = True
                    break
        _undo(state, journal)
        return stop

    search(0)
    return SolveReport(
        solution_count=count,
        solutions=solutions,
        trials=trials,
        propagation_passes=passes_total,
        terminal_event=root_event,
        truncated=skipped_branches,
    )
