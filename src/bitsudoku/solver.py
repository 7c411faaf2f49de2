"""Solution search over candidate sets kept per row, column, and block.

For every blank cell the legal values are the intersection of the values
still missing from its row, its column, and its block.  Propagation sweeps
the blanks in row-major order: an empty intersection is a contradiction, a
singleton is assigned on the spot, and a sweep that assigns nothing leaves
the rest to trial and error.  Each trial speculatively assigns one
candidate at the branching cell and propagates again, in one loop over a
stack of frames; trials are counted, every solution is counted, and
enumeration is exhaustive unless a limit is set.

The state is flat.  Cell (i, j) of an m×m board is index k = (i-1)·m + j-1
of one cell list, and the 3m unit words share one list, built from the
pass of grid.unit_scan, whose unit_table maps k to its three words' indices.
The blank cells form one ascending list of flat indices, which each sweep
rebuilds from the cells it leaves blank.  A search frame
saves its words and open list (less its branch cell), never its cells; the
deepest frame with values left restores them after a dead end or a
solution, so propagation must replace the open list, never mutate it.
The sweep itself is one private function on bare lists, _sweep: solve
calls it on its own locals, and propagate wraps it for a SolverState.
A placement clears its value's bit by XOR, which is exact only because
the bit is known to be in all three words.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import compress

from .grid import Grid, cell_bytes, cell_index, unit_scan, unit_table
from .smallset import SmallSet, _Record


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


_E1 = Event.E1_CONTRADICTION
_E2 = Event.E2_SOLVED
_E3 = Event.E3_EXHAUSTED_BY_SEARCH

# Branching-cell policies for the trial phase.
FEWEST_CANDIDATES = "fewest-candidates"
FIRST_BLANK = "first-blank"


class SolverState(_Record):
    """A board as flat cells plus the missing-value words and open cells.

    cells[(i-1)*m + j-1] is the value at (i, j), 0 for a blank.  words
    holds the values absent from each unit, value d at bit d-1: row i at
    i-1, column j at m + j-1, block (k, l) at 2m + (k-1)*n + l-1.  open is
    the ascending list of blank flat indices.  All are kept in lockstep,
    except that inside solve an open cell may hold a value left by a failed
    trial; grid, blanks, and the *_missing SmallSet views are derived from
    them.
    Two states are == when all four fields are; states are unhashable.
    """

    _fields = ("order", "cells", "words", "open")

    def __init__(self, order: int, cells: list[int], words: list[int],
                 open: list[int]) -> None:
        self.order = order
        self.cells = cells
        self.words = words
        self.open = open

    @property
    def grid(self) -> Grid:
        """A copy of the board as a Grid."""
        m = self.order * self.order
        return Grid._adopt(self.order,
                           [self.cells[r * m:(r + 1) * m] for r in range(m)])

    @property
    def blanks(self) -> list[tuple[int, int]]:
        """Blank cells as 1-based (i, j), row-major."""
        m = self.order * self.order
        return [(k // m + 1, k % m + 1) for k in self.open]

    @property
    def row_missing(self) -> list[SmallSet]:
        m = self.order * self.order
        return [SmallSet(w, m) for w in self.words[:m]]

    @property
    def col_missing(self) -> list[SmallSet]:
        m = self.order * self.order
        return [SmallSet(w, m) for w in self.words[m:2 * m]]

    @property
    def block_missing(self) -> list[list[SmallSet]]:
        """Indexed [k-1][l-1]."""
        n = self.order
        m = n * n
        return [[SmallSet(w, m)
                 for w in self.words[2 * m + k * n:2 * m + (k + 1) * n]]
                for k in range(n)]


class SolveReport(_Record):
    """Outcome of a solve run.

    truncated is True when a solution limit stopped the search with
    candidate branches still untried; solution_count is then a lower bound.
    Two reports are == when every field is; reports are unhashable.
    """

    _fields = ("solution_count", "solutions", "trials", "propagation_passes",
               "terminal_event", "truncated")

    def __init__(self, solution_count: int, solutions: list[Grid],
                 trials: int, propagation_passes: int, terminal_event: Event,
                 truncated: bool = False) -> None:
        self.solution_count = solution_count
        self.solutions = solutions
        self.trials = trials
        self.propagation_passes = propagation_passes
        self.terminal_event = terminal_event
        self.truncated = truncated

# A bytes.translate table: a blank cell's byte 0 to 1, any clue to 0.
_BLANK = bytes([1]) + bytes(255)


@cache
def _indices(order: int) -> tuple[int, ...]:
    """The flat indices 0..m²-1, made once: a range would make each
    index above 256 anew on every read."""
    return tuple(range(order ** 4))


def init_state(g: Grid) -> SolverState:
    """Build the missing-value words and open list for a grid.

    Raises ConflictError naming the first unit that repeats a value.
    """
    cells = cell_bytes(g)
    held, conflict = unit_scan(g.order, cells)
    if conflict:
        kind, index, value = conflict
        raise ConflictError(f"{kind} {index} contains {value} more than once")
    # AND with the complement, never XOR: a toggle would put back a
    # value that is already absent.
    full = (1 << g.side) - 1
    words = [full & ~w for w in held]
    return SolverState(g.order, list(cells), words,
                       list(compress(_indices(g.order),
                                     cells.translate(_BLANK))))


def candidates(state: SolverState, i: int, j: int) -> SmallSet:
    """Values legally placeable at blank cell (i, j)."""
    k = cell_index(i, j, state.order * state.order)
    if state.cells[k] != 0:
        raise ValueError(f"cell ({i}, {j}) is not blank")
    a, b, c = unit_table(state.order)[k]
    w = state.words
    return SmallSet(w[a] & w[b] & w[c], state.order * state.order)


def assign(state: SolverState, i: int, j: int, d: int) -> SolverState:
    """Place d at blank cell (i, j), updating the words and open list."""
    if not candidates(state, i, j).contains(d):
        raise ValueError(f"{d} is not a candidate at ({i}, {j})")
    k = cell_index(i, j, state.order * state.order)
    a, b, c = unit_table(state.order)[k]
    bit = 1 << (d - 1)
    state.cells[k] = d
    state.words[a] ^= bit
    state.words[b] ^= bit
    state.words[c] ^= bit
    state.open.remove(k)
    return state


def propagate(state: SolverState) -> tuple[SolverState, Event, int]:
    """Sweep the blanks to a fixpoint, assigning forced cells.

    Each sweep walks the current blanks row-major; a cell whose candidate
    set is empty ends the run immediately with E1, a singleton is assigned
    and the sweep continues.  Returns E2 once no blanks remain, or E3 after
    a completed sweep that assigned nothing.  The pass count is the number
    of completed sweeps (0 when the grid arrives complete).
    """
    state.open, event, passes = _sweep(state.cells, state.words,
                                       unit_table(state.order), state.open)
    return state, event, passes


def _sweep(cells: list[int], words: list[int],
           units: tuple[tuple[int, int, int], ...], open_: list[int]
           ) -> tuple[list[int], Event, int]:
    """propagate on bare lists: the new open list, the event and the pass
    count.  open_ is never mutated: solve's trials share one list."""
    if not open_:
        return open_, _E2, 0
    passes = 0
    while True:
        placed = 0
        survivors: list[int] = []
        for k in open_:
            a, b, c = units[k]
            p = words[a] & words[b] & words[c]
            if p & (p - 1):             # two or more candidates
                survivors.append(k)
            elif p:                     # a single candidate: place it
                # p is the AND of the three words, so its bit is in each
                # and XOR clears just that bit, with no inverted int.
                cells[k] = p.bit_length()
                words[a] ^= p
                words[b] ^= p
                words[c] ^= p
                placed += 1
            else:
                # Every cell before k either survived or was placed.
                return (survivors + open_[len(survivors) + placed:], _E1,
                        passes)
        passes += 1
        open_ = survivors
        if not open_:
            return open_, _E2, passes
        if not placed:
            return open_, _E3, passes


def _branch_cell(open_: list[int], words: list[int],
                 units: tuple[tuple[int, int, int], ...], policy: str) -> int:
    if policy == FIRST_BLANK:
        return open_[0]
    best = open_[0]
    best_size = len(words)          # 3m, above any candidate count
    for k in open_:
        a, b, c = units[k]
        size = (words[a] & words[b] & words[c]).bit_count()
        if size < best_size:
            best, best_size = k, size
            if size == 2:
                break
    return best


def solve(g: Grid, cap: int = 1, limit: int | None = None,
          branch: str = FEWEST_CANDIDATES) -> SolveReport:
    """Count (and retain up to `cap`) every completion of the puzzle.

    Propagation runs first; when it stalls, one blank cell is chosen by the
    `branch` policy and every candidate there is tried in ascending order,
    each attempt counted as one trial before propagating again.  With
    `limit` set, enumeration stops as soon as that many solutions have been
    counted and the reported count is a lower bound, truncated if values
    were left untried.  The default policy branches on a cell with the
    fewest candidates (ties row-major); FIRST_BLANK always takes the first
    blank, which changes the trial count but never the solution count.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if branch not in (FEWEST_CANDIDATES, FIRST_BLANK):
        raise ValueError(f"unknown branch policy {branch!r}")

    state = init_state(g)
    cells, words = state.cells, state.words
    units = unit_table(state.order)
    solutions: list[Grid] = []
    count = 0
    trials = 0
    # Each frame is (untried, k, saved words, open list less k) and stays on
    # the stack only while it has values left to try.  Cells need no copy:
    # below a frame only its open cells are written, so every other cell
    # keeps its value on the path to it, and an open cell a failed trial
    # wrote is rewritten before any E2 reads the cells through state.grid.
    stack: list[tuple[int, int, list[int], list[int]]] = []
    open_, root_event, passes_total = _sweep(cells, words, units, state.open)
    event = root_event
    while True:
        if event is _E3:
            k = _branch_cell(open_, words, units, branch)
            a, b, c = units[k]
            untried = words[a] & words[b] & words[c]
            saved_words = words[:]
            rest = open_.copy()
            rest.remove(k)
        else:
            if event is _E2:
                count += 1
                if len(solutions) < cap:
                    solutions.append(state.grid)
                if limit is not None and count >= limit:
                    break
            if not stack:
                break
            # Back from a leaf: restore the deepest frame with values left.
            untried, k, saved_words, rest = stack.pop()
            words[:] = saved_words
            a, b, c = units[k]
        bit = untried & -untried       # lowest value first
        untried ^= bit
        if untried:
            stack.append((untried, k, saved_words, rest))
        trials += 1
        # bit is in all three words: untried is a subset of their AND, taken
        # on the words a popped frame has just restored.  So XOR clears it.
        cells[k] = bit.bit_length()
        words[a] ^= bit
        words[b] ^= bit
        words[c] ^= bit
        open_, event, passes = _sweep(cells, words, units, rest)
        passes_total += passes
    return SolveReport(solution_count=count, solutions=solutions,
                       trials=trials, propagation_passes=passes_total,
                       terminal_event=root_event, truncated=bool(stack))
