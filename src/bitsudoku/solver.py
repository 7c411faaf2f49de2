"""Solution search over candidate sets kept per row, column, and block.

For every blank cell the legal values are the intersection of the values
still missing from its row, its column, and its block.  Propagation sweeps
the blanks in row-major order: an empty intersection is a contradiction, a
singleton is assigned on the spot, and a sweep that assigns nothing leaves
the rest to trial and error, naming as it goes the cell with the fewest
candidates, so search never rescans the blanks to choose one.  Each trial
speculatively assigns one candidate at the branching cell and propagates
again, in one loop over a stack of frames, _search, which solve and
count_solutions both run; trials are counted, every solution is counted,
and enumeration is exhaustive unless a limit is set.

The state is flat.  Cell (i, j) of an m×m board is index k = (i-1)·m + j-1
of one cell list, and the 3m unit words share one list, built from the
pass of grid.unit_scan, whose unit_table maps k to its three words' indices.
The blank cells form one ascending list of flat indices, which each sweep
rebuilds from the cells it leaves blank.  A search frame
saves its words and open list (less its branch cell), never its cells; the
deepest frame with values left restores them after a dead end or a
solution, so propagation must replace the open list, never mutate it.
The sweep itself is one private function on bare lists, _sweep: _search
calls it on its own locals and branches on the cell it names, and
propagate wraps it for a SolverState and drops that cell.
A placement clears its value's bit by XOR, which is exact only because
the bit is known to be in all three words.

At a stall (E3) _search runs one of three rules before it branches; two
read the exact-cover column rule (Knuth, "Dancing Links") off the same
words, by _cover: a value with no place in a unit is a dead end, one with
a single place is placed there (a dead end too if that forces a cell to
two values), and the sweep runs again, to a fixpoint.  None, solve's
default search, branches at once.  _PRUNE, solve(..., prune=True), runs
the rule as a test alone, on a copy of the words: a stall it proves dead
is a dead end, the branch cells, values and order of solutions stay the
default search's, and only trials and passes fall (the blank 25×25
board's first solution takes 485 trials; the default search did not end
in 25 minutes).  _COVER, count_solutions, runs it in place and, where the
noted cell has over two candidates, branches by _pair on the lowest value
with exactly two places in a unit, if any; each choice splits the
completions exactly.  It settles Norvig's "impossible" puzzle in 10
trials, where the default search ran for over 15 minutes, but its tree is
not solve's, so only its count is returned.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce
from itertools import compress
from operator import or_

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

# Rules _search may run at each stall before it branches (None runs none):
# the exact-cover rule as a test on a copy of the words, or in place.
_PRUNE = "prune"
_COVER = "cover"


class SolverState(_Record):
    """A board as flat cells plus the missing-value words and open cells.

    cells[(i-1)*m + j-1] is the value at (i, j), 0 for a blank.  words
    holds the values absent from each unit, value d at bit d-1: row i at
    i-1, column j at m + j-1, block (k, l) at 2m + (k-1)*n + l-1.  open is
    the ascending list of blank flat indices.  All are kept in lockstep,
    except that inside a search an open cell may hold a value left by a
    failed trial; grid, blanks, and the *_missing SmallSet views are
    derived from them.
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
    state.open, event, passes, _ = _sweep(state.cells, state.words,
                                          unit_table(state.order), state.open)
    return state, event, passes


def _sweep(cells: list[int], words: list[int],
           units: tuple[tuple[int, int, int], ...], open_: list[int]
           ) -> tuple[list[int], Event, int, int]:
    """propagate on bare lists: the new open list, the event, the pass
    count and, after E3, a kept cell with the fewest candidates (the first
    in row-major order; -1 after E1 or E2).  open_ is never mutated: a
    search's trials share one list.  Every pass builds a new list, so the
    one returned after E3 is held by no one else, and _search takes its
    branch cell out of it in place to make the frame's list."""
    if not open_:
        return open_, _E2, 0, -1
    passes = 0
    while True:
        placed = 0
        survivors: list[int] = []
        left = iter(open_)
        # Note the fewest-candidates cell until the pass places a value or
        # meets two candidates, the fewest a kept cell can have; the sweep
        # loop below then finishes the pass.  An E3 pass places nothing, so
        # its words never change and the note is the cell a rescan would pick.
        best, best_size = -1, len(words)    # 3m, above any candidate count
        for k in left:
            a, b, c = units[k]
            p = words[a] & words[b] & words[c]
            if not p & (p - 1):
                if not p:
                    return survivors + open_[len(survivors):], _E1, passes, -1
                cells[k] = p.bit_length()
                words[a] ^= p
                words[b] ^= p
                words[c] ^= p
                placed = 1
                break
            survivors.append(k)
            size = p.bit_count()
            if size < best_size:
                best, best_size = k, size
                if size == 2:
                    break
        for k in left:
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
                        passes, -1)
        passes += 1
        open_ = survivors
        if not open_:
            return open_, _E2, passes, -1
        if not placed:
            return open_, _E3, passes, best


def solve(g: Grid, cap: int = 1, limit: int | None = None,
          branch: str = FEWEST_CANDIDATES, prune: bool = False
          ) -> SolveReport:
    """Count (and retain up to `cap`) every completion of the puzzle.

    Propagation runs first; when it stalls, one blank cell is chosen by the
    `branch` policy and every candidate there is tried in ascending order,
    each attempt counted as one trial before propagating again.  With
    `limit` set, enumeration stops as soon as that many solutions have been
    counted and the reported count is a lower bound, truncated if values
    were left untried.  The default policy branches on a cell with the
    fewest candidates (ties row-major), the one the stalled sweep names;
    FIRST_BLANK always takes the first blank, which changes the trial count
    but never the solution count.

    With `prune`, a stall the exact-cover rule proves to have no completion
    is a dead end, as E1 is (see the module docstring).  solution_count,
    the retained solutions and their order, truncated and terminal_event
    equal those of prune=False; trials and propagation_passes count the
    pruned search (the rule's own sweeps are not passes), never higher.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if branch not in (FEWEST_CANDIDATES, FIRST_BLANK):
        raise ValueError(f"unknown branch policy {branch!r}")
    return _search(g, cap, limit, branch == FIRST_BLANK,
                   _PRUNE if prune else None)


def count_solutions(g: Grid) -> int:
    """The exact number of completions of the puzzle, as an int.

    It equals solve(g, cap=0).solution_count.  Raises ConflictError as
    solve does, and never writes to g.
    """
    return _search(g, 0, None, False, _COVER).solution_count


def _search(g: Grid, cap: int, limit: int | None, first_blank: bool,
            rule: str | None) -> SolveReport:
    """solve's and count_solutions' search, on checked arguments; `rule`,
    None, _PRUNE or _COVER, runs at each stall (see the module docstring)."""
    state = init_state(g)
    cells, words = state.cells, state.words
    units = unit_table(state.order)
    solutions: list[Grid] = []
    count = trials = 0
    # Each frame is (untried, k, saved words, open list less k) and stays on
    # the stack only while it has values left to try.  Cells need no copy:
    # below a frame only its open cells are written, so every other cell
    # keeps its value on the path to it, and an open cell a failed trial
    # wrote is rewritten before any E2 reads the cells through state.grid.
    stack: list[tuple[int, int, list[int], list[int]]] = []
    open_, root_event, passes_total, noted = _sweep(cells, words, units,
                                                    state.open)
    event = root_event
    cover = rule is _COVER
    while True:
        # The rule writes only open cells, which a failed trial may write.
        if rule and event is _E3:
            if cover:
                open_, event, noted = _cover(cells, words, units, open_,
                                             noted)
            elif _cover(cells, words[:], units, open_, noted)[1] is _E1:
                event = _E1
        if event is _E3:
            k = open_[0] if first_blank else noted
            a, b, c = units[k]
            untried = words[a] & words[b] & words[c]
            saved_words = words[:]
            if cover and untried.bit_count() > 2:
                k, untried = _pair(saved_words, units, open_, k, untried,
                                   stack)
                a, b, c = units[k]
            open_.remove(k)
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
            untried, k, saved_words, open_ = stack.pop()
            words[:] = saved_words
            a, b, c = units[k]
        bit = untried & -untried       # lowest value first
        untried ^= bit
        if untried:
            stack.append((untried, k, saved_words, open_))
        trials += 1
        # bit is in all three words: untried is a subset of their AND, taken
        # on the words a popped frame has just restored.  So XOR clears it.
        cells[k] = bit.bit_length()
        words[a] ^= bit
        words[b] ^= bit
        words[c] ^= bit
        open_, event, passes, noted = _sweep(cells, words, units, open_)
        passes_total += passes
    return SolveReport(solution_count=count, solutions=solutions,
                       trials=trials, propagation_passes=passes_total,
                       terminal_event=root_event, truncated=bool(stack))


def _places(words: list[int], units: tuple[tuple[int, int, int], ...],
            open_: list[int], thrice: list[int] | None = None
            ) -> tuple[list[int], list[int]]:
    """Per unit word, the values with at least one and at least two places
    among the open cells, and, into `thrice` when given, three."""
    once = [0] * len(words)
    twice = once[:]
    if thrice is None:
        for k in open_:
            a, b, c = units[k]
            p = words[a] & words[b] & words[c]
            twice[a] |= once[a] & p
            once[a] |= p
            twice[b] |= once[b] & p
            once[b] |= p
            twice[c] |= once[c] & p
            once[c] |= p
    else:
        for k in open_:
            a, b, c = units[k]
            p = words[a] & words[b] & words[c]
            thrice[a] |= twice[a] & p
            twice[a] |= once[a] & p
            once[a] |= p
            thrice[b] |= twice[b] & p
            twice[b] |= once[b] & p
            once[b] |= p
            thrice[c] |= twice[c] & p
            twice[c] |= once[c] & p
            once[c] |= p
    return once, twice


def _cover(cells: list[int], words: list[int],
           units: tuple[tuple[int, int, int], ...], open_: list[int],
           noted: int) -> tuple[list[int], Event, int]:
    """The exact-cover column rule after a sweep stalled (E3) with `noted`,
    to a fixpoint, one _places scan per round: the open list, event and
    noted cell _sweep would give had it placed hidden singles too.  Only
    open cells and words are written, and open_ is never mutated."""
    while True:
        once, twice = _places(words, units, open_)
        # A unit's places cover at most its missing values, so once and
        # twice fall short of words exactly where a value has fewer than
        # one or two places.
        if once != words:
            return open_, _E1, -1
        if twice == words:
            return open_, _E3, noted
        single = [w & ~t for w, t in zip(words, twice)]
        survivors = []
        for k in open_:
            a, b, c = units[k]
            # A value placed by an earlier cell of this scan is gone from
            # the words; the next scan finds its unit short of a place.
            f = ((single[a] | single[b] | single[c])
                 & words[a] & words[b] & words[c])
            if not f:
                survivors.append(k)
            elif f & (f - 1):
                return open_, _E1, -1
            else:
                cells[k] = f.bit_length()
                words[a] ^= f
                words[b] ^= f
                words[c] ^= f
        open_, event, _, noted = _sweep(cells, words, units, survivors)
        if event is not _E3:
            return open_, event, noted


def _pair(words: list[int], units: tuple[tuple[int, int, int], ...],
          open_: list[int], k: int, untried: int,
          stack: list[tuple[int, int, list[int], list[int]]]
          ) -> tuple[int, int]:
    """The cell and values the cover search tries at a stall whose noted
    cell k has the candidates `untried`, over two: the lowest value with
    exactly two places in a unit (the first such unit; a second scan counts
    three places) at its first place, once the frame for the other place,
    which keeps `words`, the stall's saved copy, is on `stack`; else k."""
    thrice = [0] * len(words)
    _, twice = _places(words, units, open_, thrice)
    pairs = [t & ~h for t, h in zip(twice, thrice)]
    values = reduce(or_, pairs)
    if not values:
        return k, untried
    bit = values & -values
    u = next(u for u, pair in enumerate(pairs) if pair & bit)
    k, other = [j for j in open_ if u in units[j] and bit & words[units[j][0]]
                & words[units[j][1]] & words[units[j][2]]]
    rest = open_[:]
    rest.remove(other)
    stack.append((bit, other, words, rest))
    return k, bit
