"""Seeded puzzle corpora for the three workloads.

The generators reproduce `shuffled_valid_grid` and `delete_cells` from
tests/oracles.py call for call, so a seed yields the same boards here as
there; the benchmark keeps its own copy so that its inputs do not move
when the test helpers change.  Every board reaches the program as puzzle
text, never as a prebuilt object.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Widely published order-3 puzzle of ordinary difficulty (criterion 8 of
# the acceptance tests); solved by propagation alone.
CLASSIC = ("530070000600195000098000060800060003400803001"
           "700020006060000280000419005000080079")
# Arto Inkala's 2012 puzzle: one solution, 3598 trials when counted.
INKALA = ("800000000003600000070090200050007000000045700"
          "000100030001000068008500010090000400")
# Norvig, "Solving Every Sudoku Puzzle": hard1 has one solution.
HARD1 = ("4.....8.5.3..........7......2.....6.....8.4......"
         "1.......6.3.7.5..2.....1.4......")
# Norvig's "impossible" puzzle: no solution, and no bound on the work the
# naked-singles engine spends proving it.
IMPOSSIBLE = (".....5.8....6.1.43..........1.5........1.6...3..."
              "....553.....61........4.........")

# cli: the bound of `sieve N`; pi(10**6) = 78498.
SIEVE_N = 1_000_000
PRIME_COUNT = 78498
# enumerate: seeded 9x9 boards counted exhaustively.  At 56 blanks single
# boards take seconds, so the range stops at 54.
ENUMERATE_BOARDS = 80
ENUMERATE_BLANKS = (48, 53)
# first-large: seeded boards solved to the first solution.
# Two 25x25 boards to each 16x16 one, so that the median and p90 both fall
# inside the 25x25 times, not in the gap between the two sizes.
FIRST_LARGE_16 = 40
FIRST_LARGE_25 = 80
FIRST_LARGE_BLANKS = {4: (100, 120), 5: (200, 250)}
# cli: seeded 9x9 boards for `solve --stats --format classic`.
CLI_SOLVE_BOARDS = 20
CLI_SOLVE_BLANKS = (45, 54)


def pattern_grid(order: int) -> list[list[int]]:
    m = order * order
    return [[(r * order + r // order + c) % m + 1 for c in range(m)]
            for r in range(m)]


def _shuffle_groups(order: int, rng: random.Random) -> list[int]:
    idx = list(range(order * order))
    for g in range(order):
        chunk = idx[g * order:(g + 1) * order]
        rng.shuffle(chunk)
        idx[g * order:(g + 1) * order] = chunk
    groups = list(range(order))
    rng.shuffle(groups)
    return [idx[g * order + i] for g in groups for i in range(order)]


def shuffled_valid_grid(order: int, rng: random.Random) -> list[list[int]]:
    """A random complete grid: the pattern grid with its digits relabelled,
    then rows and columns permuted within and across bands and stacks."""
    m = order * order
    relabel = list(range(1, m + 1))
    rng.shuffle(relabel)
    cells = [[relabel[v - 1] for v in row] for row in pattern_grid(order)]
    rows = _shuffle_groups(order, rng)
    cols = _shuffle_groups(order, rng)
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


def generic_text(cells: list[list[int]]) -> str:
    """Puzzle text in the generic format: order line, then the rows."""
    order = int(round(len(cells) ** 0.5))
    return f"{order}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in cells)


def classic_text(cells: list[list[int]]) -> str:
    return "".join(str(v) for row in cells for v in row) + "\n"


def blank_text(order: int) -> str:
    m = order * order
    return generic_text([[0] * m for _ in range(m)])


@dataclass(frozen=True)
class Board:
    """One puzzle as the program receives it."""

    name: str
    text: str


def transform(cells: list[list[int]], rng: random.Random,
              positions: bool = True) -> list[list[int]]:
    """An isomorphic copy of a puzzle: digits relabelled and, with
    `positions`, rows and columns permuted within and across bands and
    stacks, then maybe transposed.  The solution count is unchanged."""
    m = len(cells)
    order = int(round(m ** 0.5))
    relabel = [0] + rng.sample(range(1, m + 1), m)
    if not positions:
        return [[relabel[v] for v in row] for row in cells]
    rows = _shuffle_groups(order, rng)
    cols = _shuffle_groups(order, rng)
    out = [[relabel[cells[r][c]] for c in cols] for r in rows]
    if rng.random() < 0.5:
        out = [list(col) for col in zip(*out)]
    return out


def _seeded(rng: random.Random, order: int, blanks: tuple[int, int],
            count: int, prefix: str, as_classic: bool = False,
            positions: bool = True) -> list[Board]:
    """`count` boards of one order.  The puzzles themselves come from a base
    seed fixed per prefix; the run's `rng` only picks an isomorphic copy of
    each, so every seed sees the same mix of difficulty and the spread
    between seeds stays small."""
    base = random.Random(f"base/{prefix}")
    out = []
    for k in range(count):
        puzzle = delete_cells(shuffled_valid_grid(order, base),
                              base.randint(*blanks), base)
        cells = transform(puzzle, rng, positions)
        text = classic_text(cells) if as_classic else generic_text(cells)
        out.append(Board(f"{prefix}{k:03d}", text))
    return out


def enumerate_corpus(seed: int) -> list[Board]:
    """Fixed published boards first, then the seeded 9x9 boards.  The seed
    only relabels their digits: an exhaustive count tries every value at
    every branch, so its search tree (trials, passes) does not depend on
    the labels, and every seed measures the same work.  Moving rows and
    columns would change the tree, and at 48-53 blanks its size varies
    enough between copies to move the figures by more than their bounds."""
    rng = random.Random(f"enumerate/{seed}")
    fixed = [Board("blank4", blank_text(2)),
             Board("classic", CLASSIC + "\n"),
             Board("inkala", INKALA + "\n"),
             Board("hard1", HARD1 + "\n")]
    return fixed + _seeded(rng, 3, ENUMERATE_BLANKS, ENUMERATE_BOARDS, "e9-",
                           positions=False)


def first_large_corpus(seed: int) -> list[Board]:
    """Blank 16x16 (the fixed case), then seeded 16x16 and 25x25 boards,
    interleaved so that any prefix holds both orders.  The seed relabels
    digits, which changes the order values are tried in, but not positions:
    root propagation (most of the work here) depends only on positions, and
    moving them shifts the median by up to 20% between seeds."""
    rng = random.Random(f"first-large/{seed}")
    b16 = _seeded(rng, 4, FIRST_LARGE_BLANKS[4], FIRST_LARGE_16, "f16-",
                  positions=False)
    b25 = _seeded(rng, 5, FIRST_LARGE_BLANKS[5], FIRST_LARGE_25, "f25-",
                  positions=False)
    mixed = [b for k, small in enumerate(b16)
             for b in (small, b25[2 * k], b25[2 * k + 1])]
    return [Board("blank16", blank_text(4))] + mixed


def cli_corpus(seed: int) -> dict[str, list[Board]]:
    """Inputs of the cli workload, by request kind."""
    rng = random.Random(f"cli/{seed}")
    solve = _seeded(rng, 3, CLI_SOLVE_BLANKS, CLI_SOLVE_BOARDS, "c9-",
                    as_classic=True)
    check = [Board("full9", classic_text(shuffled_valid_grid(3, rng))),
             Board("full25", generic_text(shuffled_valid_grid(5, rng)))]
    return {"solve": solve,
            "count": [Board("blank4", blank_text(2))],
            "check": check,
            "tail": [Board("impossible", IMPOSSIBLE + "\n"),
                     Board("blank25", blank_text(5))]}


def digest(boards: list[Board]) -> str:
    """sha256 over the names and texts of a corpus, in order."""
    h = hashlib.sha256()
    for b in boards:
        h.update(b.name.encode() + b"\0" + b.text.encode() + b"\0")
    return h.hexdigest()
