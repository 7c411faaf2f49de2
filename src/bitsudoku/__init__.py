"""Bitset-backed Sudoku engine for n²×n² boards, with a prime sieve."""

from .grid import (
    Grid,
    IncompleteGridError,
    PuzzleFormatError,
    first_conflict,
    is_sudoku_matrix,
    parse,
    render,
)
from .sieve import BitArray, primes_up_to
from .smallset import (
    WORD_WIDTH,
    CapacityError,
    ElementRangeError,
    ShiftRangeError,
    SmallSet,
    bit_value,
    power2,
)
from .solver import (
    FEWEST_CANDIDATES,
    FIRST_BLANK,
    ConflictError,
    Event,
    SolveReport,
    SolverState,
    assign,
    candidates,
    init_state,
    propagate,
    solve,
)

__all__ = [
    "BitArray",
    "CapacityError",
    "ConflictError",
    "ElementRangeError",
    "Event",
    "FEWEST_CANDIDATES",
    "FIRST_BLANK",
    "Grid",
    "IncompleteGridError",
    "PuzzleFormatError",
    "ShiftRangeError",
    "SmallSet",
    "SolveReport",
    "SolverState",
    "WORD_WIDTH",
    "assign",
    "bit_value",
    "candidates",
    "first_conflict",
    "init_state",
    "is_sudoku_matrix",
    "parse",
    "power2",
    "primes_up_to",
    "propagate",
    "render",
    "solve",
]
