"""Prime generation by striking composites in flag bytes.

The sieve keeps only the odd numbers, flag i standing for 2i + 1, and works
through them in segments of `_SEGMENT_BITS` flags, 10**5 numbers each, so
that no value is as wide as the bound: memory is O(sqrt(n)), the primes up
to isqrt(n) that strike, one next-multiple offset per prime, plus one
segment.  A segment starts as one byte of 1 per odd number, and every odd
prime whose square lies in or below it strikes its odd multiples there by
one extended-slice assignment of zero bytes, from the offset it kept from
the segment before (p*p in the segment that first reaches its square),
which then moves on by the count struck, as in the classic segmented
sieve.  Each strike slices one zero buffer per sieve (which saves a bytes
object per strike, not the temporary copy CPython makes of any slice
source that is not a bytearray); `itertools.compress` then filters the
flags at C speed.  `primes_up_to` filters the odd numbers themselves into
one list.  `prime_text` makes the decimal text without an int per number:
a segment is ten blocks of 10**4 numbers, each block is ten runs of 10**3,
and each run filters one shared table of the 500 3-digit odd suffixes
"001\n" .. "999\n" and joins them with the run number as the prefix; a
block's runs are joined and yielded at once.  A bound above sys.maxsize
raises OverflowError before any work.  `BitArray` is a general packed bit
array in machine words, with checked per-bit access.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import cache
from itertools import compress
from math import isqrt

from .smallset import WORD_WIDTH


class BitArray:
    """A flat sequence of bits packed into machine words.

    Bit t lives in bit (t mod w) of word t // w for word width w; bits at
    or beyond `length` do not exist.
    """

    __slots__ = ("words", "length")

    def __init__(self, length: int):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.length = length
        self.words = [0] * ((length + WORD_WIDTH - 1) // WORD_WIDTH)

    def _check(self, t: int) -> None:
        if not 0 <= t < self.length:
            raise IndexError(f"bit {t} outside [0, {self.length})")

    def get(self, t: int) -> bool:
        self._check(t)
        return (self.words[t // WORD_WIDTH] >> (t % WORD_WIDTH)) & 1 == 1

    def set(self, t: int) -> None:
        self._check(t)
        self.words[t // WORD_WIDTH] |= 1 << (t % WORD_WIDTH)

    def clear(self, t: int) -> None:
        self._check(t)
        self.words[t // WORD_WIDTH] &= ~(1 << (t % WORD_WIDTH))

    def count(self) -> int:
        return sum(w.bit_count() for w in self.words)


# Odd numbers per decimal run of 10**3: run r holds 1000*r + 1, + 3, ...,
# + 999, which are odd-number bits 500*r to 500*r + 499.
_RUN_BITS = 500
# Odd numbers per decimal block of 10**4, the text yielded at once: ten runs.
_BLOCK_BITS = 10 * _RUN_BITS
# Odd-number bits struck and yielded per step: keeps every temporary of a
# segment small, whatever the bound.  Ten whole blocks, so segment s holds
# the numbers 10**5*s + 1 to 10**5*(s + 1).
_SEGMENT_BITS = 10 * _BLOCK_BITS


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, ascending.  1 is not a prime and never appears.
    A bound above sys.maxsize raises OverflowError before any work."""
    primes = [2] if n >= 2 else []
    for lo, flags in _odd_segments(n):
        primes += compress(range(2 * lo + 1, 2 * (lo + len(flags)), 2), flags)
    return primes


def prime_text(n: int) -> Iterator[str]:
    """The primes p <= n in decimal, one per line: "2\n", then one string
    per decimal block of 10**4 numbers that holds a prime.  The bound check
    and the primes up to isqrt(n) come first, so a bound too large to sieve
    raises before any text.  A block is made of ten 10**3-number runs but
    yielded whole: the CLI writes each string at once, and a write can be
    a system call, as it is on every write when PYTHONUNBUFFERED is set."""
    for lo, flags in _odd_segments(n):
        if lo == 0:
            yield "2\n"
        suffixes = _suffixes()
        for c in range(0, len(flags), _BLOCK_BITS):
            runs = []
            for r in range(c, c + _BLOCK_BITS, _RUN_BITS):
                selected = compress(suffixes, flags[r:r + _RUN_BITS])
                run = (lo + r) // _RUN_BITS
                if run:
                    prefix = str(run)
                    text = prefix.join(selected)
                    if text:    # a join of nothing would leave a stray prefix
                        runs += prefix, text
                else:
                    runs.append("".join([s.lstrip("0") for s in selected]))
            block = "".join(runs)
            if block:
                yield block
        del flags  # so the next segment is made with this one freed


@cache
def _suffixes() -> tuple[str, ...]:
    """The text of each odd number of a run after its run number: "001\n",
    "003\n", ..., "999\n", indexed by bit within the run."""
    return tuple("%03d\n" % i for i in range(1, 2 * _RUN_BITS, 2))


def _odd_segments(n: int) -> Iterator[tuple[int, bytearray]]:
    """(lo, flags) per segment of the odd numbers 1, 3, ..., <= n: flags[i]
    is 1 when odd-number bit lo + i, the number 2(lo + i) + 1, is a prime.
    The bound check and the primes up to isqrt(n) come before the first
    segment.  A segment is dropped before the next is made, so a caller
    that drops it too holds one segment at a time."""
    if n > sys.maxsize:
        raise OverflowError(f"bound {n} is above sys.maxsize")
    if n < 2:
        return
    length = (n + 1) // 2  # the odd numbers 1, 3, ..., <= n
    odd = primes_up_to(isqrt(n))[1:]
    # Every strike copies its zeros from this one buffer, as long as the
    # widest strike (p = 3 over a whole segment) needs.
    zeros = memoryview(bytes(len(range(0, min(_SEGMENT_BITS, length), 3))))
    # offsets[i]: the next bit odd[i] strikes, counted from the start of the
    # current segment; a prime joins when a segment first reaches its square.
    offsets: list[int] = []
    for lo in range(0, length, _SEGMENT_BITS):
        width = min(_SEGMENT_BITS, length - lo)
        flags = bytearray(b"\x01") * width
        if lo == 0:
            flags[0] = 0  # flag 0 is the number 1
        k = len(offsets)
        while k < len(odd) and odd[k] * odd[k] // 2 < lo + width:
            offsets.append(odd[k] * odd[k] // 2 - lo)
            k += 1
        # zip stops at the primes that joined; a stride wider than the
        # segment strikes nothing and carries over.
        for i, (p, first) in enumerate(zip(odd, offsets)):
            count = len(range(first, width, p))
            flags[first::p] = zeros[:count]
            offsets[i] = first + count * p - width
        yield lo, flags
        del flags
