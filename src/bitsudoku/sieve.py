"""Prime generation by striking composites in flag bytes.

The sieve keeps only the odd numbers, flag i standing for 2i + 1, and works
through them in segments of `_SEGMENT_BITS` flags, 10**5 numbers each, so
that no value is as wide as the bound: memory is O(sqrt(n)), the primes up
to isqrt(n) that strike plus one segment.  A segment starts as one byte of
1 per odd number, and every odd prime whose square lies in or below it
strikes its odd multiples there (from p*p on) by one extended-slice
assignment of zero bytes, sliced from one zero buffer per sieve (which
saves a bytes object per strike, not the temporary copy CPython makes of
any slice source that is not a bytearray); `itertools.compress` then
filters the flags at C speed.  `primes_up_to` filters the odd numbers
themselves into one list.  `prime_text` makes the
decimal text without an int per number: a segment is ten blocks of 10**4
numbers, and each block filters one shared table of the 4-digit odd
suffixes "0001\n" .. "9999\n", joins them with the block number as the
prefix and is yielded at once.  A bound above sys.maxsize raises
OverflowError before any work.  `BitArray` is a general packed bit array
in machine words, with checked per-bit access.
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


# Odd numbers per decimal block of 10**4: block b holds 10**4*b + 1, + 3,
# ..., + 9999, which are odd-number bits 5000*b to 5000*b + 4999.
_BLOCK_BITS = 5000
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
    raises before any text."""
    for lo, flags in _odd_segments(n):
        if lo == 0:
            yield "2\n"
        suffixes = _suffixes()
        for c in range(0, len(flags), _BLOCK_BITS):
            selected = list(compress(suffixes, flags[c:c + _BLOCK_BITS]))
            if not selected:    # a join would leave a stray prefix
                continue
            block = (lo + c) // _BLOCK_BITS
            if block:
                prefix = str(block)
                yield prefix + prefix.join(selected)
            else:
                yield "".join([s.lstrip("0") for s in selected])
        del flags  # so the next segment is made with this one freed


@cache
def _suffixes() -> tuple[str, ...]:
    """The text of each odd number of a block after its block number:
    "0001\n", "0003\n", ..., "9999\n", indexed by bit within the block."""
    return tuple("%04d\n" % i for i in range(1, 2 * _BLOCK_BITS, 2))


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
    for lo in range(0, length, _SEGMENT_BITS):
        width = min(_SEGMENT_BITS, length - lo)
        flags = bytearray(b"\x01") * width
        if lo == 0:
            flags[0] = 0  # flag 0 is the number 1
        for p in odd:
            if p * p // 2 >= lo + width:
                break
            first = _first_multiple(p, lo) - lo
            flags[first::p] = zeros[:len(range(first, width, p))]
        yield lo, flags
        del flags


def _first_multiple(p: int, lo: int) -> int:
    """The first bit >= lo that p strikes: an odd multiple of p, p*p on."""
    return max(p * p // 2, lo + (p // 2 - lo) % p)
