"""Prime generation by striking composites in packed bits.

`prime_segments` keeps only the odd numbers, as the bits of one Python int:
bit i stands for 2i + 1.  Each odd prime p strikes all of its odd
multiples from p*p on with one OR of a periodic tile (bits 0, p, 2p, ...),
built by doubling in O(log(n/p)) word-parallel operations.  The survivors
are read back and yielded in fixed segments, each turned into a string of
flag bytes that `itertools.compress` filters at C speed; `primes_up_to`
joins them into one list.  `BitArray` is a general packed bit array in
machine words, with checked per-bit access.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress
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


# Bits read back per extraction step: keeps the temporary strings small.
_SEGMENT_BITS = 1 << 15
# Reversed binary digits to flags: an unstruck bit ('0') marks a prime.
_PRIME_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, ascending.  1 is not a prime and never appears."""
    return list(chain.from_iterable(prime_segments(n)))


def prime_segments(n: int) -> Iterator[list[int]]:
    """The primes p <= n: [2], then one list per segment, ascending.  All
    the striking comes first, so a too-large bound raises before any list."""
    if n < 2:
        return
    length = (n + 1) // 2  # the odd numbers 1, 3, ..., <= n
    # The top bit (past the last number) gives `struck` its full width at
    # once, so a bound too large to allocate fails here, before recursing.
    struck = (1 << length) | 1
    for p in primes_up_to(isqrt(n))[1:]:
        start = p * p // 2
        span = length - start
        tile, width = 1, p
        while width < span:
            tile |= tile << width
            width <<= 1
        struck |= (tile & ((1 << span) - 1)) << start
    data = struck.to_bytes(length // 8 + 1, "little")
    del struck
    yield [2]
    for lo in range(0, length, _SEGMENT_BITS):
        chunk = data[lo // 8:(lo + _SEGMENT_BITS) // 8]
        # A sentinel bit above the chunk fixes the digit count; [:0:-1]
        # drops it and puts bit 0 first.  compress stops at the end of the
        # chunk or at n, whichever comes first.
        bits = int.from_bytes(chunk, "little") | 1 << 8 * len(chunk)
        flags = format(bits, "b")[:0:-1].encode().translate(_PRIME_FLAGS)
        yield list(compress(range(2 * lo + 1, n + 1, 2), flags))
