"""Fixed-capacity sets over the universe {1..m} stored as one machine word.

Element d occupies bit d-1 of the word, so the empty set encodes as 0 and
the full universe as 2**m - 1.  Values are immutable: every operation
returns a new set, and no operation ever produces a bit at or above the
declared capacity.

This leaf module also holds _Record, the field-wise == and repr that the
package's four public classes share.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

# Emulated word width.  Capacities up to 25 (order-5 boards) must fit per
# the 32-bit minimum; we allow the full 64 bits of a wide word.
WORD_WIDTH = 64


class CapacityError(ValueError):
    """Universe size out of range, or two sets of different universes mixed."""


class ElementRangeError(ValueError):
    """Element outside the set's universe {1..capacity}."""


class ShiftRangeError(ValueError):
    """Bit index outside the word."""


def power2(k: int) -> int:
    """2**k computed by shifting a single bit left k places."""
    if not 0 <= k < WORD_WIDTH:
        raise ShiftRangeError(f"shift count {k} outside [0, {WORD_WIDTH})")
    return 1 << k


def bit_value(x: int, i: int) -> int:
    """The i-th bit of x (bit 0 is the rightmost)."""
    if not 0 <= i < WORD_WIDTH:
        raise ShiftRangeError(f"bit index {i} outside [0, {WORD_WIDTH})")
    if x < 0:
        raise ValueError("bit_value expects an unsigned word")
    if (x & (1 << i)) == 0:
        return 0
    return 1


def _check_same_capacity(a: "SmallSet", b: "SmallSet") -> None:
    if a.capacity != b.capacity:
        raise CapacityError(
            f"capacity mismatch: {a.capacity} vs {b.capacity}")


class _Record:
    """Field-wise == and a Name(field=value, ...) repr over _fields.

    _fields names the constructor's parameters, in order.  Only objects of
    the same class compare; any other operand gets NotImplemented.
    Instances are unhashable unless a subclass defines __hash__.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class SmallSet(_Record):
    """A subset of {1..capacity} packed into the bits of a nonnegative word.

    Immutable: assigning or deleting an attribute raises AttributeError.
    Two sets are == when both fields are; equal sets hash alike.
    """

    __slots__ = _fields = ("bits", "capacity")

    def __init__(self, bits: int, capacity: int) -> None:
        if not 1 <= capacity <= WORD_WIDTH:
            raise CapacityError(
                f"capacity {capacity} outside [1, {WORD_WIDTH}]")
        if not 0 <= bits < (1 << capacity):
            raise ValueError(
                f"bit pattern {bits:#x} has bits outside capacity "
                f"{capacity}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "capacity", capacity)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, not through the
        # __setattr__ that refuses every write.
        return SmallSet, (self.bits, self.capacity)

    def __hash__(self) -> int:
        return hash(self._values())

    @classmethod
    def empty(cls, capacity: int) -> "SmallSet":
        return cls(0, capacity)

    @classmethod
    def full(cls, capacity: int) -> "SmallSet":
        if not 1 <= capacity <= WORD_WIDTH:
            raise CapacityError(
                f"capacity {capacity} outside [1, {WORD_WIDTH}]")
        return cls((1 << capacity) - 1, capacity)

    @classmethod
    def from_elements(cls, elements: Iterable[int], capacity: int) -> "SmallSet":
        s = cls.empty(capacity)
        for d in elements:
            s = s.insert(d)
        return s

    def _check_element(self, d: int) -> None:
        if not 1 <= d <= self.capacity:
            raise ElementRangeError(
                f"element {d} outside universe {{1..{self.capacity}}}")

    def intersect(self, other: "SmallSet") -> "SmallSet":
        """Members common to both sets (bitwise AND)."""
        _check_same_capacity(self, other)
        return SmallSet(self.bits & other.bits, self.capacity)

    def union(self, other: "SmallSet") -> "SmallSet":
        """Members of either set (bitwise OR)."""
        _check_same_capacity(self, other)
        return SmallSet(self.bits | other.bits, self.capacity)

    def difference(self, other: "SmallSet") -> "SmallSet":
        """Members of this set absent from the other."""
        _check_same_capacity(self, other)
        return SmallSet(self.bits & ~other.bits, self.capacity)

    def insert(self, d: int) -> "SmallSet":
        """The set plus element d; idempotent."""
        self._check_element(d)
        return SmallSet(self.bits | (1 << (d - 1)), self.capacity)

    def remove(self, d: int) -> "SmallSet":
        """The set minus element d; idempotent.

        Implemented as AND with the complement of d's bit.  An XOR with the
        bit would toggle instead, silently inserting an absent element, so
        it is deliberately not used here.
        """
        self._check_element(d)
        return SmallSet(self.bits & ~(1 << (d - 1)), self.capacity)

    def equals(self, other: "SmallSet") -> bool:
        """Same membership; requires equal capacities, unlike ==."""
        _check_same_capacity(self, other)
        return (self.bits ^ other.bits) == 0

    def is_subset(self, other: "SmallSet") -> bool:
        _check_same_capacity(self, other)
        return (self.bits & other.bits) == self.bits

    def contains(self, d: int) -> bool:
        self._check_element(d)
        return (self.bits & (1 << (d - 1))) != 0

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> Iterator[int]:
        """Yield members once each, ascending."""
        bits = self.bits
        d = 1
        while bits:
            if bits & 1:
                yield d
            bits >>= 1
            d += 1

    # Operator aliases mirroring the usual set algebra notation.
    __and__ = intersect
    __or__ = union
    __sub__ = difference
    __le__ = is_subset
    __contains__ = contains
    __iter__ = elements
    __len__ = cardinality

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return "{" + ",".join(str(d) for d in self.elements()) + "}"
