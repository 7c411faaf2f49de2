import tracemalloc
from bisect import bisect_right

import pytest

from bitsudoku import sieve
from bitsudoku.sieve import BitArray, prime_text, primes_up_to

from oracles import (is_prime_by_trial_division, primes_by_plain_sieve,
                     primes_by_trial_division)


def test_one_is_not_a_prime():
    assert primes_up_to(1) == []
    assert 1 not in primes_up_to(100)


def test_small_bounds():
    assert primes_up_to(0) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_matches_trial_division_up_to_10000():
    assert primes_up_to(10_000) == primes_by_trial_division(10_000)


def test_prefix_consistency():
    reference = primes_up_to(300)
    for n in range(0, 301):
        assert primes_up_to(n) == [p for p in reference if p <= n]


def test_output_is_strictly_increasing_and_above_one():
    ps = primes_up_to(5000)
    assert all(a < b for a, b in zip(ps, ps[1:]))
    assert all(p > 1 for p in ps)
    assert all(is_prime_by_trial_division(p) for p in ps[:100])


# One trial-division list, read by prefix: it covers the edges below
# TRIAL_BOUND.  The plain sieve, checked against it, covers those above.
TRIAL_BOUND = 200_001
REFERENCE = primes_by_trial_division(TRIAL_BOUND)
PLAIN = primes_by_plain_sieve(10**6 + 1)


def _reference_up_to(n):
    reference = REFERENCE if n <= TRIAL_BOUND else PLAIN
    return reference[:bisect_right(reference, n)]


def test_plain_sieve_matches_trial_division():
    for n in range(0, 101):
        assert primes_by_plain_sieve(n) == _reference_up_to(n)
    assert PLAIN[:len(REFERENCE)] == REFERENCE
    assert PLAIN[len(REFERENCE)] > TRIAL_BOUND


def test_matches_trial_division_for_every_small_bound():
    for n in range(0, 2001):
        assert primes_up_to(n) == _reference_up_to(n), n


def test_matches_trial_division_around_prime_squares():
    # p*p is the first multiple an odd prime strikes, at bit p*p // 2.
    for p in _reference_up_to(300):
        for n in (p * p - 1, p * p, p * p + 1):
            assert primes_up_to(n) == _reference_up_to(n), n


@pytest.mark.parametrize("n", [*range(65533, 65539), *range(131069, 131075),
                               9999, 10000, 10001, 99999, 100000, 100001,
                               199999, 200000, 200001,
                               *(10**5 * s + d for s in range(3, 11)
                                 for d in (0, 1))])
def test_matches_trial_division_at_segment_edges(n):
    # Segments are 10**5 numbers wide: 10**5*s + 1 starts segment s + 1,
    # so 100001 and 200001 start the second and third, and 10**6 + 1 the
    # eleventh; the rows past TRIAL_BOUND read the plain sieve.  Blocks
    # are 10**4 wide, and 10001 = 73 * 137 and 100001 = 11 * 9091 each end
    # on a block that holds no prime.  The range rows are the edges of
    # 2**15-bit segments, an earlier width.
    assert primes_up_to(n) == _reference_up_to(n)


# 10**k - 1, 10**k and 10**k + 1 for k = 0..7: each new digit count, up to
# the 7- and 8-digit numbers that the trial-division edges never reach.
@pytest.mark.parametrize("n", [10**k + d for k in range(8)
                               for d in (-1, 0, 1)])
def test_prime_text_is_the_decimal_of_primes_up_to(n):
    assert "".join(prime_text(n)) == "".join(f"{p}\n" for p in primes_up_to(n))


# "2\n", then one string per decimal block of 10**4 numbers that holds an
# odd prime: 10**5 gives eleven, and 10006 ends on a block (10001 to
# 10006) that holds none and yields nothing.  A block, not a 10**3-number
# run, is one string because `sieve N` writes each string at once and a
# write can be a system call: under PYTHONUNBUFFERED=1 every write is one.
@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 2), (10**4, 2),
                                      (10006, 2), (10007, 3), (10**5, 11),
                                      (10**6 + 1, 101)])
def test_prime_text_yields_one_string_per_block_with_a_prime(n, count):
    texts = list(prime_text(n))
    assert len(texts) == count
    assert texts[:1] == ["2\n"][:count]
    for text in texts[1:]:
        assert len({int(p) // 10**4 for p in text.split()}) == 1, text


# Draining the text holds one segment's flags, one block's text, the zero
# buffer the strikes copy from and one offset per base prime: about 125 KB
# on CPython 3.11 with the suffix table already built, and about 155 KB
# when the draining builds it too, as each `sieve N` process does.  The
# bound leaves room for other versions and fails text joined per segment,
# which peaks near 285 KB, or a table of 5,000 4-digit suffixes built in
# the draining, which peaks near 420 KB.
@pytest.mark.parametrize("table", ["warm", "cold"])
def test_prime_text_peak_memory_is_one_block_of_text(table):
    if table == "warm":
        sieve._suffixes()
    else:
        sieve._suffixes.cache_clear()
    tracemalloc.start()
    try:
        for _ in prime_text(10**7):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


# At these widths a prime's stride can pass a whole segment, so a segment
# can hold no multiple of a prime that has joined, and its offset must
# carry over; at the real width of 50,000 flags that needs p > 50,000,
# so a bound above 2.5e9.
@pytest.mark.parametrize("width", [2, 7, 64])
def test_narrow_segments_match_the_plain_sieve(width, monkeypatch):
    monkeypatch.setattr(sieve, "_SEGMENT_BITS", width)
    for n in (*range(0, 130), 9973, 10007, 19997, 20011):
        assert primes_up_to(n) == primes_by_plain_sieve(n), (width, n)


def test_one_million():
    ps = primes_up_to(10**6)
    assert len(ps) == 78498
    assert ps[0] == 2 and ps[-1] == 999983


def test_matches_plain_sieve_at_ten_million():
    # 100 segments: each small prime starts striking at many phases.
    assert primes_up_to(10**7) == primes_by_plain_sieve(10**7)


# Each bound is above sys.maxsize (2**63 - 1 on 64-bit builds), so the
# bound check refuses it with OverflowError before any work, and before
# the sieve of its square root (about 3e9, which runs for hours) starts.
# The recursive call reads the module's name, so the stand-in fails the
# test if that sieve is ever started.
@pytest.mark.parametrize("n", [10**19, 10**21])
def test_bound_too_large_to_allocate_raises(n, monkeypatch):
    def no_recursion(m):
        raise AssertionError(f"sieved {m} before the bound check")

    monkeypatch.setattr(sieve, "primes_up_to", no_recursion)
    with pytest.raises(OverflowError):
        primes_up_to(n)


# -- BitArray ------------------------------------------------------------------

def test_bitarray_set_get_clear():
    ba = BitArray(130)  # spans three 64-bit words
    assert not ba.get(0) and not ba.get(129)
    ba.set(0)
    ba.set(64)
    ba.set(129)
    assert ba.get(0) and ba.get(64) and ba.get(129)
    assert ba.count() == 3
    ba.clear(64)
    assert not ba.get(64)
    assert ba.count() == 2


def test_bitarray_bounds():
    ba = BitArray(8)
    with pytest.raises(IndexError):
        ba.get(8)
    with pytest.raises(IndexError):
        ba.set(-1)
    with pytest.raises(ValueError):
        BitArray(-1)


def test_bitarray_zero_length():
    ba = BitArray(0)
    assert ba.words == []
    with pytest.raises(IndexError):
        ba.get(0)
