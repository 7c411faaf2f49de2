from bisect import bisect_right

import pytest

from bitsudoku import sieve
from bitsudoku.sieve import BitArray, prime_text, primes_up_to

from oracles import is_prime_by_trial_division, primes_by_trial_division


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


# One trial-division list, read by prefix: it covers the edges below.
REFERENCE = primes_by_trial_division(200_001)


def _reference_up_to(n):
    return REFERENCE[:bisect_right(REFERENCE, n)]


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
                               199999, 200000, 200001])
def test_matches_trial_division_at_segment_edges(n):
    # Segments are 10**5 numbers wide: 100001 and 200001 start the second
    # and third.  Blocks are 10**4 wide, and 10001 = 73 * 137 and
    # 100001 = 11 * 9091 each end on a block that holds no prime.  The
    # range rows are the edges of 2**15-bit segments, an earlier width.
    assert primes_up_to(n) == _reference_up_to(n)


# 10**k - 1, 10**k and 10**k + 1 for k = 0..7: each new digit count, up to
# the 7- and 8-digit numbers that the trial-division edges never reach.
@pytest.mark.parametrize("n", [10**k + d for k in range(8)
                               for d in (-1, 0, 1)])
def test_prime_text_is_the_decimal_of_primes_up_to(n):
    assert "".join(prime_text(n)) == "".join(f"{p}\n" for p in primes_up_to(n))


def test_one_million():
    ps = primes_up_to(10**6)
    assert len(ps) == 78498
    assert ps[0] == 2 and ps[-1] == 999983


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
