"""Number-theory helpers: sieve, Miller-Rabin, sampling."""

import math

import numpy as np
import pytest

from sparseconv.primes import (_REJECTION_FAILURE, PrimeSamplingError,
                               miller_rabin,
                               random_prime_in_range, sieve_primes,
                               uniform_prime_below)


def reference_sieve(limit):
    """Independent pure-python sieve used only as a test oracle."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def test_sieve_small_limits():
    with pytest.raises(ValueError, match="at least 2"):
        sieve_primes(1)
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_matches_reference():
    for limit in (97, 1000, 7919, 50000):
        assert sieve_primes(limit).tolist() == reference_sieve(limit)


def test_prime_counting_at_a_million():
    # pi(10^6) recomputed by the reference sieve, not just quoted
    want = len(reference_sieve(1_000_000))
    assert want == 78498
    assert sieve_primes(1_000_000).size == want


def test_rosser_schoenfeld_dyadic_prime_count():
    # pi(2x) - pi(x) > 3x / (5 ln x) for every integer x >= 21, the count
    # behind the isolation bound of locate's [L/2, L] range; checked
    # against the sieve for every x with 2x <= 10^6
    primes = sieve_primes(1_000_000)
    x = np.arange(21, 500_001)
    count = (np.searchsorted(primes, 2 * x, side="right")
             - np.searchsorted(primes, x, side="right"))
    assert np.all(count > 3 * x / (5 * np.log(x)))


@pytest.mark.parametrize("limit", [4, 5, 42, 100, 7919, 10_000, 1 << 22,
                                   1 << 40])
def test_uniform_prime_below_draws_primes_in_dyadic_range(limit):
    rng = np.random.default_rng(limit)
    for _ in range(50):
        p = uniform_prime_below(limit, rng)
        assert limit // 2 <= p <= limit
        assert miller_rabin(p)


@pytest.mark.parametrize("limit", [-1, 0, 1, 2, 3])
def test_uniform_prime_below_rejects_limits_below_4(limit):
    with pytest.raises(ValueError):
        uniform_prime_below(limit, np.random.default_rng(0))


def test_miller_rabin_known_values():
    assert miller_rabin(2)
    assert miller_rabin(7919)
    assert not miller_rabin(0)
    assert not miller_rabin(1)
    assert not miller_rabin(4)
    assert not miller_rabin(561)  # Carmichael number
    assert not miller_rabin(7919 * 7927)


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751,
                               2152302898747, 3474749660383,
                               341550071728321])
def test_miller_rabin_rejects_strong_pseudoprime_ladder(n):
    # psi_1 .. psi_8: the least strong pseudoprimes to the first 1..8
    # prime bases
    assert not miller_rabin(n)


def test_miller_rabin_needs_base_37():
    # psi_9 = psi_10 = psi_11 passes every base 2..31, and its prime
    # factors are all above 37, so only base 37 rejects it
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211
    assert not miller_rabin(n)


def _strong_probable_prime(n, bases):
    """The strong test of odd n to each base, written out as the oracle."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_miller_rabin_rejects_the_least_pseudoprime_to_2_7_61():
    # Jaeschke's bound: below it the bases 2, 7 and 61 decide, and the
    # bound itself is a strong pseudoprime to all three
    n = 4_759_123_141
    assert n == 48781 * 97561
    assert _strong_probable_prime(n, (2, 7, 61))
    assert not miller_rabin(n)


def test_three_bases_agree_with_twelve_bases():
    # the bases 2, 7 and 61 serve below 4,759,123,141 and the twelve
    # above; both must give the twelve-base verdict across that boundary
    rng = np.random.default_rng(2024)
    for n in rng.integers(1 << 30, 1 << 34, size=20000).tolist():
        want = (all(n % p for p in TWELVE_BASES)
                and _strong_probable_prime(n, TWELVE_BASES))
        assert miller_rabin(n) == want, n


def test_miller_rabin_accepts_large_primes():
    assert miller_rabin((1 << 31) - 1)
    assert miller_rabin((1 << 61) - 1)
    assert miller_rabin((1 << 64) - 59)     # the largest prime below 2^64


def test_miller_rabin_agrees_with_sieve():
    primes = set(reference_sieve(100_000))
    for n in range(100_000):
        assert miller_rabin(n) == (n in primes), n


@pytest.mark.parametrize("n", [-1, 1 << 64, 318665857834031151167461])
def test_miller_rabin_raises_outside_its_exact_range(n):
    # the last is psi_12, the least strong pseudoprime to bases 2..37
    with pytest.raises(ValueError, match="2\\^64"):
        miller_rabin(n)


def test_uniform_prime_below_is_roughly_uniform():
    # chi-square over the 10 primes in [50, 100]; 5000 draws
    rng = np.random.default_rng(123)
    draws = np.array([uniform_prime_below(100, rng) for _ in range(5000)])
    cells = [p for p in reference_sieve(100) if p >= 50]
    values, counts = np.unique(draws, return_counts=True)
    assert values.tolist() == cells
    expected = 5000 / len(cells)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 9 dof, 99.9th percentile is ~27.9
    assert chi2 < 30


def test_random_prime_in_range_bounds_and_primality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_prime_in_range(1 << 16, 1 << 17, rng)
        assert (1 << 16) <= p < (1 << 17)
        assert miller_rabin(p)


def test_random_prime_requires_doubling_range():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        random_prime_in_range(100, 150, rng)


class EvenFirst:
    """Generator stand-in: its first `evens` draws are even, the rest come
    from a seeded numpy generator. Miller-Rabin draws nothing, so every
    call is a candidate draw."""

    def __init__(self, evens, seed=0):
        self.evens = evens
        self.calls = 0
        self.rng = np.random.default_rng(seed)

    def integers(self, low, high):
        self.calls += 1
        if self.calls <= self.evens:
            return low + low % 2
        return self.rng.integers(low, high)


def test_random_prime_failure_budget_is_finite():
    # a stream with no prime in it exhausts the capped draws and raises
    hi = 1 << 20
    want = math.ceil(math.log(hi) * math.log(2 / _REJECTION_FAILURE))
    stub = EvenFirst(evens=10 * want)
    with pytest.raises(PrimeSamplingError, match=f"after {want} draws"):
        random_prime_in_range(hi // 2, hi, stub)
    assert stub.calls == want
    assert issubclass(PrimeSamplingError, RuntimeError)


def test_random_prime_outlasts_200_even_candidates():
    # the fingerprint's range at the envelope; a cap sized from delta / 3
    # at delta = 0.01 gave up here after 147 draws
    lo, hi = 1 << 32, 1 << 33
    stub = EvenFirst(evens=200)
    p = random_prime_in_range(lo, hi, stub)
    assert lo <= p <= hi
    assert stub.calls > 200
    assert miller_rabin(p)


def test_sampling_is_deterministic_per_seed():
    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    a = [uniform_prime_below(10_000, rng_a) for _ in range(5)]
    b = [uniform_prime_below(10_000, rng_b) for _ in range(5)]
    assert a == b


def test_random_prime_draws_only_candidates():
    # the sampler returns the first prime of a replayed candidate stream
    # and leaves the stream just past it
    lo, hi = 1 << 40, 1 << 41
    rng = np.random.default_rng(21)
    p = random_prime_in_range(lo, hi, rng)
    replay = np.random.default_rng(21)
    candidate = int(replay.integers(lo, hi + 1))
    while candidate != p:
        assert not miller_rabin(candidate)
        candidate = int(replay.integers(lo, hi + 1))
    assert rng.integers(1 << 62) == replay.integers(1 << 62)
