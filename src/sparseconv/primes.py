"""Prime sieving, sampling, and primality testing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MILLER_RABIN_ROUNDS = 50

# Hard ceiling on sieve size; above this the pool would not fit in memory.
SIEVE_LIMIT_CAP = 1 << 32

# Largest limit served by an actual sieve. Uniform sampling above this
# switches to rejection with Miller-Rabin, which draws from exactly the
# same distribution (uniform over the primes <= limit) in O(1) memory.
SAMPLING_SIEVE_MAX = 1 << 28

# Chance that one call of the rejection sampler runs out of draws and
# raises; vanishing against any delta the callers track.
_REJECTION_FAILURE = 1e-9


class PrimeSamplingError(RuntimeError):
    """Retry budget for rejection-sampling a prime was exhausted."""


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending. Sieves over the odd numbers only."""
    if limit > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit < 3:
        return np.array([2], dtype=np.int64)
    half = (limit - 1) // 2            # slot i holds the odd number 2i + 3
    composite = np.zeros(half, dtype=bool)
    for i in range(int(math.isqrt(limit)) // 2 + 1):
        if not composite[i]:
            p = 2 * i + 3
            first = (p * p - 3) // 2
            composite[first::p] = True
    odds = 2 * np.flatnonzero(~composite).astype(np.int64) + 3
    return np.concatenate([np.array([2], dtype=np.int64), odds])


@dataclass(frozen=True)
class PrimePool:
    """Immutable ascending array of all primes <= limit."""

    limit: int
    primes: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimePool":
        return cls(limit, sieve_primes(limit))

    def __len__(self) -> int:
        return int(self.primes.size)

    def up_to(self, limit: int) -> "PrimePool":
        """Cheap restricted view of the pool (no re-sieve)."""
        if limit > self.limit:
            raise ValueError(f"pool only covers primes <= {self.limit}")
        cut = int(np.searchsorted(self.primes, limit, side="right"))
        return PrimePool(limit, self.primes[:cut])


_shared_pool: PrimePool | None = None


def shared_pool(limit: int) -> PrimePool:
    """Process-wide pool cache, extended monotonically as limits grow."""
    global _shared_pool
    if _shared_pool is None or _shared_pool.limit < limit:
        _shared_pool = PrimePool.build(limit)
    return _shared_pool.up_to(limit)


def sample_prime_uniform(pool: PrimePool, rng: np.random.Generator) -> int:
    """Uniform draw from the pool."""
    if len(pool) == 0:
        raise ValueError("pool is empty")
    return int(pool.primes[int(rng.integers(len(pool)))])


def uniform_prime_below(limit: int, rng: np.random.Generator) -> int:
    """Uniform draw from the primes <= limit.

    Small limits are served from the shared sieved pool. Past
    SAMPLING_SIEVE_MAX the sieve would not pay for itself, so the draw
    becomes rejection sampling over [2, limit] with Miller-Rabin; a uniform
    integer conditioned on being prime is uniform over the same prime set,
    so the two branches sample the same distribution.
    """
    if limit < 2:
        raise ValueError("no primes below 2")
    if limit <= SAMPLING_SIEVE_MAX:
        return sample_prime_uniform(shared_pool(limit), rng)
    return random_prime_in_range(2, limit, rng)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def miller_rabin(n: int, rng: np.random.Generator,
                 rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Probabilistic primality test; False is always correct.

    Composite n survives one random base with probability <= 1/4, so the
    error after `rounds` independent bases is <= 4**-rounds.
    """
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:       # n - 1 = d * 2**s with d odd
        d //= 2
        s += 1
    for _ in range(rounds):
        a = int(rng.integers(2, n - 1))
        x = pow(a, d, n)      # builtin pow: C-level square-and-multiply
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_in_range(lo: int, hi: int, rng: np.random.Generator) -> int:
    """Uniform prime from [lo, hi] by rejection sampling.

    Draws are capped so that running out of them without seeing a prime
    has probability below _REJECTION_FAILURE; running out raises.
    """
    if lo < 2 or hi < 2 * lo:
        raise ValueError("need hi >= 2 * lo >= 4")
    attempts = math.ceil(math.log(hi) * math.log(2.0 / _REJECTION_FAILURE))
    for _ in range(attempts):
        candidate = int(rng.integers(lo, hi + 1))
        if miller_rabin(candidate, rng):
            return candidate
    raise PrimeSamplingError(
        f"no prime found in [{lo}, {hi}] after {attempts} draws")
