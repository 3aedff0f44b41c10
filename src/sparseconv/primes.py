"""Prime sampling, primality testing, and a sieve.

Every prime is drawn by rejection sampling with the deterministic
Miller-Rabin test, which draws nothing from the stream: locate primes
uniformly from one dyadic range [L/2, L] (uniform_prime_below), the
fingerprint's from its own. No draw sieves; sieve_primes is kept for
tests and tooling that count primes.
"""

from __future__ import annotations

import math

import numpy as np

# Hard ceiling on sieve size; above this the sieve would not fit in memory.
SIEVE_LIMIT_CAP = 1 << 32

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


def uniform_prime_below(limit: int, rng: np.random.Generator) -> int:
    """Uniform draw from the primes in [limit // 2, limit]; limit >= 4.

    One dyadic range: it holds more than 3x / (5 ln x) primes for
    x = limit / 2 >= 20.5 (Rosser & Schoenfeld 1962), and every draw costs
    O(log limit) Miller-Rabin tests in O(1) memory.
    """
    return random_prime_in_range(limit // 2, limit, rng)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least strong pseudoprime to the bases 2, 7 and 61 (Jaeschke 1993):
# 48781 * 97561. Every prime the package draws lies below it.
_THREE_BASE_LIMIT = 4_759_123_141


def miller_rabin(n: int) -> bool:
    """Exact primality test for 0 <= n < 2^64; raises ValueError outside.

    Trial division by the primes up to 37, then the strong test on the
    bases 2, 7 and 61 below 4,759,123,141, where no odd composite is a
    strong pseudoprime to all three (Jaeschke, "On strong pseudoprimes to
    several bases", Math. Comp. 1993), and on the twelve bases 2..37
    above: no odd composite below psi_12 = 318665857834031151167461
    (about 3.18e23) is a strong pseudoprime to all of them (Sorenson &
    Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp.
    2017). A base that n divides is skipped: after the trial division
    that happens only for n = 61, a prime, which the other bases pass.
    """
    if not 0 <= n < 1 << 64:
        raise ValueError(f"miller_rabin is exact only on [0, 2^64), got {n}")
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
    for a in (2, 7, 61) if n < _THREE_BASE_LIMIT else _SMALL_PRIMES:
        if a % n == 0:
            continue
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

    The stream supplies only the candidates. Draws are capped so that
    running out of them without seeing a prime has probability below
    _REJECTION_FAILURE; running out raises.
    """
    if lo < 2 or hi < 2 * lo:
        raise ValueError("need hi >= 2 * lo >= 4")
    attempts = math.ceil(math.log(hi) * math.log(2.0 / _REJECTION_FAILURE))
    for _ in range(attempts):
        candidate = int(rng.integers(lo, hi + 1))
        if miller_rabin(candidate):
            return candidate
    raise PrimeSamplingError(
        f"no prime found in [{lo}, {hi}] after {attempts} draws")
