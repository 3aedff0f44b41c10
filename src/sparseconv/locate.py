"""Recovery of heavy residual coordinates from one phase-twisted fold.

A locate call draws one random prime p from the dyadic range [L/2, L]
of prime_range_for, folds the residual (x * y) - w into p buckets, and
reads every heavy bucket as an (index, value) candidate; L = 128 B for a
budget of B heavy buckets, so the fold's transform is O(B) long whatever
the dimension N. An index that lands alone in its bucket reproduces
value * w^index exactly, so the magnitude rounds to the coefficient and
the phase decodes to the index. A bucket hit by a collision decodes to
junk, which one rule mostly drops: an isolated index sits in bucket
index mod p, and junk decodes into its own bucket only by chance, with
probability about 1/p. What gets through, like a missed term, stays in
the residual for the peel's next call. A peel returns only a w that a
fingerprint accepted, so one that ends with such a term returns no
product, and no fingerprint runs on a w left by a round that dropped a
reading. The fold returns every heavy bucket; locate_with_report alone
decides an abort, and returns zero when there are more heavy buckets
than its budget (the residual is too large to separate) or none at all
(the residual is almost surely zero).
A call always folds: the peel in driver.hash_and_iterate reads the product
exactly instead of calling locate wherever the folds would not pay, and
calls it only when N > 2L, so every prime drawn is below N/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import folding
from .primes import uniform_prime_below
from .vectors import SparseVector, zero_vector

ISOLATION_CONSTANT = 16          # bucket budget per residual term
HEAVY_THRESHOLD = 0.5


@dataclass
class LocateReport:
    """One locate call's record, read by the driver and perfbench's tracer."""

    aborted_rep: int | None = None   # 0 when the fold tripped the budget
    heavy_counts: list[int] = field(default_factory=list)
    primes: list[int] = field(default_factory=list)

    @property
    def reps_run(self) -> int:
        """Folds run: one per prime drawn."""
        return len(self.primes)


def decode_indices(values: np.ndarray, half_order: int) -> np.ndarray:
    """Exponent j in [0, 2N) whose root w^j is nearest to each reading.

    The nearest root in chord distance is the nearest in phase, so this is
    a rounded phase measurement: exact for any reading within half the
    root spacing pi / N of a root, whatever its magnitude.
    """
    n = half_order
    theta = np.arctan2(values.imag, values.real)
    theta = np.where(theta < 0, theta + 2 * np.pi, theta)
    j = np.floor(theta * (n / np.pi) + 0.5).astype(np.int64)
    j[j >= 2 * n] -= 2 * n
    return j


def prime_range_for(bucket_budget: int) -> int:
    """Prime range L = 8C * B = 128 B: at least 128, so L/2 >= 20.5 as the
    prime count bound in locate_with_report needs."""
    return 8 * ISOLATION_CONSTANT * bucket_budget


def _decode_heavy(ids: np.ndarray, vals: np.ndarray, n: int, m: int):
    """Turn heavy buckets mod m into (index, value) candidates.

    One rule: a reading is kept iff its magnitude rounds to at least 1 and
    its decoded index lies in its own bucket (index mod m). Bucket ids are
    distinct and the index mod m is the bucket, so a fold gives each
    bucket and each index at most one reading, and every value is nonzero.
    """
    rounded = np.rint(np.abs(vals))
    exponents = decode_indices(vals, n)
    negative = exponents >= n       # w^(j + N) = -w^j encodes a negative value
    index = np.where(negative, exponents - n, exponents)
    ok = (rounded >= 1.0) & (index % m == ids)
    signed = rounded[ok].astype(np.int64)
    return index[ok], np.where(negative[ok], -signed, signed)


def locate_with_report(x: SparseVector, y: SparseVector, w: SparseVector,
                       bucket_budget: int, rng: np.random.Generator):
    """(z, LocateReport): z estimates the residual (x * y) - w from one fold.

    With bucket_budget at least 16 * l0(residual), z misses or misreads at
    most 3/32 of the residual unless the fold is bad (see
    driver.sparse_multiply); the peel's next call sees the rest.

    The call returns the zero vector when its fold has no heavy bucket. A
    quiet fold means the residual is zero, except with small probability:
    a residual term alone in its bucket leaves |c| >= 1 there, above
    HEAVY_THRESHOLD, so a nonzero residual looks quiet only if every one
    of its terms shares a bucket, and a one-term residual never does. Let
    N = x.length and p be uniform over the primes in [L/2, L], L =
    prime_range_for(bucket_budget). An index difference 0 < d < N has
    fewer than ln N / ln(L/2) prime factors of at least L/2, and [L/2, L]
    holds more than 3(L/2) / (5 ln(L/2)) primes (Rosser & Schoenfeld 1962,
    L/2 >= 20.5). So two fixed indices share a bucket with probability at
    most 10 ln N / (3L), and one term of a k-term residual shares its
    bucket with probability at most (k - 1) 10 ln N / (3L), below
    10 ln N / 6144 < 0.03 when k <= bucket_budget / 16 (L = 128
    bucket_budget, N <= 2^26). A quiet fold on a nonzero residual costs
    time, never correctness: the call returns zero, no wrong term, and the
    caller's peel stops there with an incomplete w and returns no product;
    the quiet fold runs no fingerprint.

    It checks nothing: its one caller, driver.hash_and_iterate, passes the
    operands embed_for_product checked, a w of their length and a
    positive budget.
    """
    n = x.length
    p = uniform_prime_below(prime_range_for(bucket_budget), rng)
    ids, vals = folding.heavy_residual_buckets(x, y, w, p, HEAVY_THRESHOLD)
    aborted = ids.size > bucket_budget
    report = LocateReport(aborted_rep=0 if aborted else None,
                          heavy_counts=[ids.size], primes=[p])
    if ids.size == 0 or aborted:
        # A quiet fold, or a residual whose support overflows the budget,
        # which this fold cannot separate: read nothing rather than junk.
        return zero_vector(n), report
    index, value = _decode_heavy(ids, vals, n, p)
    order = np.argsort(index)
    return SparseVector(n, index[order], value[order]), report
