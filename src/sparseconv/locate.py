"""Recovery of heavy residual coordinates from phase-folded buckets.

One locate call repeats the same experiment REPS times: draw a random prime
p from the dyadic range [L/2, L] of prime_range_for, fold the residual
(x * y) - w into p buckets, and read every isolated heavy bucket as a
(index, value) candidate; L = 128 B for a budget of B heavy buckets, so a
fold's transform is O(B) long whatever the dimension N. An index that
lands alone in its bucket reproduces value * w^index exactly, so the
magnitude rounds to the coefficient and the phase decodes to the index.
Candidates read in at least VOTE of the repetitions are returned; buckets
hit by collisions decode to junk that fails re-encoding, the bucket check
(an isolated index sits in bucket index mod p) or the majority filter. A
call also ends, returning zero, at its first repetition with more heavy
buckets than its budget (the residual is too large to separate) or with
none at all (the residual is almost surely zero; see locate_with_report).
A call always folds: the peel in driver.hash_and_iterate reads the product
exactly instead of calling locate wherever the folds would not pay, and
calls it only when N > 2L, so every prime drawn is below N/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import folding
from .primes import uniform_prime_below
from .vectors import SparseVector, _canonical, _empty_terms, zero_vector

ISOLATION_CONSTANT = 16          # bucket budget per residual term
HEAVY_THRESHOLD = 0.5
REPS = 5                         # repetitions of a call
VOTE = 4                         # readings a candidate needs to be kept
REENCODE_TOLERANCE = 0.1


@dataclass
class LocateReport:
    """Diagnostics for one locate call (primarily for tests)."""

    reps_run: int = 0
    aborted_rep: int | None = None   # repetition that tripped the budget cutoff
    heavy_counts: list[int] = field(default_factory=list)
    primes: list[int] = field(default_factory=list)


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
    """Turn heavy buckets mod m into validated (index, value) candidates.

    A reading survives only if it re-encodes and its index lies in its own
    bucket, so one repetition gives each index at most one reading.
    """
    mag = np.abs(vals)
    rounded = np.rint(mag)
    keep = rounded >= 1.0
    if not keep.any():
        return _empty_terms()
    ids = ids[keep]
    vals = vals[keep]
    rounded = rounded[keep]
    exponents = decode_indices(vals, n)
    negative = exponents >= n       # w^(j + N) = -w^j encodes a negative value
    index = np.where(negative, exponents - n, exponents)
    # Re-encode check: an isolated bucket must reproduce value * w^exponent.
    expected = rounded * folding._unit_root_powers(exponents, n)
    ok = (np.abs(vals - expected) <= REENCODE_TOLERANCE) & (index % m == ids)
    if not ok.any():
        return _empty_terms()
    signed = rounded[ok].astype(np.int64)
    return index[ok], np.where(negative[ok], -signed, signed)


def _prune(idx_all: np.ndarray, val_all: np.ndarray, n: int) -> SparseVector:
    """Majority filter: keep the (index, value) pairs read in at least VOTE
    repetitions. Each index has at most one reading per repetition and
    2 * VOTE > REPS, so no index keeps two values.
    """
    order = np.lexsort((val_all, idx_all))
    si = idx_all[order]
    sv = val_all[order]
    starts = np.empty(si.size, dtype=bool)
    starts[0] = True
    np.logical_or(si[1:] != si[:-1], sv[1:] != sv[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    counts = np.diff(np.append(start_pos, si.size))
    keep = start_pos[counts >= VOTE]
    return _canonical(n, si[keep], sv[keep])


def locate_with_report(x: SparseVector, y: SparseVector, w: SparseVector,
                       bucket_budget: int, rng: np.random.Generator):
    """(z, LocateReport): z estimates the residual (x * y) - w.

    A call keeps the terms read in VOTE of its REPS repetitions.
    With bucket_budget above 16 * l0(residual), z misses or misreads at
    most 5/16 of the residual unless two repetitions are bad (see
    driver.sparse_multiply).

    The call returns the zero vector at its first repetition with no heavy
    bucket, reporting reps_run up to and including it. A quiet repetition
    means the residual is zero, except with small probability: a residual
    term alone in its bucket leaves |c| >= 1 there, above HEAVY_THRESHOLD,
    so a nonzero residual looks quiet only if every one of its terms shares
    a bucket, and a one-term residual never does. Let N = x.length and p be
    uniform over the primes in [L/2, L], L = prime_range_for(bucket_budget).
    An index difference 0 < d < N has fewer than ln N / ln(L/2) prime
    factors of at least L/2, and [L/2, L] holds more than 3(L/2) /
    (5 ln(L/2)) primes (Rosser & Schoenfeld 1962, L/2 >= 20.5). So two
    fixed indices share a bucket with probability at most 10 ln N / (3L),
    and one term of a k-term residual shares its bucket with probability
    at most (k - 1) 10 ln N / (3L), below 10 ln N / 6144 < 0.03 when
    k <= bucket_budget / 16 (L = 128 bucket_budget, N <= 2^26).
    A repetition is quiet with at most that probability, and a call stops
    early with at most REPS times it. Stopping early costs time, never
    correctness: the call returns zero, no wrong term, and the caller's
    peel ends with an incomplete w, which its fingerprint rejects.
    """
    if not (x.length == y.length == w.length):
        raise ValueError("length mismatch")
    if bucket_budget < 1:
        raise ValueError("bucket budget must be positive")
    n = x.length
    report = LocateReport()
    terms = [a for v in (x, y, w) for a in (v.indices,
                                            folding.phased_coeffs(v))]
    limit = prime_range_for(bucket_budget)
    spectra = folding.bucket_spectra(limit)     # one for every repetition
    got_i: list[np.ndarray] = []
    got_v: list[np.ndarray] = []
    for rep in range(REPS):
        p = uniform_prime_below(limit, rng)
        report.primes.append(p)
        report.reps_run = rep + 1
        count, ids, vals = folding.heavy_residual_buckets(
            *terms, p, HEAVY_THRESHOLD, bucket_budget, spectra)
        report.heavy_counts.append(count)
        if count > bucket_budget:
            # Residual support overflows the budget; this call cannot
            # separate it, so give up immediately rather than vote on junk.
            report.aborted_rep = rep
            return zero_vector(n), report
        if count == 0:
            return zero_vector(n), report
        index, value = _decode_heavy(ids, vals, n, p)
        if index.size:
            got_i.append(index)
            got_v.append(value)

    if not got_i:
        return zero_vector(n), report
    z = _prune(np.concatenate(got_i), np.concatenate(got_v), n)
    return z, report
