"""Recovery of heavy residual coordinates from phase-folded buckets.

One locate call repeats the same experiment t times: draw a random prime
p from the dyadic range [L/2, L] of prime_range_for, fold the residual
(x * y) - w into p buckets, and read every isolated heavy bucket as a
(index, value) candidate; L is O(B log N) for a budget of B heavy
buckets, and so is a fold's transform. An index that lands alone in its
bucket reproduces value * w^index exactly, so the magnitude rounds to
the coefficient and the phase decodes to the index. Candidates that
persist across at least 3/4 of the repetitions are returned; buckets hit
by collisions decode to junk that fails re-encoding, the bucket check (an
isolated index sits in bucket index mod p) or the majority filter. A call
also ends, returning zero, at its first repetition with more heavy buckets
than its budget (the residual is too large to separate) or with none at
all (the residual is almost surely zero; see locate_with_report).

A fold at m = N gives every index a bucket of its own, and its transform
(length N) is no longer than a fold's at p >= N/2 (2p - 1). So a call
folds at N instead once it draws such a p, and reads the residual
exactly there, in one repetition; once L >= N it draws no prime at all.
When l0(x) * l0(y) <= L/2 it reads the residual from its pairs instead,
at no more cost than a fold, also as one repetition without a draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import folding
from .primes import uniform_prime_below
from .vectors import (SparseVector, _canonical, _empty_terms,
                      cyclic_convolve_naive, subtract, zero_vector)

ISOLATION_CONSTANT = 16          # prime range and bucket budget multiplier
HEAVY_THRESHOLD = 0.5
REENCODE_TOLERANCE = 0.1


@dataclass(frozen=True)
class LocateParams:
    """Derived knobs for one locate call."""

    bucket_budget: int
    delta: float
    reps: int
    prune_threshold: int

    @classmethod
    def for_budget(cls, bucket_budget: int, delta: float) -> "LocateParams":
        if bucket_budget < 1:
            raise ValueError("bucket budget must be positive")
        if not (0 < delta < 1):
            raise ValueError("delta must be in (0, 1)")
        reps = max(1, 5 * math.ceil(math.log2(1.0 / delta)))
        return cls(bucket_budget=bucket_budget, delta=delta, reps=reps,
                   prune_threshold=math.ceil(0.75 * reps))


@dataclass
class LocateReport:
    """Diagnostics for one locate call (primarily for tests and tuning)."""

    params: LocateParams
    reps_run: int = 0
    aborted_rep: int | None = None   # repetition that tripped the budget cutoff
    saw_heavy: bool = False
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


def prime_range_for(bucket_budget: int, dimension: int) -> int:
    """Prime range L = 2C * B * ceil(log2 N), at least 42 (L/2 >= 21)."""
    lg = max(1, int(dimension - 1).bit_length())
    return max(42, 2 * ISOLATION_CONSTANT * bucket_budget * lg)


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


def _group_candidates(idx_all: np.ndarray, val_all: np.ndarray):
    """Unique (index, value) pairs with occurrence counts.

    Fast path packs both into one int64 key so a plain value sort does the
    grouping; applicable whenever index < 2^27 (any embedded product within
    MAX_DIMENSION) and |value| < 2^35. Oversized values fall back to lexsort.
    """
    if (int(idx_all.max()) < (1 << 27)
            and int(np.abs(val_all).max()) < (1 << 35)):
        packed = np.sort((idx_all << 36) + (val_all + (1 << 35)))
        starts = np.empty(packed.size, dtype=bool)
        starts[0] = True
        np.not_equal(packed[1:], packed[:-1], out=starts[1:])
        start_pos = np.flatnonzero(starts)
        counts = np.diff(np.append(start_pos, packed.size))
        keys = packed[start_pos]
        return keys >> 36, (keys & ((1 << 36) - 1)) - (1 << 35), counts
    order = np.lexsort((val_all, idx_all))
    si = idx_all[order]
    sv = val_all[order]
    starts = np.empty(si.size, dtype=bool)
    starts[0] = True
    np.logical_or(si[1:] != si[:-1], sv[1:] != sv[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    counts = np.diff(np.append(start_pos, si.size))
    return si[start_pos], sv[start_pos], counts


def _prune(idx_all: np.ndarray, val_all: np.ndarray, n: int,
           params: LocateParams) -> SparseVector:
    """Majority filter: keep the (index, value) pairs read in at least
    prune_threshold repetitions. Each index has at most one reading per
    repetition and 2 * prune_threshold > reps, so no index keeps two values.
    """
    si, sv, counts = _group_candidates(idx_all, val_all)
    keep = counts >= params.prune_threshold
    return _canonical(n, si[keep], sv[keep])


def locate_with_report(x: SparseVector, y: SparseVector, w: SparseVector,
                       bucket_budget: int, delta: float,
                       rng: np.random.Generator):
    """locate() plus a LocateReport of per-repetition diagnostics.

    The call returns the zero vector at its first repetition with no heavy
    bucket, reporting reps_run up to and including it and leaving
    saw_heavy as the earlier repetitions set it. A quiet repetition means
    the residual is zero, except with small probability: a residual term
    alone in its bucket leaves |c| >= 1 there, above HEAVY_THRESHOLD, so a
    nonzero residual looks quiet only if every one of its terms shares a
    bucket, and a one-term residual never does. Let N = x.length and p be
    uniform over the primes in [L/2, L], L = prime_range_for(bucket_budget,
    N). An index difference 0 < d < N has fewer than ln N / ln(L/2) prime
    factors of at least L/2, none once L/2 >= N, and [L/2, L] holds more
    than 3(L/2) / (5 ln(L/2)) primes (Rosser & Schoenfeld 1962, L/2 >=
    20.5). A fold at N in place of p separates every index. So two fixed
    indices share a bucket with probability at most 10 ln N / (3L), and
    one term of a k-term residual shares its bucket with probability at
    most (k - 1) 10 ln N / (3L), below 10 ln 2 / 1536 < 0.0046 when k <=
    bucket_budget / 16 (L >= 32 bucket_budget log2 N).
    A repetition is quiet with at most that probability, and a call stops
    early with at most reps times it. Stopping early costs time, never
    correctness: the call returns zero, no wrong term, and the caller's
    peel ends with an incomplete w, which its fingerprint rejects.

    A call that reads exactly from its pairs, or at N with L >= N, reports
    one repetition and no prime; no exact reading errs.
    """
    if not (x.length == y.length == w.length):
        raise ValueError("length mismatch")
    n = x.length
    params = LocateParams.for_budget(bucket_budget, delta)
    report = LocateReport(params=params)
    limit = prime_range_for(bucket_budget, n)

    if x.l0 * y.l0 <= limit // 2:      # read from the pairs, in one repetition
        residual = subtract(cyclic_convolve_naive(x, y), w)
        report.reps_run = 1
        report.heavy_counts.append(residual.l0)
        if residual.l0 > bucket_budget:
            report.aborted_rep = 0
            return zero_vector(n), report
        report.saw_heavy = not residual.is_zero
        return residual, report

    jx, px = x.indices, folding.phased_coeffs(x)
    jy, py = y.indices, folding.phased_coeffs(y)
    jw, pw = w.indices, folding.phased_coeffs(w)
    workspace = folding.BucketWorkspace()

    got_i: list[np.ndarray] = []
    got_v: list[np.ndarray] = []
    for rep in range(params.reps):
        m = n               # exact, and no longer than a fold at p >= N/2
        if limit < n:       # else every prime in [L/2, L] is: draw none
            p = uniform_prime_below(limit, rng)
            report.primes.append(p)
            m = p if 2 * p < n else n
        report.reps_run = rep + 1
        ids, vals = folding.heavy_residual_buckets(
            jx, px, jy, py, jw, pw, m, HEAVY_THRESHOLD, workspace)
        report.heavy_counts.append(int(ids.size))
        if ids.size > bucket_budget:
            # Residual support overflows the budget; this call cannot
            # separate it, so give up immediately rather than vote on junk.
            report.aborted_rep = rep
            return zero_vector(n), report
        if ids.size == 0:
            return zero_vector(n), report
        report.saw_heavy = True
        index, value = _decode_heavy(ids, vals, n, m)
        if m == n:          # one index per bucket: the reading is exact
            return _canonical(n, index, value), report
        if index.size:
            got_i.append(index)
            got_v.append(value)

    if not got_i:
        return zero_vector(n), report
    z = _prune(np.concatenate(got_i), np.concatenate(got_v), n, params)
    return z, report


def locate(x: SparseVector, y: SparseVector, w: SparseVector,
           bucket_budget: int, delta: float,
           rng: np.random.Generator) -> SparseVector:
    """Estimate of the residual (x * y) - w, restricted to recoverable terms.

    With bucket_budget exceeding 16 * l0(residual), the returned vector
    matches the residual except on at most a 5/16 fraction of its support,
    with failure probability at most delta. Returns the zero vector as soon
    as a repetition sees more than bucket_budget heavy buckets, or none.
    """
    z, _ = locate_with_report(x, y, w, bucket_budget, delta, rng)
    return z
