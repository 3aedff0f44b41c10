"""Output-sensitive sparse multiplication driver.

The core loop guesses the product sparsity with a growing bucket budget.
For each guess it peels the product out of phase-folded buckets over a
logarithmic number of halving rounds (each round recovers most of what is
still missing, so the residual support contracts geometrically), then
fingerprints the accumulated result against the operands. The first
verified accumulation is returned; nothing unverified ever escapes. On
rejection the budget doubles, or jumps to the heavy count of the peel's
first locate call if larger: a lower bound on the product sparsity.
"""

from __future__ import annotations

import math

import numpy as np

from .fingerprint import equality_test
from .locate import ISOLATION_CONSTANT, LocateReport, locate_with_report
from .primes import PrimeSamplingError
from .vectors import (SparseVector, EnvelopeError, add, check_operand,
                      embed_for_product, zero_vector)

# Round r gives its fingerprint a false-accept budget c / r^2, so a wrong
# vector passes with probability below c * pi^2 / 6 over all rounds.
OUTER_FAILURE_CONSTANT = 1.0 / 400.0

# Per-call delta of every locate call in a peel: 5 repetitions, vote >= 4.
# A call that misses a term only costs time; see sparse_multiply.
LOCATE_DELTA = 0.5

# Phase-folded bucket values must stay resolvable in float64: their total
# coefficient mass times accumulated rounding must sit far below the 0.5
# heavy-bucket threshold.
_FLOAT_MASS_LIMIT = 1 << 45


class MultiplicationFailed(RuntimeError):
    """Every outer round was exhausted without a verified product."""


def hash_and_iterate(x: SparseVector, y: SparseVector, bucket_budget: int,
                     rng: np.random.Generator):
    """Peeling recovery of x * y at a fixed sparsity budget.

    Runs ceil(log2 B) locate rounds with halving budgets B, B/2, ...,
    accumulating recovered terms into w so later rounds only see the
    shrinking residual; stops at a round with no heavy bucket, an abort
    or an exact reading (no prime drawn).
    Each call runs at LOCATE_DELTA, so it may miss a term, which stays in
    the residual for a later round, or misread one, which becomes a
    residual term that a later round recovers. With B >= 16 * l0(x * y)
    no round aborts, and w equals x * y except with the probability
    bounded in sparse_multiply; smaller budgets typically return a
    partial (often empty) w. The caller's fingerprint rejects every
    inexact w, so a miss costs time, never a wrong product.

    A locate call ends at its first repetition with no heavy bucket, so
    the closing round costs one repetition; a nonzero residual looks
    quiet only if all its terms share buckets (see locate_with_report),
    which ends the peel with an incomplete w.
    Returns (w, trace), trace holding (w so far, LocateReport) per round.
    """
    if bucket_budget < 1:
        raise ValueError("bucket budget must be positive")
    rounds = max(1, math.ceil(math.log2(bucket_budget))) if bucket_budget > 1 else 1
    w = zero_vector(x.length)
    trace: list[tuple[SparseVector, LocateReport]] = []
    for r in range(rounds):
        budget = max(1, bucket_budget >> r)
        z, report = locate_with_report(x, y, w, budget, LOCATE_DELTA, rng)
        w = add(w, z)
        trace.append((w, report))
        if (report.aborted_rep is not None or not report.saw_heavy
                or not report.primes):
            # No heavy bucket or an exact reading: later rounds are no-ops.
            # An abort leaves more heavy buckets than the halved budgets
            # can take: leave w to the caller's fingerprint.
            break
    return w, trace


def _check_float_budget(u: SparseVector, v: SparseVector) -> None:
    mass_u = float(np.sum(np.abs(u.coeffs), dtype=np.float64)) if u.l0 else 0.0
    mass_v = float(np.sum(np.abs(v.coeffs), dtype=np.float64)) if v.l0 else 0.0
    if mass_u * mass_v > _FLOAT_MASS_LIMIT:
        raise EnvelopeError(
            "coefficient mass too large for the folded-bucket rounding budget")


def sparse_multiply(u: SparseVector, v: SparseVector,
                    rng: np.random.Generator) -> SparseVector:
    """Verified polynomial product of u and v over [0, 2n).

    Output-sensitive: runtime is governed by the input and product term
    counts rather than the dimension. Raises MultiplicationFailed instead
    of ever returning an unverified vector. A prime sampler that runs out
    of draws (below 1e-9 per sampled prime) raises MultiplicationFailed
    too, with the sampler's message and its PrimeSamplingError as the cause.

    A call fails, or returns a wrong vector, with probability below 1/100.
    The fingerprint accepts an exact w always and an inexact one in round
    r with probability at most c / r^2, c = OUTER_FAILURE_CONSTANT: below
    c * pi^2 / 6 < 0.0042 over all rounds. Otherwise a call fails only if
    no peel is exact. Let k = l0(x * y) and r0 the first round with
    2^r0 >= k. A rejected round r goes next to round max(r + 1, r'), r'
    the least with C * 2^r' >= h1, the heavy count at which the peel's
    first locate call aborted (0 if it did not). That call folds x * y
    itself (w = 0), where a bucket holding no product term reads zero up
    to rounding, so h1 <= k and the jump never passes r0: rounds r0 ..
    r0 + 2 all run (k < N) at budgets at least 16k, 32k and 64k, each
    keeping its fingerprint budget c / r^2.
    Let h be a call's budget over 16 * l0(residual). As in the isolation
    analysis of locate_with_report, the mean fraction of residual terms
    that share a bucket, at most (l0 - 1) 10 ln N / (3L), is below
    0.0046 / h < gamma q / h with gamma = 1/16, q = 1/8; by Markov a
    repetition is bad (more than gamma of the terms shared) with
    probability at most q / h.
    A locate call votes 4 of 5 (LOCATE_DELTA). If at most one repetition
    is bad, it leaves at most 5 gamma of the residual: 4 gamma missed terms
    (shared in a good repetition) and 2 gamma / 3 junk ones (3 good votes
    from buckets of two or more terms). It cannot stop sooner: an abort
    needs more heavy buckets than the budget, so than residual terms, and
    a quiet repetition on a nonzero residual needs every term shared
    (probability at most gamma q / h). So a call fails with probability
    at most 10 (q/h)^2 + 5 gamma q / h, and a success multiplies the next
    call's h by (1/2) / (5 gamma) = 8/5; the peel's ceil(log2 B) calls
    outnumber the successes that empty the residual. Summed, a peel
    starting at h is inexact with probability at most P(h) = (640/39)
    (q/h)^2 + (40/3) gamma q / h, P(1) < 0.361. Doubling the budget
    doubles L and so halves the sharing bound, so rounds r0 .. r0 + 2
    count as h >= 1, 2, 4. They draw independently, so all three peels
    are inexact with probability at most P(1) P(2) P(4), below
    P(1) P(1.8) P(3.2) < 0.003.
    """
    check_operand(u, "u")
    check_operand(v, "v")
    _check_float_budget(u, v)
    x, y = embed_for_product(u, v)
    if x.is_zero or y.is_zero:
        return zero_vector(x.length)
    locate_rng, fingerprint_rng = rng.spawn(2)
    max_rounds = max(1, int(x.length - 1).bit_length()) + 2
    r = 1
    try:
        while r <= max_rounds:
            budget = ISOLATION_CONSTANT << r                 # C * 2^r
            w, trace = hash_and_iterate(x, y, budget, locate_rng)
            if equality_test(x, y, w, OUTER_FAILURE_CONSTANT / (r * r),
                             fingerprint_rng):
                return w
            first = trace[0][1]
            if first.aborted_rep is not None:   # jump to C * 2^r >= heavy
                cells = -(-first.heavy_counts[-1] // ISOLATION_CONSTANT)
                r = max(r, (cells - 1).bit_length() - 1)
            r += 1
    except PrimeSamplingError as err:
        raise MultiplicationFailed(str(err)) from err
    raise MultiplicationFailed(
        f"no verified product within {max_rounds} budget doublings")
