"""Output-sensitive sparse multiplication driver.

The core loop guesses the product sparsity by doubling a bucket budget.
For each guess it peels the product out of phase-folded buckets over a
logarithmic number of halving rounds (each round recovers most of what is
still missing, so the residual support contracts geometrically), then
fingerprints the accumulated result against the operands. The first
verified accumulation is returned; nothing unverified ever escapes.
"""

from __future__ import annotations

import math

import numpy as np

from .fingerprint import equality_test
from .locate import ISOLATION_CONSTANT, LocateReport, locate_with_report
from .primes import PrimeSamplingError
from .vectors import (SparseVector, EnvelopeError, add, check_operand,
                      embed_for_product, zero_vector)

# Round r gives its peel and its fingerprint failure budget c / r^2 each:
# 2c * sum r^-2 = c * pi^2 / 3 < 1/100 over all rounds.
OUTER_FAILURE_CONSTANT = 1.0 / 400.0

# Phase-folded bucket values must stay resolvable in float64: their total
# coefficient mass times accumulated rounding must sit far below the 0.5
# heavy-bucket threshold.
_FLOAT_MASS_LIMIT = 1 << 45


class MultiplicationFailed(RuntimeError):
    """Every outer round was exhausted without a verified product."""


def hash_and_iterate(x: SparseVector, y: SparseVector, bucket_budget: int,
                     delta: float, rng: np.random.Generator):
    """Peeling recovery of x * y at a fixed sparsity budget.

    Runs ceil(log2 B) locate rounds with halving budgets B, B/2, ...,
    accumulating recovered terms into w so later rounds only see the
    shrinking residual; stops at a round with no heavy bucket or an abort.
    With B >= 16 * l0(x * y) no round aborts and w equals x * y with
    probability at least 1 - delta; smaller budgets typically return a
    partial (often empty) w that the caller's verification rejects.

    A locate call ends at its first repetition with no heavy bucket, so
    the closing round costs one repetition. A nonzero residual of k terms
    looks quiet to a repetition with probability below
    (k - 1) * log2(N) / pi(L), pi(L) the number of primes up to the sieve
    limit (see locate_with_report); if that ends the peel, the caller's
    fingerprint rejects the incomplete w and the budget doubles: time
    lost, never a wrong product.
    Returns (w, trace), trace holding (w so far, LocateReport) per round.
    """
    if bucket_budget < 1:
        raise ValueError("bucket budget must be positive")
    rounds = max(1, math.ceil(math.log2(bucket_budget))) if bucket_budget > 1 else 1
    round_delta = delta / rounds
    w = zero_vector(x.length)
    trace: list[tuple[SparseVector, LocateReport]] = []
    for r in range(rounds):
        budget = max(1, bucket_budget >> r)
        z, report = locate_with_report(x, y, w, budget, round_delta, rng)
        w = add(w, z)
        trace.append((w, report))
        if report.aborted_rep is not None or not report.saw_heavy:
            # No heavy bucket: later rounds are no-ops. An abort leaves a
            # residual with more heavy buckets than this budget, too many
            # for the halved ones: leave w to the caller's fingerprint.
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
    of ever returning an unverified vector; the failure probability is at
    most 1/100 per call. A prime sampler that runs out of draws (below
    1e-9 per sampled prime) raises MultiplicationFailed too, with the
    sampler's message and its PrimeSamplingError as the cause.
    """
    check_operand(u, "u")
    check_operand(v, "v")
    _check_float_budget(u, v)
    x, y = embed_for_product(u, v)
    if x.is_zero or y.is_zero:
        return zero_vector(x.length)
    locate_rng, fingerprint_rng = rng.spawn(2)
    max_rounds = max(1, int(x.length - 1).bit_length()) + 2
    try:
        for r in range(1, max_rounds + 1):
            budget = ISOLATION_CONSTANT << r                 # C * 2^r
            round_delta = OUTER_FAILURE_CONSTANT / (r * r)
            w, _ = hash_and_iterate(x, y, budget, round_delta, locate_rng)
            if equality_test(x, y, w, round_delta, fingerprint_rng):
                return w
    except PrimeSamplingError as err:
        raise MultiplicationFailed(str(err)) from err
    raise MultiplicationFailed(
        f"no verified product within {max_rounds} budget doublings")
