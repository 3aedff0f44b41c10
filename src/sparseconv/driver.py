"""Output-sensitive sparse multiplication driver.

The core loop guesses the product sparsity with a growing bucket budget.
For each guess it reads the product exactly when the budget covers its
term pairs or a dense transform at N, and otherwise peels the product out
of phase-folded buckets over a logarithmic number of halving rounds (each
round recovers most of what is still missing, so the residual support
contracts geometrically). A reading from the term pairs is integer-exact,
one from the dense transform at N checked; either is returned as it is.
The peel fingerprints its w against the operands after every round that
kept all it read, and stops at the first that verifies, so a peel that
recovers the product in one round pays for no confirming fold. A round
that drops a heavy reading leaves w inexact, so no other w is
fingerprinted. A peel returns a proven or verified product, or None:
nothing unproven and unverified ever escapes. When a peel returns None
the budget doubles, or jumps to the heavy count at which the peel's
first locate call aborted if larger: a lower bound on the product
sparsity.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fingerprint import equality_test
from .locate import ISOLATION_CONSTANT, locate_with_report
from .primes import PrimeSamplingError
from .vectors import (SparseVector, EnvelopeError, _pair_product,
                      _rounded_fft_product, add, embed_for_product,
                      zero_vector)

# Round r gives its fingerprint a false-accept budget c / r^2, so a wrong
# vector passes with probability below c * pi^2 / 6 over all rounds.
OUTER_FAILURE_CONSTANT = 1.0 / 400.0

# Phase-folded bucket values must stay resolvable in float64: their total
# coefficient mass times accumulated rounding must sit far below the 0.5
# heavy-bucket threshold.
_FLOAT_MASS_LIMIT = 1 << 45


class MultiplicationFailed(RuntimeError):
    """Every outer round was exhausted without a verified product."""


def exact_read_limit(bucket_budget: int, dimension: int) -> int:
    """E = C * B * ceil(log2 N): a peel reads the term pairs when they number
    at most E, and the dense real product at N when 4E >= N."""
    lg = max(1, int(dimension - 1).bit_length())
    return ISOLATION_CONSTANT * bucket_budget * lg


def hash_and_iterate(x: SparseVector, y: SparseVector, bucket_budget: int,
                     rng: np.random.Generator,
                     verify_rng: np.random.Generator,
                     delta: float) -> tuple[SparseVector | None, int]:
    """Peeling recovery of x * y at a fixed sparsity budget, verified as it
    goes.

    First it decides whether to read the product exactly instead, with
    E = exact_read_limit(B, N): from the term pairs (the structural
    enumeration of Arnold & Roche) when l0(x) * l0(y) <= E, or from the
    dense real product when 4E >= N, where one real transform of length
    at most N costs about what the folds would. An exact reading calls no
    locate, draws nothing from rng and is kept whatever its size. The pair
    reading is integer-exact under the int64 envelope, and the dense one
    is proven when _rounded_fft_product finds it exact (see
    sparse_multiply); a dense reading that is not is fingerprinted.
    Otherwise N > 4E >= 2L, L = locate.prime_range_for(B), so every prime
    a locate call draws is below N/2.

    The peel runs up to ceil(log2 B) locate rounds with halving budgets
    B, B/2, ..., accumulating recovered terms into w so later rounds only
    see the shrinking residual. After a round that did not abort, saw a
    heavy bucket and kept every heavy reading, it fingerprints w, and
    stops if the fingerprint accepts. Otherwise it stops at a round whose
    fold sees no heavy bucket, at an abort, or after the last round, with
    no product: its last w was rejected, or came from a round that
    dropped a heavy reading and so is inexact. Each call folds once, so
    it may miss a term, which stays in the residual for a later round, or
    misread one, which becomes a residual term that a later round
    recovers. With B >= 16 * l0(x * y) no round aborts, and w equals
    x * y except with the probability bounded in sparse_multiply; smaller
    budgets typically end with a partial (often empty) w. A nonzero
    residual looks quiet only if all its terms share buckets (see
    locate_with_report), which ends the peel with an incomplete w.

    The j-th fingerprint (j = 0, 1, ...) draws from verify_rng with
    false-accept budget delta / 2^(j+1); those sum to less than delta.
    An empty w is never fingerprinted: x and y are nonzero, so it is
    never their product. Returns (product, floor). product is the pair
    reading, an exact dense one, or a w that a fingerprint accepted, and
    None otherwise. floor is the heavy-bucket count at which the peel's
    first locate call aborted, and 0 otherwise; that call folds x * y
    itself, so floor <= l0(x * y) (see sparse_multiply).
    It checks nothing: its one caller, sparse_multiply, passes nonzero
    operands that embed_for_product checked and a positive budget.
    """
    deltas = (delta / 2 ** j for j in itertools.count(1))

    def verified(w: SparseVector) -> bool:
        return not w.is_zero and equality_test(x, y, w, next(deltas),
                                               verify_rng)

    exact = exact_read_limit(bucket_budget, x.length)
    if x.l0 * y.l0 <= exact:
        return _pair_product(x, y), 0
    if 4 * exact >= x.length:
        w, proven = _rounded_fft_product(x, y)
        return (w if proven or verified(w) else None), 0
    w = zero_vector(x.length)
    for r in range(max(1, (bucket_budget - 1).bit_length())):
        z, report = locate_with_report(x, y, w, bucket_budget >> r, rng)
        heavy = report.heavy_counts[0]
        if report.aborted_rep is not None or heavy == 0:
            # A quiet fold: later rounds are no-ops. An abort leaves more
            # heavy buckets than the halved budgets can take. Either way z
            # is zero, and only a first call's heavy count is a floor.
            return None, (heavy if r == 0 else 0)
        w = add(w, z)
        # Every heavy bucket read as one term: w may be complete.
        if z.l0 == heavy and verified(w):
            return w, 0
    return None, 0


def _check_float_budget(u: SparseVector, v: SparseVector) -> None:
    mass_u = float(np.sum(np.abs(u.coeffs), dtype=np.float64))
    mass_v = float(np.sum(np.abs(v.coeffs), dtype=np.float64))
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
    A pair reading (see hash_and_iterate) is returned unfingerprinted:
    embed_for_product has checked that both operands are canonical int64
    vectors inside the envelope, which keeps its int64 sums exact
    (MAX_TERMS * MAX_COEFF_ABS^2 <= 2^60), so it adds no failure term and
    the bound below is unchanged. So is a dense reading at N that
    _rounded_fft_product finds exact: its bound 16 * 2^-53 * lg * ||x||_2
    ||y||_2 (lg = ceil(log2 N)) and its residues are below 0.25. As
    ||x||_2^2 <= max|c| ||x||_1, the envelope gives ||x||_2 ||y||_2 <=
    2^20 * 2^22.5, so the bound is at most lg * 2^-6.5 < 0.25 for N <=
    2^22; at N > 2^22 it fails only within 13% of that (0.87 * 2^42.5 at
    N = 2^26). In that gap the reading is fingerprinted like a peel.
    A peel whose first call aborts or folds quietly returns no product,
    and no fingerprint runs: its w is empty, and at N = 2n the cyclic
    product is the polynomial product, which over Z is nonzero for two
    nonzero polynomials.
    The peel of round r gives its j-th fingerprint the false-accept budget
    c / (r^2 2^(j+1)), c = OUTER_FAILURE_CONSTANT. A fingerprint accepts
    an exact w always, and the checks of round r together accept an
    inexact one with probability below sum_j c / (r^2 2^(j+1)) = c / r^2:
    below c * pi^2 / 6 < 0.0042 over all rounds, as with one check per
    round at c / r^2. (Halving a budget adds at most a quarter of a point
    to eval_rounds before rounding up, since a point gives at least 4
    bits.) A peel stops before its quiet fold or last round only on an
    accepted w, so, outside that false accept, only on an exact w; there
    the residual is zero, every later fold would be quiet, and the full
    peel would have ended with the same w. A round that drops a heavy
    reading leaves w inexact: fold rounding error stays far below the 0.5
    threshold (_FLOAT_MASS_LIMIT keeps it so), so that bucket holds a
    residual term, which the round's kept readings, all in other buckets,
    and later rounds that read nothing leave in place. So a peel ends
    exact only after a round that read every heavy bucket, whose
    fingerprint accepts it, and the analysis below, which bounds the
    chance that a full peel ends inexact, holds unchanged; otherwise a
    call fails only if no peel is exact. Were the float premise to fail,
    an exact w left unfingerprinted would only move the product to the
    next budget, never return a wrong vector.
    Let k = l0(x * y) and r0 the first round with 2^r0 >= k. A rejected
    round r goes next to round max(r + 1, r'), r' the least with
    C * 2^r' >= h1, the heavy count at which the peel's first locate call
    aborted (0 if it did not). That call folds x * y itself (w = 0), where
    a bucket holding no product term reads zero up to rounding, so h1 <= k
    and the jump never passes r0: from r0 on, rounds run one after another
    at budgets at least 16k 2^(r - r0). A round reads the product exactly,
    and passes, once 4 E >= N (E = exact_read_limit(C * 2^r, N)),
    at the latest at round max(1, ceil(log2 N) - 10), below max_rounds.
    Let h be a call's budget over 16 * l0(residual). As in the isolation
    analysis of locate_with_report, the mean fraction of residual terms
    that share a bucket, at most (l0 - 1) 10 ln N / (3L) with L = 128 B,
    is below (10 ln N / 6144) / h = gamma q / h' with gamma = 1/16,
    q = 1/8 and h' = h / c, c = 5 ln N / 24 < 4 for N <= 2^26; by Markov a
    fold is bad (more than gamma of the terms shared) with probability at
    most q / h'.
    A locate call folds once. A good fold leaves at most 3 gamma / 2 of
    the residual: gamma missed terms (shared) and gamma / 2 junk ones (a
    bucket gives at most one reading, and a shared one holds at least two
    terms). It cannot stop sooner: an abort needs more heavy buckets than
    the budget, so than residual terms, and a quiet fold on a nonzero
    residual needs every term shared, which makes it bad. So a call fails
    with probability at most q / h', and a success multiplies the next
    call's h' by (1/2) / (3 gamma / 2) = 16/3; the peel's ceil(log2 B)
    calls outnumber the successes that empty the residual. Summed, a peel
    starting at h' is inexact with probability at most P(h') = (q / h') /
    (1 - 3/16) = (16/13) q / h', P(1) = 2/13. Doubling the budget doubles
    L and so halves the sharing bound: round r0 + j has h' >= 2^j / c >
    2^(j - 2), so the ln N in c costs about log2 ln N extra doublings, and
    rounds r0 + 2 .. r0 + 4 count as h' >= 1, 2, 4 unless one of them
    reads exactly. They draw independently, so all three peels are
    inexact with probability at most P(1) P(2) P(4) < 5e-4 < 0.002.
    """
    x, y = embed_for_product(u, v)
    _check_float_budget(x, y)
    if x.is_zero or y.is_zero:
        return zero_vector(x.length)
    locate_rng, fingerprint_rng = rng.spawn(2)
    max_rounds = max(1, int(x.length - 1).bit_length()) + 2
    r = 1
    try:
        while r <= max_rounds:
            w, floor = hash_and_iterate(
                x, y, ISOLATION_CONSTANT << r, locate_rng, fingerprint_rng,
                OUTER_FAILURE_CONSTANT / (r * r))
            if w is not None:
                return w
            cells = -(-floor // ISOLATION_CONSTANT)   # least C * 2^r >= floor
            r = max(r + 1, (cells - 1).bit_length())
    except PrimeSamplingError as err:
        raise MultiplicationFailed(str(err)) from err
    raise MultiplicationFailed(
        f"no verified product within {max_rounds} budget doublings")
