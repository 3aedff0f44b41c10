"""Randomized verification that a claimed product is the true product.

Polynomials are compared through their evaluations at random points of a
random prime field: f_x(r) * f_y(r) = f_w(r) mod p holds always when
x * y = w, and fails at each point with good probability otherwise, since
a nonzero polynomial of degree < N has at most N - 1 roots mod p while p
is drawn from [2^30, 2^31] whatever N <= 2^26 (a check Giorgi, Grenet &
Perret du Cray study for sparse products). It is one-sided: "unequal" is
always true.

Callers must present operands whose product does not wrap: the driver
guarantees this by embedding degree-(n-1) inputs at dimension N = 2n.
"""

from __future__ import annotations

import math

import numpy as np

from .primes import random_prime_in_range
from .vectors import SparseVector, _check_operands, check_canonical

_FIELD_BITS = 30        # p is drawn from [2^30, 2^31]


def eval_rounds(delta: float, dimension: int) -> int:
    """Number of evaluation points at dimension N. A point is a root of a
    nonzero difference with probability below q = N / 2^30, so
    log2(2^30 / N) bits per point, at least 4 at MAX_DIMENSION; all of
    them are roots with probability at most q^rounds <= q * delta / 3.
    The dimension must be in [1, MAX_DIMENSION]. The bits needed are
    log2(3) - log2(delta): 3 / delta overflows below about 1.7e-308."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    per_point = _FIELD_BITS - math.log2(dimension)
    return math.ceil((math.log2(3.0) - math.log2(delta)) / per_point) + 1


def _power_table(base: int, size: int, p: np.uint64) -> np.ndarray:
    """base**a mod p for a in [0, size), size a power of two, by doubling."""
    table = np.ones(size, dtype=np.uint64)
    filled, step = 1, base              # step = base**filled mod p
    while filled < size:
        table[filled:2 * filled] = table[:filled] * np.uint64(step) % p
        filled, step = 2 * filled, step * step % int(p)
    return table


def eval_sparse_poly_mod(f: SparseVector, baby: np.ndarray,
                         giant: np.ndarray, modulus: int) -> int:
    """Evaluate sum of coeff_j * r**j over the stored terms, mod modulus.

    baby holds r**a and giant r**(a * 2^k) mod modulus for a < 2^k, and
    f's top index is below 4^k: r**j = giant[j >> k] * baby[j mod 2^k],
    for all terms at once in uint64 numpy. Every reduction is
    a - a // p * p, as numpy divides an array by one scalar far faster
    than it takes a % p. Residues are below p < 2^32, so a product of two
    stays below 2^64, and a sum of at most 2^26 of them below 2^58: plain
    uint64 arithmetic is exact. An int64 coefficient c reduces to
    c - c // p * p in [0, p), equal to c mod p even at c = -2^63, where
    (c // p) * p wraps: the difference is exact modulo 2^64. f must be
    canonical and the modulus in [2, 2^32).
    """
    p, m = np.uint64(modulus), np.int64(modulus)
    k = len(baby).bit_length() - 1
    powers = giant[f.indices >> k]
    powers *= baby[f.indices & ((1 << k) - 1)]
    powers -= powers // p * p
    terms = (f.coeffs - f.coeffs // m * m).view(np.uint64)
    terms *= powers
    terms -= terms // p * p
    return int(np.sum(terms, dtype=np.uint64)) % modulus


def equality_test(x: SparseVector, y: SparseVector, w: SparseVector,
                  delta: float, rng: np.random.Generator) -> bool:
    """True iff the evaluations are consistent with x * y = w.

    x and y must pass check_operand, and w check_canonical (its int64
    coefficients are not bounded), or ValueError. A true equality always
    returns True. An inequality survives with probability at most delta:
    x * y - w is then a nonzero polynomial of degree < N and p is prime
    (miller_rabin is exact below 2^64), so all eval_rounds points are its
    roots with probability at most q * delta / 3, q = N / 2^30. Each point
    builds one baby and one giant table of 2^k powers, k = ceil(b / 2) for
    the largest top index of b bits among x, y and w, and evaluates all
    three from them: 2^(k+1) + l0(x) + l0(y) + l0(w) modular products.
    Running out of prime draws (probability below 1e-9) raises
    PrimeSamplingError: an explicit failure, never an answer.
    """
    if w.length != x.length:
        raise ValueError("length mismatch")
    _check_operands(x, y)
    check_canonical(w, "w")
    rounds = eval_rounds(delta, x.length)
    top = max(int(f.indices[-1]) if f.l0 else 0 for f in (x, y, w))
    k = (top.bit_length() + 1) // 2
    p = random_prime_in_range(1 << _FIELD_BITS, 2 << _FIELD_BITS, rng)
    for _ in range(rounds):
        r = int(rng.integers(0, p))
        baby = _power_table(r, 1 << k, np.uint64(p))
        giant = _power_table(pow(r, 1 << k, p), 1 << k, np.uint64(p))
        fx, fy, fw = (eval_sparse_poly_mod(f, baby, giant, p)
                      for f in (x, y, w))
        if fx * fy % p != fw:
            return False
    return True
