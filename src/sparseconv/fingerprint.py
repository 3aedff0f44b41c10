"""Randomized verification that a claimed product is the true product.

Polynomials are compared through their evaluations at random points of a
random prime field: f_x(r) * f_y(r) = f_w(r) mod p holds always when
x * y = w, and fails at each point with good probability otherwise, since
a nonzero polynomial of degree < N has at most N - 1 roots mod p while p
is drawn beyond 64 * N. The test is one-sided: "unequal" is always true.

Callers must present operands whose product does not wrap: the driver
guarantees this by embedding degree-(n-1) inputs at dimension N = 2n.
"""

from __future__ import annotations

import math

import numpy as np

from .primes import random_prime_in_range
from .vectors import SparseVector

RANGE_MULTIPLIER = 64        # prime field size: [64N, 128N]


def eval_rounds(delta: float) -> int:
    """Number of evaluation points; all of them hit roots of a nonzero
    difference with probability at most delta / (3 * RANGE_MULTIPLIER)."""
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    per_point = math.log2(RANGE_MULTIPLIER)
    return math.ceil(math.log2(3.0 / delta) / per_point) + 1


# The uint64 arithmetic below is exact up to this modulus; the sampler
# draws p <= 2 * RANGE_MULTIPLIER * MAX_DIMENSION = 2^33.
_MODULUS_LIMIT = 1 << 36


def _mulmod(a: np.ndarray, b, p: np.uint64) -> np.ndarray:
    """Exact a * b mod p for uint64 a, b < p <= 2^36: with b = bh * 2^16 + bl,
    a * bh < 2^56 and ((a * bh mod p) << 16) + a * bl < 2^53 (2^50 at the
    sampler's p <= 2^33), so nothing wraps."""
    high = a * (b >> np.uint64(16)) % p
    return ((high << np.uint64(16)) + a * (b & np.uint64(0xFFFF))) % p


def _power_table(base: int, size: int, p: np.uint64) -> np.ndarray:
    """base**a mod p for a in [0, size), size a power of two, by doubling."""
    table = np.ones(size, dtype=np.uint64)
    filled, step = 1, base              # step = base**filled mod p
    while filled < size:
        table[filled:2 * filled] = _mulmod(table[:filled], np.uint64(step), p)
        filled, step = 2 * filled, step * step % int(p)
    return table


def eval_sparse_poly_mod(f: SparseVector, point: int, modulus: int) -> int:
    """Evaluate sum of coeff_j * point**j over the stored terms, mod modulus.

    Baby-step/giant-step in uint64 numpy, all terms at once: with
    k = ceil(bits / 2) of the top index, point**j = giant[j >> k] *
    baby[j mod 2^k] for tables of point**a and point**(a * 2^k), a < 2^k.
    A call costs l0 + 2^(k+1) <= l0 + 2^14 modular products. Each term is
    below p <= 2^36 and a vector has at most MAX_DIMENSION = 2^26 terms, so
    their uint64 sum stays below 2^62.
    """
    if not 2 <= modulus <= _MODULUS_LIMIT:
        raise ValueError(f"modulus must be in [2, 2^36], got {modulus}")
    if f.is_zero:
        return 0
    p = np.uint64(modulus)
    point = point % modulus
    k = (int(f.indices[-1]).bit_length() + 1) // 2
    j = f.indices.astype(np.uint64)
    high, low = j >> np.uint64(k), j & np.uint64((1 << k) - 1)
    baby = _power_table(point, 1 << k, p)
    giant = _power_table(pow(point, 1 << k, modulus), 1 << k, p)
    powers = _mulmod(giant[high], baby[low], p)
    coeffs = np.mod(f.coeffs, np.int64(modulus)).astype(np.uint64)
    return int(np.sum(_mulmod(coeffs, powers, p), dtype=np.uint64)) % modulus


def equality_test(x: SparseVector, y: SparseVector, w: SparseVector,
                  delta: float, rng: np.random.Generator) -> bool:
    """True iff the evaluations are consistent with x * y = w.

    A true equality always returns True. An inequality survives with
    probability at most delta: x * y - w is then a nonzero polynomial of
    degree < N and p is prime (miller_rabin is exact below 2^64), so all
    eval_rounds points are its roots with probability at most
    delta / (3 * RANGE_MULTIPLIER).
    Running out of prime draws (probability below 1e-9) raises
    PrimeSamplingError: an explicit failure, never an answer.
    """
    if not (x.length == y.length == w.length):
        raise ValueError("length mismatch")
    rounds = eval_rounds(delta)
    lo = RANGE_MULTIPLIER * x.length
    p = random_prime_in_range(lo, 2 * lo, rng)
    for _ in range(rounds):
        r = int(rng.integers(0, p))
        fx = eval_sparse_poly_mod(x, r, p)
        fy = eval_sparse_poly_mod(y, r, p)
        fw = eval_sparse_poly_mod(w, r, p)
        if fx * fy % p != fw:
            return False
    return True
