"""Correctness checks that do not reuse the package's arithmetic.

A product is handled here as plain (length, indices, coeffs) arrays, so
every check works the same on a SparseVector and on a parsed file.
"""

from __future__ import annotations

import numpy as np

# Mersenne prime 2^61 - 1: a product of degree < 2^27 that is wrong survives
# one random evaluation with probability below 2^-34.
EVAL_MODULUS = (1 << 61) - 1


def terms(v):
    """(length, indices, coeffs) of a SparseVector."""
    return v.length, np.asarray(v.indices), np.asarray(v.coeffs)


def same(a, b) -> bool:
    return (a[0] == b[0] and np.array_equal(a[1], b[1])
            and np.array_equal(a[2], b[2]))


def pair_sum_product(u, v):
    """Exact u * v over [0, 2n) by summing every pair of terms in int64."""
    n = max(u.length, v.length)
    idx = np.add.outer(np.asarray(u.indices), np.asarray(v.indices)).ravel()
    val = np.multiply.outer(np.asarray(u.coeffs), np.asarray(v.coeffs)).ravel()
    if idx.size == 0:
        return 2 * n, idx, val
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    first = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    sums = np.add.reduceat(val, first)
    keep = sums != 0
    return 2 * n, idx[first][keep], sums[keep]


def telescoping_shape_ok(product, log2_terms: int, runs: int = 16) -> bool:
    """Block-boundary property of a blocked-telescoping product.

    Every block of consecutive cancellers leaves one -1 at its start and
    one +1 past its end, both at multiples of the run length a, so the
    product has 2 * runs terms alternating -1, +1 in index order.
    """
    _, idx, val = product
    a = 1 << (log2_terms - 1)
    return (idx.size == 2 * runs
            and bool(np.all(np.diff(idx) > 0))
            and bool(np.all(idx % a == 0))
            and np.array_equal(val, np.tile([-1, 1], runs)))


def _eval_mod(indices, coeffs, r: int, q: int) -> int:
    return sum(int(c) * pow(r, int(j), q) for j, c in zip(indices, coeffs)) % q


def operand_evaluations(u, v, points) -> list[int]:
    """f(r) * g(r) mod q at each point, with builtin pow."""
    q = EVAL_MODULUS
    return [_eval_mod(u.indices, u.coeffs, r, q)
            * _eval_mod(v.indices, v.coeffs, r, q) % q for r in points]


def product_evaluations(product, points) -> list[int]:
    """h(r) mod q at each point; equal to operand_evaluations iff h = f * g,
    up to a chance below 2^-34 per point."""
    _, idx, val = product
    return [_eval_mod(idx, val, r, EVAL_MODULUS) for r in points]


def eval_points(seed: int, count: int = 3) -> list[int]:
    rng = np.random.default_rng([seed, 61])
    return [int(r) for r in rng.integers(2, EVAL_MODULUS - 1, size=count,
                                         dtype=np.int64)]


def corrupt(product, seed: int):
    """Copy of the product with one seeded coefficient moved away from zero."""
    length, idx, val = product
    val = val.copy()
    k = int(np.random.default_rng([seed, 17]).integers(val.size))
    val[k] += 1 if val[k] > 0 else -1
    return length, idx.copy(), val


def read_poly_file(path):
    """Product terms from a polynomial file: 'N <length>', then 'i c' lines."""
    length = None
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if length is None:
                if fields[0] != "N":
                    raise ValueError(f"{path}: missing header")
                length = int(fields[1])
            else:
                pairs.append((int(fields[0]), int(fields[1])))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return length, arr[:, 0].copy(), arr[:, 1].copy()
