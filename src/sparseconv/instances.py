"""Reproducible test-instance generators.

Instances interpolate between fully random operands and a telescoping
family whose product collapses to two terms no matter how many input
terms participate, which is the interesting regime for output-sensitive
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import GENERATION_STREAM, substream
from .vectors import (MAX_COEFF_ABS, MAX_DIMENSION, MAX_TERMS, EnvelopeError,
                      SparseVector, from_arrays)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one generated multiplication instance.

    terms, at most MAX_TERMS, is the sparsity of each operand, and
    coeff_bound, at most MAX_COEFF_ABS, bounds its coefficient magnitudes
    (more is an EnvelopeError, as check_operand raises); cancel_fraction
    in [0, 1] moves from uniform random (0) to the pure telescoping family
    (1), where u is an all-ones run and v = z - 1 so the product
    telescopes to exactly two nonzeros.
    """

    n: int
    terms: int
    coeff_bound: int
    cancel_fraction: float
    seed: int

    def __post_init__(self):
        if self.n < 1 or 2 * self.n > MAX_DIMENSION:
            raise ValueError(f"n must be in [1, {MAX_DIMENSION // 2}]")
        if not 1 <= self.terms <= self.n:
            raise ValueError("terms must be in [1, n]")
        if self.terms > MAX_TERMS:
            raise EnvelopeError(f"{self.terms} terms exceed {MAX_TERMS}")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be positive")
        if self.coeff_bound > MAX_COEFF_ABS:
            raise EnvelopeError(
                f"coeff_bound {self.coeff_bound} exceeds {MAX_COEFF_ABS}")
        if not 0.0 <= self.cancel_fraction <= 1.0:
            raise ValueError("cancel_fraction must be in [0, 1]")


def _distinct_indices(rng: np.random.Generator, lo: int, hi: int,
                      count: int) -> np.ndarray:
    """count <= hi - lo distinct values from [lo, hi), in random order: by
    rejection up to 3/4 of the span, without materializing the range, and
    above that, where rejection slows without bound, by drawing the values
    to leave out."""
    span = hi - lo
    if count == span:
        return np.arange(lo, hi, dtype=np.int64)
    if 4 * count > 3 * span:
        keep = np.ones(span, dtype=bool)
        keep[_distinct_indices(rng, 0, span, span - count)] = False
        return rng.permutation(np.flatnonzero(keep) + lo)
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        need = count - picked.size
        fresh = rng.integers(lo, hi, size=need + max(8, need // 4))
        # A sort and a diff mask, not np.unique: its first call imports
        # numpy.ma (about 17 ms on a 2-core Xeon), which nothing else needs.
        picked = np.sort(np.concatenate([picked, fresh]))
        picked = picked[np.diff(picked, prepend=lo - 1) != 0]
    return rng.permutation(picked)[:count]


def _nonzero_coeffs(rng: np.random.Generator, count: int, bound: int) -> np.ndarray:
    mag = rng.integers(1, bound + 1, size=count)
    sign = rng.integers(0, 2, size=count) * 2 - 1
    return (mag * sign).astype(np.int64)


def gen_instance(spec: InstanceSpec) -> tuple[SparseVector, SparseVector]:
    """Deterministic (u, v) pair for spec, drawn from spec's own stream."""
    rng = substream(spec.seed, GENERATION_STREAM)
    n, terms, bound = spec.n, spec.terms, spec.coeff_bound
    run = round(spec.cancel_fraction * terms)

    # u: an all-ones run of length `run`, the rest random beyond the run.
    u_idx = [np.arange(run, dtype=np.int64)]
    u_val = [np.ones(run, dtype=np.int64)]
    rest = terms - run
    if rest:
        u_idx.append(_distinct_indices(rng, run, n, rest))
        u_val.append(_nonzero_coeffs(rng, rest, bound))
    u = from_arrays(n, np.concatenate(u_idx), np.concatenate(u_val))

    # v: the canceller z - 1 against the run, plus random filler terms.
    if run >= 1 and n >= 2:
        v_idx = [np.array([0, 1], dtype=np.int64)]
        v_val = [np.array([-1, 1], dtype=np.int64)]
        filler = round((1.0 - spec.cancel_fraction) * max(0, terms - 2))
    else:
        v_idx, v_val = [], []
        filler = terms
    if filler:
        lo = 2 if v_idx else 0
        filler = min(filler, n - lo)
        v_idx.append(_distinct_indices(rng, lo, n, filler))
        v_val.append(_nonzero_coeffs(rng, filler, bound))
    v = from_arrays(n, np.concatenate(v_idx), np.concatenate(v_val))
    return u, v


def blocked_telescoping_instance(log2_terms: int, runs: int = 16):
    """High-cancellation instance with both operands carrying ~2^log2_terms
    terms in total while the product keeps exactly 2 * runs nonzeros.

    u is an all-ones run of length a. v places the canceller z^(a*i+1) -
    z^(a*i) at every slot i of [0, m) except runs - 1 interior holes, so
    u * v telescopes independently over each contiguous slot block, leaving
    one positive and one negative term per block. Index demand is a * m,
    quadratic in the term count: this is the regime where the quadratic
    baseline pays for every pair while the product stays tiny.

    Returns (u, v, product).
    """
    if log2_terms < 6:
        raise ValueError("need log2_terms >= 6")
    if runs < 1:
        raise ValueError("need at least one run")
    a = 1 << (log2_terms - 1)
    m = (1 << (log2_terms - 2)) - 1
    n = a * m + 1
    if 2 * n > MAX_DIMENSION:
        raise ValueError("instance would exceed the dimension envelope")
    # np.delete, not np.setdiff1d: np.unique's first call imports numpy.ma
    # (20-30 ms on a 2-core Xeon), which nothing else here needs.
    slots = np.delete(np.arange(m), np.arange(1, runs) * m // runs)

    u = from_arrays(n, np.arange(a), np.ones(a, dtype=np.int64))
    v = from_arrays(n, np.concatenate([a * slots, a * slots + 1]),
                    np.repeat(np.array([-1, 1], dtype=np.int64), slots.size))
    # Each block of consecutive slots lo..hi leaves z^(a*(hi+1)) - z^(a*lo).
    lo = slots[np.diff(slots, prepend=-2) != 1]
    hi = slots[np.diff(slots, append=-2) != 1]
    product = from_arrays(2 * n, np.concatenate([a * lo, a * (hi + 1)]),
                          np.repeat(np.array([-1, 1], dtype=np.int64), lo.size))
    return u, v, product
