"""Sparse integer vectors and exact cyclic-convolution baselines.

Vectors live in Z^N and are stored as sorted (index, coefficient) arrays.
All baseline arithmetic here is exact int64; the size envelope below
guarantees that no product coefficient can overflow a signed 64-bit word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DIMENSION = 1 << 26
MAX_COEFF_ABS = 1 << 20
MAX_TERMS = 1 << 20

# Pair count processed per block in the quadratic baseline; bounds peak memory.
_PAIR_BLOCK = 1 << 23
# Dense int64 accumulator is used below this length, sort-reduce above it.
_DENSE_ACC_MAX = 1 << 22


class EnvelopeError(ValueError):
    """Operand falls outside the supported size/magnitude envelope."""


@dataclass(eq=False)
class SparseVector:
    """Vector in Z^length with explicitly stored nonzero terms.

    Canonical form: indices strictly increasing, all coefficients nonzero,
    both arrays int64. Use make_sparse_vector to build one from raw pairs.
    """

    length: int
    indices: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    @property
    def l0(self) -> int:
        return int(self.indices.size)

    @property
    def is_zero(self) -> bool:
        return self.indices.size == 0

    def to_pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(c)) for i, c in zip(self.indices, self.coeffs)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (self.length == other.length
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        pairs = zip(self.indices[:6].tolist(), self.coeffs[:6].tolist())
        head = ", ".join(f"{i}: {c}" for i, c in pairs)
        tail = ", ..." if self.l0 > 6 else ""
        return f"SparseVector(N={self.length}, {{{head}{tail}}})"


def _empty_terms() -> tuple[np.ndarray, np.ndarray]:
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _reduce_terms(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate indices and drop zero sums. Exact integer arithmetic."""
    if idx.size == 0:
        return _empty_terms()
    order = np.argsort(idx, kind="stable")
    si = idx[order]
    sv = val[order]
    starts = np.empty(si.size, dtype=bool)
    starts[0] = True
    np.not_equal(si[1:], si[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    sums = np.add.reduceat(sv, start_pos)
    keep = sums != 0
    return si[start_pos][keep], sums[keep]


def zero_vector(length: int) -> SparseVector:
    if length < 1:
        raise ValueError("length must be positive")
    return SparseVector(length, *_empty_terms())


def make_sparse_vector(length: int, pairs) -> SparseVector:
    """Build a canonical SparseVector from (index, coefficient) pairs.

    Duplicate indices are summed; zero coefficients are dropped. Raises
    as from_arrays does.
    """
    pairs = list(pairs)
    return from_arrays(length, [p[0] for p in pairs], [p[1] for p in pairs])


def _int64_array(values, what: str) -> np.ndarray:
    """values as an int64 array; ValueError unless each is an int64 integer."""
    arr = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):
            out = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        out = None
    if out is None or not np.array_equal(out, arr):
        raise ValueError(f"{what} must be integers in the int64 range")
    return out


def from_arrays(length: int, indices, coeffs) -> SparseVector:
    """Canonical SparseVector from parallel index and coefficient arrays.

    Duplicate indices are summed; zero coefficients are dropped. Raises
    ValueError for non-integral values and for indices outside
    [0, length), and EnvelopeError for a length above MAX_DIMENSION or
    more than MAX_TERMS terms after reduction.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if length > MAX_DIMENSION:
        raise EnvelopeError(f"length {length} exceeds {MAX_DIMENSION}")
    idx = _int64_array(indices, "indices")
    val = _int64_array(coeffs, "coefficients")
    if idx.shape != val.shape or idx.ndim != 1:
        raise ValueError("indices and coeffs must be 1-d arrays of equal size")
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        bad = idx[(idx < 0) | (idx >= length)][0]
        raise ValueError(f"index {bad} out of range [0, {length})")
    idx, val = _reduce_terms(idx, val)
    if idx.size > MAX_TERMS:
        raise EnvelopeError(f"{idx.size} terms exceed {MAX_TERMS}")
    return SparseVector(length, idx, val)


def _canonical(length: int, idx: np.ndarray, val: np.ndarray) -> SparseVector:
    """Trusted constructor: arrays already sorted, unique, nonzero."""
    return SparseVector(length, idx, val)


def add(x: SparseVector, y: SparseVector) -> SparseVector:
    if x.length != y.length:
        raise ValueError("length mismatch")
    idx = np.concatenate([x.indices, y.indices])
    val = np.concatenate([x.coeffs, y.coeffs])
    return _canonical(x.length, *_reduce_terms(idx, val))


def subtract(x: SparseVector, y: SparseVector) -> SparseVector:
    if x.length != y.length:
        raise ValueError("length mismatch")
    idx = np.concatenate([x.indices, y.indices])
    val = np.concatenate([x.coeffs, -y.coeffs])
    return _canonical(x.length, *_reduce_terms(idx, val))


def check_operand(v: SparseVector, what: str) -> None:
    """Raise EnvelopeError unless v lies inside the operand envelope.

    MAX_TERMS * MAX_COEFF_ABS**2 <= 2**60, so convolution coefficients of
    two conforming operands always fit in int64 with headroom.
    """
    if v.length > MAX_DIMENSION:
        raise EnvelopeError(f"{what}: length {v.length} exceeds {MAX_DIMENSION}")
    if v.l0 > MAX_TERMS:
        raise EnvelopeError(f"{what}: {v.l0} terms exceed {MAX_TERMS}")
    if v.l0 and int(np.abs(v.coeffs).max()) > MAX_COEFF_ABS:
        raise EnvelopeError(
            f"{what}: coefficient magnitude exceeds {MAX_COEFF_ABS}")


def cyclic_convolve_naive(x: SparseVector, y: SparseVector) -> SparseVector:
    """Exact cyclic convolution by enumerating all term pairs.

    Cost is l0(x) * l0(y) pair operations; used as the ground-truth oracle
    for every other backend.
    """
    if x.length != y.length:
        raise ValueError("length mismatch")
    check_operand(x, "x")
    check_operand(y, "y")
    n = x.length
    if x.is_zero or y.is_zero:
        return zero_vector(n)
    xi, xv = x.indices, x.coeffs
    yi, yv = y.indices, y.coeffs
    # Dense int64 accumulator (np.add.at: exact, unlike float bincount) up to
    # n = 16 * pairs: sorting the pairs takes 1.1-1.2x its time there and
    # 0.6-0.7x at n = 32 * pairs (n = 2^16 .. 2^22, one Xeon core, numpy 2.4).
    dense = n <= _DENSE_ACC_MAX and n <= 16 * xi.size * yi.size
    acc = np.zeros(n if dense else 0, dtype=np.int64)
    blocks = []
    step = max(1, _PAIR_BLOCK // yi.size)
    for a in range(0, xi.size, step):
        b = min(a + step, xi.size)
        idx = (xi[a:b, None] + yi[None, :]).ravel()
        idx[idx >= n] -= n
        val = (xv[a:b, None] * yv[None, :]).ravel()
        if dense:
            np.add.at(acc, idx, val)
        else:
            blocks.append(_reduce_terms(idx, val))
    if dense:
        nz = np.flatnonzero(acc)
        return _canonical(n, nz.astype(np.int64), acc[nz])
    idx, val = (np.concatenate(part) for part in zip(*blocks))
    return _canonical(n, *_reduce_terms(idx, val))


def _fft_error_bound(x: SparseVector, y: SparseVector) -> float:
    """Conservative per-coefficient error estimate for float64 FFT multiply."""
    nx = float(np.sqrt(np.sum(x.coeffs.astype(np.float64) ** 2)))
    ny = float(np.sqrt(np.sum(y.coeffs.astype(np.float64) ** 2)))
    lg = max(1, int(x.length - 1).bit_length())
    return 8.0 * np.finfo(np.float64).eps * lg * nx * ny


def dense_fft_multiply(x: SparseVector, y: SparseVector) -> SparseVector:
    """Cyclic convolution through a dense real FFT.

    The transform length is N, or the power of two L < N above the top
    product index when there is one: then nothing wraps, so the length-L
    cyclic convolution is the product, and L is smooth where N = 2n may
    have large prime factors. Exact for envelope-conforming operands:
    results are rounded to the nearest integer and the rounding residue is
    checked against the floating-point error budget.
    """
    if x.length != y.length:
        raise ValueError("length mismatch")
    check_operand(x, "x")
    check_operand(y, "y")
    n = x.length
    if x.is_zero or y.is_zero:
        return zero_vector(n)
    if _fft_error_bound(x, y) >= 0.25:
        raise EnvelopeError(
            "coefficient mass too large for float64 FFT rounding budget")
    top = int(x.indices[-1]) + int(y.indices[-1])
    size = min(n, 1 << top.bit_length())
    a = np.zeros(size, dtype=np.float64)
    b = np.zeros(size, dtype=np.float64)
    a[x.indices] = x.coeffs
    b[y.indices] = y.coeffs
    conv = np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), size)
    rounded = np.rint(conv)
    if float(np.max(np.abs(conv - rounded))) >= 0.25:
        raise EnvelopeError("FFT rounding residue exceeded the error budget")
    nz = np.flatnonzero(rounded)
    return _canonical(n, nz.astype(np.int64), rounded[nz].astype(np.int64))


def embed_for_product(u: SparseVector, v: SparseVector) -> tuple[SparseVector, SparseVector]:
    """Zero-pad degree-(n-1) polynomial operands to dimension N = 2n.

    At N = 2n the cyclic convolution never wraps, so it coincides with the
    polynomial product.
    """
    n = max(u.length, v.length)
    if 2 * n > MAX_DIMENSION:
        raise EnvelopeError(f"embedded dimension {2 * n} exceeds {MAX_DIMENSION}")
    x = _canonical(2 * n, u.indices, u.coeffs)
    y = _canonical(2 * n, v.indices, v.coeffs)
    return x, y


def poly_multiply_naive(u: SparseVector, v: SparseVector) -> SparseVector:
    """Exact polynomial product over [0, 2n) via the quadratic baseline."""
    x, y = embed_for_product(u, v)
    return cyclic_convolve_naive(x, y)


def poly_multiply_dense(u: SparseVector, v: SparseVector) -> SparseVector:
    """Exact polynomial product over [0, 2n) via the dense FFT baseline."""
    x, y = embed_for_product(u, v)
    return dense_fft_multiply(x, y)
