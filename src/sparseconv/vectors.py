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

# Pair count per block of the quadratic baseline's dense accumulator;
# bounds peak memory.
_PAIR_BLOCK = 1 << 23


class EnvelopeError(ValueError):
    """Operand falls outside the supported size/magnitude envelope."""


@dataclass(eq=False)
class SparseVector:
    """Vector in Z^length with explicitly stored nonzero terms.

    Canonical form: indices strictly increasing, all coefficients nonzero,
    both arrays int64. The constructor checks nothing: pass it only arrays
    already in that form. Use from_arrays to build one from any index and
    coefficient arrays, and make_sparse_vector from (index, coefficient)
    pairs.
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


def _sum_runs(key: np.ndarray, val: np.ndarray,
              b: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical terms of the packed keys index << b | position, where
    val[position] is the value: each index's values summed, zero sums
    dropped. Sorts key in place and leaves it holding scratch.

    Each index must be below 2^(63 - b) and key must be nonempty. A run's
    sum is the difference of two entries of an int64 prefix sum: both
    wrap modulo 2^64, so it is exact whenever the run's own sum fits in
    int64, though the running total may not. One full-size array is new
    here, besides a bool mask; the others have one entry per index.
    """
    key.sort()
    buf = key >> b                              # the indices, sorted
    ends = np.empty(key.size, dtype=bool)       # last entry of each run
    np.not_equal(buf[1:], buf[:-1], out=ends[:-1])
    ends[-1] = True
    idx = buf[ends]
    key &= (1 << b) - 1                         # the positions
    # "clip" writes straight to out ("raise" would buffer it); positions
    # are in range, so nothing is clipped
    np.take(val, key, out=buf, mode="clip")
    np.cumsum(buf, out=buf)
    sums = buf[ends]
    # Each array is released once dead, so that the next can reuse its
    # pages: memory new to the process costs a page fault per 4 KiB.
    del buf, ends
    # A run's sum is its prefix sum less the run before's. key is spare
    # now, so the differences go there and no array is made for them.
    run = key[:sums.size]
    run[0] = sums[0]
    np.subtract(sums[1:], sums[:-1], out=run[1:])
    if run.all():
        sums[:] = run
        return idx, sums
    del sums
    keep = run != 0
    return idx[keep], run[keep]


def _reduce_terms(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum duplicate indices and drop zero sums. Exact integer arithmetic.

    Indices must lie in [0, 2^26) (MAX_DIMENSION), as they do from every
    caller. They are sorted as one packed int64 key, index << b | position
    with b = bit_length(size - 1), which fits for any array that fits in
    memory; the sums are exact, so the order within a run is immaterial.
    """
    if idx.size == 0:
        return _empty_terms()
    b = (idx.size - 1).bit_length()
    key = idx << b
    key |= np.arange(idx.size, dtype=np.int64)
    return _sum_runs(key, val, b)


def zero_vector(length: int) -> SparseVector:
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ValueError("length must be a positive integer")
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
    [0, length), and EnvelopeError for a length above MAX_DIMENSION. The
    length must be a Python or numpy integer. The term count is not
    bounded here, since products may exceed MAX_TERMS: operands meet
    that bound in check_operand.
    """
    if not isinstance(length, (int, np.integer)) or length < 1:
        raise ValueError("length must be a positive integer")
    if length > MAX_DIMENSION:
        raise EnvelopeError(f"length {length} exceeds {MAX_DIMENSION}")
    idx = _int64_array(indices, "indices")
    val = _int64_array(coeffs, "coefficients")
    if idx.shape != val.shape or idx.ndim != 1:
        raise ValueError("indices and coeffs must be 1-d arrays of equal size")
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        bad = idx[(idx < 0) | (idx >= length)][0]
        raise ValueError(f"index {bad} out of range [0, {length})")
    return SparseVector(length, *_reduce_terms(idx, val))


def add(x: SparseVector, y: SparseVector) -> SparseVector:
    if x.length != y.length:
        raise ValueError("length mismatch")
    if x.is_zero or y.is_zero:          # already canonical: no sort
        return y if x.is_zero else x
    idx = np.concatenate([x.indices, y.indices])
    val = np.concatenate([x.coeffs, y.coeffs])
    return SparseVector(x.length, *_reduce_terms(idx, val))


def subtract(x: SparseVector, y: SparseVector) -> SparseVector:
    return add(x, SparseVector(y.length, y.indices, -y.coeffs))


def check_canonical(v: SparseVector, what: str) -> None:
    """Raise ValueError unless v is in canonical form: a positive integer
    length, 1-d int64 arrays of equal size, indices strictly increasing in
    [0, length), coefficients nonzero. O(l0). The SparseVector constructor
    checks nothing, so every entry point calls this, through check_operand
    or directly.
    """
    if not isinstance(v.length, (int, np.integer)) or v.length < 1:
        raise ValueError(f"{what}: length must be a positive integer")
    idx, val = v.indices, v.coeffs
    if not (isinstance(idx, np.ndarray) and isinstance(val, np.ndarray)
            and idx.dtype == val.dtype == np.int64
            and idx.ndim == val.ndim == 1 and idx.size == val.size):
        raise ValueError(
            f"{what}: indices and coefficients must be 1-d int64 arrays "
            "of equal size")
    if idx.size and (idx[0] < 0 or idx[-1] >= v.length
                     or np.any(idx[1:] <= idx[:-1])):
        raise ValueError(
            f"{what}: indices must increase strictly within [0, {v.length})")
    if not np.all(val):
        raise ValueError(f"{what}: zero coefficient")


def check_operand(v: SparseVector, what: str) -> None:
    """Raise ValueError unless v is canonical (check_canonical), and
    EnvelopeError unless it lies inside the operand envelope.

    MAX_TERMS * MAX_COEFF_ABS**2 <= 2**60, so convolution coefficients of
    two conforming operands always fit in int64 with headroom.
    """
    check_canonical(v, what)
    if v.length > MAX_DIMENSION:
        raise EnvelopeError(f"{what}: length {v.length} exceeds {MAX_DIMENSION}")
    if v.l0 > MAX_TERMS:
        raise EnvelopeError(f"{what}: {v.l0} terms exceed {MAX_TERMS}")
    # min and max, not np.abs, which maps -2^63 to itself
    if v.l0 and (v.coeffs.min() < -MAX_COEFF_ABS
                 or v.coeffs.max() > MAX_COEFF_ABS):
        raise EnvelopeError(
            f"{what}: coefficient magnitude exceeds {MAX_COEFF_ABS}")


def _check_operands(x: SparseVector, y: SparseVector) -> None:
    """The door of the cyclic products and the fingerprint: ValueError
    unless x and y have one length, then check_operand on each."""
    if x.length != y.length:
        raise ValueError("length mismatch")
    check_operand(x, "x")
    check_operand(y, "y")


def cyclic_convolve_naive(x: SparseVector, y: SparseVector) -> SparseVector:
    """Exact cyclic convolution by enumerating all term pairs: both
    operands pass check_operand, then _pair_product runs."""
    _check_operands(x, y)
    return _pair_product(x, y)


def _pair_product(x: SparseVector, y: SparseVector) -> SparseVector:
    """x * y from all l0(x) * l0(y) term pairs, for operands of equal
    length that pass check_operand; it checks nothing itself.

    It is the body of poly_multiply_naive, the ground-truth oracle for
    every other backend, and the driver's proven pair reading in
    hash_and_iterate, which every product with few enough term pairs
    takes (the crossover product among them).
    """
    n = x.length
    if x.is_zero or y.is_zero:
        return zero_vector(n)
    xi, xv = x.indices, x.coeffs
    yi, yv = y.indices, y.coeffs
    pairs = xi.size * yi.size
    # Sort the pairs when n > 8 * pairs, else add them into a dense int64
    # accumulator (np.add.at: exact, unlike float bincount), at every n:
    # sorting takes 0.4-1.0x the accumulator's time at n = 8 * pairs,
    # 0.8-1.6x at n = 4 * pairs (above 1 only at n <= 2^20) and 0.3-0.5x
    # at n = 16 * pairs (n = 2^18 .. 2^26, one Xeon core, numpy 2.4). At
    # n = 2^26 and 8x the sort adds 320 MiB of RSS against 757 MiB for the
    # accumulator, and at 4x 627 against 924 MiB. The sort route has
    # pairs < n / 8 <= 2^23 = _PAIR_BLOCK, so it reads all of them at once
    # with one _sum_runs call; only the accumulator works in blocks.
    if n > 8 * pairs:
        # One outer add packs index << b | position, position = row *
        # l0(y) + column; only a top index of n or more needs the wrap.
        b = (pairs - 1).bit_length()
        key = np.add.outer(
            (xi << b) + np.arange(0, pairs, yi.size, dtype=np.int64),
            (yi << b) + np.arange(yi.size, dtype=np.int64)).ravel()
        if xi[-1] + yi[-1] >= n:
            wrap = n << b
            np.subtract(key, wrap, out=key, where=key >= wrap)
        val = np.multiply.outer(xv, yv).ravel()
        return SparseVector(n, *_sum_runs(key, val, b))
    acc = np.zeros(n, dtype=np.int64)
    step = _PAIR_BLOCK // yi.size
    for a in range(0, xi.size, step):
        idx = (xi[a:a + step, None] + yi[None, :]).ravel()
        idx[idx >= n] -= n
        np.add.at(acc, idx, (xv[a:a + step, None] * yv[None, :]).ravel())
    nz = np.flatnonzero(acc)
    return SparseVector(n, nz.astype(np.int64), acc[nz])


def _fft_error_bound(x: SparseVector, y: SparseVector) -> float:
    """16 eps lg ||x||_2 ||y||_2, eps = 2^-53 and lg = ceil(log2 N): the
    error bound of _rounded_fft_product, whose length is at most 2^lg.

    Percival (Math. Comp. 72, 2003, Thm. 5.1) bounds a radix-2 FFT
    convolution of length 2^lg by about (3 + 3 sqrt5 + 3 beta/eps) lg eps
    ||x||_2 ||y||_2, beta the twiddle error: within twice this, so below
    0.5 where this reads under 0.25, for beta < 7.4 eps. numpy's pocketfft
    runs real-data radix-4 passes (one radix-2 pass for odd lg), each with
    half the twiddle products of two radix-2 passes. The argument does not
    close: the theorem is for complex data, and pocketfft's twiddles
    (products of two libm table entries) may reach about 7 eps. So the
    residue check stays the guard.
    """
    nx = float(np.sqrt(np.sum(x.coeffs.astype(np.float64) ** 2)))
    ny = float(np.sqrt(np.sum(y.coeffs.astype(np.float64) ** 2)))
    lg = max(1, int(x.length - 1).bit_length())
    return 8.0 * np.finfo(np.float64).eps * lg * nx * ny


def _rounded_fft_product(x: SparseVector, y: SparseVector,
                         strict: bool = False):
    """(x * y rounded to integers, exact) for nonzero x and y, from one
    real FFT of length N, or of the power of two above the top product
    index if that is below N: then nothing wraps, and the length is a
    power of two, as the analysis in _fft_error_bound assumes. exact is
    True iff that bound and every rounding residue are below 0.25.
    strict raises EnvelopeError where exact would be False, before the
    transform if the bound fails.
    """
    bounded = _fft_error_bound(x, y) < 0.25
    if strict and not bounded:
        raise EnvelopeError(
            "coefficient mass too large for float64 FFT rounding budget")
    n = x.length
    top = int(x.indices[-1]) + int(y.indices[-1])
    size = n if top >= n else 1 << top.bit_length()
    a = np.zeros(size, dtype=np.float64)
    b = np.zeros(size, dtype=np.float64)
    a[x.indices] = x.coeffs
    b[y.indices] = y.coeffs
    conv = np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), size)
    rounded = np.rint(conv)
    nz = np.flatnonzero(rounded)
    product = SparseVector(n, nz.astype(np.int64), rounded[nz].astype(np.int64))
    conv[product.indices] -= product.coeffs     # the rounding residues
    exact = bounded and np.abs(conv, out=conv).max() < 0.25
    if strict and not exact:
        raise EnvelopeError("FFT rounding residue exceeded the error budget")
    return product, exact


def dense_fft_multiply(x: SparseVector, y: SparseVector) -> SparseVector:
    """Cyclic convolution through a dense real FFT: both operands pass
    check_operand, then _dense_product runs."""
    _check_operands(x, y)
    return _dense_product(x, y)


def _dense_product(x: SparseVector, y: SparseVector) -> SparseVector:
    """x * y from _rounded_fft_product, for operands of equal length that
    pass check_operand; it checks nothing itself. Exact or EnvelopeError:
    the float error is bounded before the transform and the rounding
    residue checked against that budget after it.
    """
    if x.is_zero or y.is_zero:
        return zero_vector(x.length)
    return _rounded_fft_product(x, y, strict=True)[0]


def embed_for_product(u: SparseVector, v: SparseVector) -> tuple[SparseVector, SparseVector]:
    """Zero-pad degree-(n-1) polynomial operands to dimension N = 2n.

    At N = 2n the cyclic convolution never wraps, so it coincides with the
    polynomial product. Both operands must pass check_operand.
    """
    check_operand(u, "u")
    check_operand(v, "v")
    n = max(u.length, v.length)
    if 2 * n > MAX_DIMENSION:
        raise EnvelopeError(f"embedded dimension {2 * n} exceeds {MAX_DIMENSION}")
    x = SparseVector(2 * n, u.indices, u.coeffs)
    y = SparseVector(2 * n, v.indices, v.coeffs)
    return x, y


def poly_multiply_naive(u: SparseVector, v: SparseVector) -> SparseVector:
    """Exact polynomial product over [0, 2n) via the quadratic baseline."""
    x, y = embed_for_product(u, v)
    return _pair_product(x, y)


def poly_multiply_dense(u: SparseVector, v: SparseVector) -> SparseVector:
    """Exact polynomial product over [0, 2n) via the dense FFT baseline."""
    x, y = embed_for_product(u, v)
    return _dense_product(x, y)
