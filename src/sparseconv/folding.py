"""Phase-weighted folding of sparse vectors into short bucket arrays.

A vector x in Z^N is folded modulo m into bucket array
    (P_m x)_b = sum over j = b (mod m) of x_j * w^j,   w = e^{i*pi/N},
so bucket magnitudes carry coefficient values and bucket phases carry the
originating index. Folding is linear, and when the supports of x and y sum
below N (the polynomial embedding at N = 2n guarantees this) folds of the
cyclic convolution factor through cyclic convolution of the folds, which
is what lets short FFTs observe a length-N product. With wrap-around the
factored form picks up a sign flip per wrapped pair, so
heavy_residual_buckets must not be fed unembedded full-support operands.
"""

from __future__ import annotations

import numpy as np

from .vectors import SparseVector


def _unit_root_powers(indices: np.ndarray, half_order: int) -> np.ndarray:
    """w^j for w = e^{i*pi/half_order} and integers j in [0, 2*half_order).

    float64 throughout: the argument pi * j / N is one rounding of a value
    below 2*pi, so every root is within about 1e-15 of the exact one, far
    inside the pi / N root spacing.
    """
    return np.exp((1j * np.pi / half_order) * indices)


def phased_coeffs(v: SparseVector) -> np.ndarray:
    """coeff_j * w^j for every stored term of v (N = v.length)."""
    return v.coeffs * _unit_root_powers(v.indices, v.length)


def fold(v: SparseVector, m: int) -> np.ndarray:
    """Fold v into m buckets: bucket b sums coeff_j * w^j over the stored
    terms with j = b (mod m)."""
    # Indices are non-negative: this is indices % m, in about half the time.
    bucket = v.indices - v.indices // m * m
    phased = phased_coeffs(v)
    out = np.empty(m, dtype=np.complex128)
    out.real = np.bincount(bucket, weights=phased.real, minlength=m)
    out.imag = np.bincount(bucket, weights=phased.imag, minlength=m)
    return out


def _fast_fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT handles fast.

    It is within a few percent of n, where the next power of two can be
    nearly twice it.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def combined_pair_terms(jx: np.ndarray, px: np.ndarray,
                        jy: np.ndarray, py: np.ndarray):
    """All term pairs of a product: raw index sums and coefficient products.

    No route of the package builds these; only perfbench's tracer looks
    the name up. It goes together with primes.sieve_primes once perfbench
    stops patching module attributes (ROADMAP item 3).
    """
    return np.add.outer(jx, jy).ravel(), np.multiply.outer(px, py).ravel()


def heavy_residual_buckets(x: SparseVector, y: SparseVector,
                           w: SparseVector, m: int, threshold: float):
    """Residual buckets with |value| >= threshold (heavy), for one modulus.

    Folds x, y and the recovered part w separately and convolves the
    length-m folds of x and y with FFTs: O(terms + m log m), independent
    of the pair count. Its two FFT rows are one allocation, padded to the
    smooth length at or above 2m - 1.

    Returns (bucket_indices, bucket_values) of the heavy buckets, at most
    m of them; all other buckets are zero up to fold rounding error, far
    below threshold.
    """
    fa, fb = np.empty((2, _fast_fft_length(2 * m - 1)), dtype=np.complex128)
    fa[:m], fb[:m] = fold(x, m), fold(y, m)
    fa[m:] = fb[m:] = 0
    # In place: fresh arrays per transform give the same buckets bit for
    # bit but are 1.09-1.18x slower at m = 16411 .. 262147 (about even at
    # 4099; blocked_telescoping_instance(14, 1024), 2-core Xeon, numpy
    # 2.4.6).
    np.fft.fft(fa, out=fa)
    np.fft.fft(fb, out=fb)
    np.multiply(fa, fb, out=fa)
    np.fft.ifft(fa, out=fa)
    conv, tail = fa[:m], fa[m:2 * m - 1]
    conv[:tail.size] += tail
    if not w.is_zero:
        conv -= fold(w, m)
    ids = np.flatnonzero(np.abs(conv) >= threshold)
    return ids, conv[ids]
