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
At m >= N nothing wraps and the transform needs length m, not 2m - 1:
locate folds at N for any prime p >= N/2, and never longer.
"""

from __future__ import annotations

import numpy as np

from .vectors import SparseVector


def _unit_root_powers(indices: np.ndarray, half_order: int) -> np.ndarray:
    """w^j for w = e^{i*pi/half_order} and integers j in [0, 2*half_order).

    float64 throughout: the argument pi * j / N is one rounding of a value
    below 2*pi, so every root is within about 1e-15 of the exact one, far
    inside the 0.1 re-encode tolerance and the pi / N root spacing.
    """
    return np.exp((1j * np.pi / half_order) * indices)


def phased_coeffs(v: SparseVector) -> np.ndarray:
    """coeff_j * w^j for every stored term of v (N = v.length)."""
    if v.is_zero:
        return np.empty(0, dtype=np.complex128)
    return v.coeffs * _unit_root_powers(v.indices, v.length)


def fold(indices: np.ndarray, phased: np.ndarray, m: int) -> np.ndarray:
    """Fold phase-weighted terms into m buckets: bucket b sums phased[t]
    over the terms with indices[t] = b (mod m). See phased_coeffs."""
    out = np.empty(m, dtype=np.complex128)
    _fold_into(out, indices, phased, m)
    return out


def _fold_into(out: np.ndarray, indices: np.ndarray, phased: np.ndarray,
               m: int) -> None:
    """fold(indices, phased, m), written into the length-m array out."""
    bucket = indices % m
    out.real = np.bincount(bucket, weights=phased.real, minlength=m)
    out.imag = np.bincount(bucket, weights=phased.imag, minlength=m)


def _fast_fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def cyclic_fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution of two equal-length complex arrays.

    Works at any length (prime lengths included) by zero-padding to a
    5-smooth length >= 2m - 1, convolving linearly with FFTs, and folding
    the tail back mod m. A smooth length is within a few percent of
    2m - 1, where the next power of two can be nearly twice it.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two 1-d arrays of equal length")
    m = a.size
    if m == 0:
        raise ValueError("empty input")
    if m == 1:
        return a * b
    padded = _fast_fft_length(2 * m - 1)
    fa = np.zeros(padded, dtype=np.complex128)
    fb = np.zeros(padded, dtype=np.complex128)
    fa[:m] = a
    fb[:m] = b
    return _convolve_padded(fa, fb, m).copy()


def _convolve_padded(fa: np.ndarray, fb: np.ndarray, m: int) -> np.ndarray:
    """Cyclic length-m convolution of fa[:m] and fb[:m], in place.

    fa and fb have the same length, at least 2m - 1 (m if no index sum of
    the folds reaches m), and hold zeros past m. Returns a view of fa[:m];
    fb is left holding junk. Every step writes into fa or fb, so a caller
    that keeps them across moduli page-faults them in once, not per modulus.
    """
    np.fft.fft(fa, out=fa)
    np.fft.fft(fb, out=fb)
    np.multiply(fa, fb, out=fa)
    np.fft.ifft(fa, out=fa)
    conv, tail = fa[:m], fa[m:2 * m - 1]
    conv[:tail.size] += tail
    return conv


def combined_pair_terms(jx: np.ndarray, px: np.ndarray,
                        jy: np.ndarray, py: np.ndarray):
    """All term pairs of a product: raw index sums and coefficient products.

    No route of the package builds these; only perfbench's tracer looks
    the name up. It goes together with primes.sieve_primes once perfbench
    stops patching module attributes (ROADMAP item 5).
    """
    return np.add.outer(jx, jy).ravel(), np.multiply.outer(px, py).ravel()


class BucketWorkspace:
    """The two FFT buffers heavy_residual_buckets keeps across the moduli
    of one operand pair, grown to the largest length seen. One per locate
    call, dropped when the call returns."""

    def __init__(self):
        self._spectra = np.empty((2, 0), dtype=np.complex128)

    def spectra(self, length: int):
        """Two complex buffers of the given length, contents undefined."""
        if self._spectra.shape[1] < length:
            del self._spectra           # release the shorter pair first
            self._spectra = np.empty((2, length), dtype=np.complex128)
        return self._spectra[0, :length], self._spectra[1, :length]


def heavy_residual_buckets(jx: np.ndarray, px: np.ndarray,
                           jy: np.ndarray, py: np.ndarray,
                           jw: np.ndarray, pw: np.ndarray,
                           m: int, threshold: float, workspace=None):
    """Occupied residual buckets with |value| >= threshold, for one modulus.

    Inputs are index arrays and matching phase-weighted coefficient arrays
    (see phased_coeffs) for x, y, and the recovered part w. Folds x, y and
    w separately and convolves the length-m folds of x and y with FFTs:
    O(terms + m log m), independent of the pair count.

    workspace, a BucketWorkspace, carries the FFT buffers from one modulus
    to the next: pass the same one for every modulus tried on one x and y.

    Returns (bucket_indices, bucket_values) of the heavy buckets only; all
    other buckets are zero up to fold rounding error, far below threshold.
    Neither array shares memory with the workspace.
    """
    if workspace is None:
        workspace = BucketWorkspace()
    # Folds whose index sums stay below m (m >= N, embedded) never wrap.
    top = int(jx.max(initial=0)) + int(jy.max(initial=0))
    fa, fb = workspace.spectra(_fast_fft_length(2 * m - 1 if top >= m else m))
    _fold_into(fa[:m], jx, px, m)
    _fold_into(fb[:m], jy, py, m)
    fa[m:] = 0
    fb[m:] = 0
    conv = _convolve_padded(fa, fb, m)
    # fb is free again: it takes the fold of w, then the magnitudes.
    if jw.size:
        _fold_into(fb[:m], jw, pw, m)
        conv -= fb[:m]
    magnitude = np.abs(conv, out=fb.view(np.float64)[:m])
    heavy = np.flatnonzero(magnitude >= threshold)
    return heavy.astype(np.int64), conv[heavy]
