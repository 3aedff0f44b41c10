"""Folding into buckets: roots of unity, short convolutions, residuals."""

import mpmath
import numpy as np
import pytest

from sparseconv.folding import (BucketWorkspace, _fast_fft_length,
                                _unit_root_powers, cyclic_fft_convolve, fold,
                                heavy_residual_buckets, phased_coeffs)
from sparseconv.vectors import (cyclic_convolve_naive, from_arrays,
                                make_sparse_vector, subtract, zero_vector)

mpmath.mp.prec = 120

# Largest distance from the exact root that the phases may have: far
# inside the 0.1 re-encode tolerance and the pi / N root spacing.
ROOT_BUDGET = 1e-12


def root(j, n):
    return complex(_unit_root_powers(np.array([j]), n)[0])


def fold_vec(v, m):
    return fold(v.indices, phased_coeffs(v), m)


def mp_root(j, n):
    theta = mpmath.pi * j / n
    return mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta))


def test_root_identities():
    assert root(0, 16) == 1.0 + 0.0j
    # w^N = -1 is the sign carrier for negative coefficients
    assert abs(root(16, 16) - (-1.0)) < 1e-15
    assert abs(root(8, 16) - 1j) < 1e-15
    assert abs(root(24, 16) - (-1j)) < 1e-15


def test_root_against_mpmath():
    # the phase function production uses, at every dimension up to the
    # envelope's 2^26 and across the whole exponent range [0, 2N)
    cases = [(5, 8), (1, 3), (7, 7), (12, 7), (1 << 20, 1 << 24),
             ((1 << 27) - 1, 1 << 26), (1 << 26, 1 << 26)]
    rng = np.random.default_rng(31)
    for n in (1 << 24, 1 << 26):
        cases += [(int(j), n) for j in rng.integers(0, 2 * n, size=50)]
    for j, half in cases:
        got = root(j, half)
        err = float(abs(mpmath.mpc(got.real, got.imag) - mp_root(j, half)))
        assert err <= ROOT_BUDGET, (j, half, err)


def test_fold_single_term_bucket_and_phase():
    # coefficient 3 at index 5 of Z^8 lands in bucket 5 mod 3 = 2
    v = make_sparse_vector(8, [(5, 3)])
    f = fold_vec(v, 3)
    assert f.shape == (3,)
    assert abs(f[0]) < 1e-12 and abs(f[1]) < 1e-12
    assert abs(f[2] - 3 * root(5, 8)) < 1e-12


def test_fold_sums_collisions():
    # indices 1 and 5 collide mod 4; bucket holds the phased sum
    v = make_sparse_vector(8, [(1, 2), (5, -1)])
    f = fold_vec(v, 4)
    want = 2 * root(1, 8) - root(5, 8)
    assert abs(f[1] - want) < 1e-12


def test_negative_value_encodes_as_shifted_phase():
    # -c at index j has the phase of +c at j + N, since w^N = -1
    n = 32
    neg = fold_vec(make_sparse_vector(n, [(7, -4)]), 5)
    expect = 4 * root(7 + n, n)
    assert abs(neg[7 % 5] - expect) < 1e-12


def test_fold_is_linear():
    rng = np.random.default_rng(6)
    n, m = 128, 11
    for _ in range(10):
        xi = rng.choice(n, size=9, replace=False)
        yi = rng.choice(n, size=9, replace=False)
        x = from_arrays(n, xi, rng.integers(-20, 21, size=9))
        y = from_arrays(n, yi, rng.integers(-20, 21, size=9))
        both = fold_vec(x, m) + fold_vec(y, m)
        summed = fold_vec(make_sparse_vector(n, x.to_pairs() + y.to_pairs()), m)
        assert np.allclose(both, summed, atol=1e-10)


def cyclic_conv_quadratic(a, b):
    m = len(a)
    out = np.zeros(m, dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            out[(i + j) % m] += a[i] * b[j]
    return out


def test_fft_convolve_matches_quadratic_at_prime_length():
    rng = np.random.default_rng(13)
    for m in (1, 2, 5, 127):
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        got = cyclic_fft_convolve(a, b)
        assert np.allclose(got, cyclic_conv_quadratic(a, b), atol=1e-9)


def test_fast_fft_length_is_smallest_5_smooth_length():
    def smooth(k):
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        return k == 1

    want = 1
    for n in range(1, 5000):
        while not smooth(want) or want < n:
            want += 1
        assert _fast_fft_length(n) == want, n
    assert _fast_fft_length(2 * 4194301 - 1) == 8388608    # 2^23
    assert _fast_fft_length(2 * 1000003 - 1) == 2025000    # 2^3 3^4 5^5


def test_fft_convolve_bit_identical_to_padded_fft_and_leaves_inputs():
    # reference: pad both to P, multiply the spectra, fold the tail mod m
    rng = np.random.default_rng(31)
    for m in (2, 3, 127, 1000):
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        a0, b0 = a.copy(), b.copy()
        padded = _fast_fft_length(2 * m - 1)
        linear = np.fft.ifft(np.fft.fft(a, padded) * np.fft.fft(b, padded))
        want = linear[:m].copy()
        want[:m - 1] += linear[m:2 * m - 1]
        got = cyclic_fft_convolve(a, b)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_fft_convolve_rejects_mismatch():
    with pytest.raises(ValueError):
        cyclic_fft_convolve(np.ones(3), np.ones(4))


def test_fold_commutes_with_convolution():
    # fold(x (*) y, m) == fold(x, m) (*) fold(y, m): the core identity,
    # valid in the no-wrap regime (supports below N/2, as after embedding)
    rng = np.random.default_rng(21)
    n = 256
    for m in (7, 16, 61):
        xi = rng.choice(n // 2, size=12, replace=False)
        yi = rng.choice(n // 2, size=12, replace=False)
        x = from_arrays(n, xi, rng.integers(-50, 51, size=12))
        y = from_arrays(n, yi, rng.integers(-50, 51, size=12))
        direct = fold_vec(cyclic_convolve_naive(x, y), m)
        factored = cyclic_fft_convolve(fold_vec(x, m), fold_vec(y, m))
        assert np.max(np.abs(direct - factored)) < 1e-8


def test_fold_factoring_fails_with_wraparound():
    # outside the no-wrap regime the factored form flips signs; make sure
    # the test above is actually exercising a nontrivial precondition
    n = 16
    x = make_sparse_vector(n, [(15, 1)])
    direct = fold_vec(cyclic_convolve_naive(x, x), 3)
    factored = cyclic_fft_convolve(fold_vec(x, 3), fold_vec(x, 3))
    assert np.max(np.abs(direct - factored)) > 1.0


def _phases(v):
    return v.indices.copy(), phased_coeffs(v)


def _residual_buckets(x, y, w, m, threshold):
    return heavy_residual_buckets(*_phases(x), *_phases(y), *_phases(w), m,
                                  threshold)


def test_folded_residual_matches_exact_residual():
    # 100 pairs against 13 buckets: the fold route, which folds x and y
    # and convolves the folds; threshold 0 returns every bucket
    rng = np.random.default_rng(8)
    n, m = 128, 13
    xi = rng.choice(n // 2, size=10, replace=False)
    yi = rng.choice(n // 2, size=10, replace=False)
    x = from_arrays(n, xi, rng.integers(-30, 31, size=10))
    y = from_arrays(n, yi, rng.integers(-30, 31, size=10))
    exact = cyclic_convolve_naive(x, y)
    # recover all but three of the product terms
    w = make_sparse_vector(n, exact.to_pairs()[:-3])
    want = fold_vec(subtract(exact, w), m)
    ids, vals = _residual_buckets(x, y, w, m, 0.0)
    assert ids.tolist() == list(range(m))
    assert np.max(np.abs(vals - want)) < 1e-8


def test_folded_residual_zero_when_fully_recovered():
    x = make_sparse_vector(16, [(0, 1), (3, 2)])
    y = make_sparse_vector(16, [(1, 5)])
    w = cyclic_convolve_naive(x, y)
    for m in (1, 7):
        ids, _ = _residual_buckets(x, y, w, m, 1e-9)
        assert ids.size == 0


def _heavy_reference(x, y, w, m, threshold):
    """Residual buckets summed term by term, no fold and no FFT."""
    residual = subtract(cyclic_convolve_naive(x, y), w)
    sums = {}
    for j, c in zip(residual.indices.tolist(), phased_coeffs(residual)):
        sums[j % m] = sums.get(j % m, 0) + c
    ids = sorted(b for b, c in sums.items() if abs(c) >= threshold)
    return np.array(ids, dtype=np.int64), np.array([sums[b] for b in ids])


@pytest.mark.parametrize("m,k", [
    (8, 15),          # pairs = 225 > 8 buckets
    (4096, 6),        # pairs = 36, far fewer than buckets
    (4194319, 6),     # a prime above 2^22, far beyond the dimension 2^14
    (1 << 14, 6),     # m = N, as locate folds for a prime p >= N
])
def test_heavy_buckets_match_reference(m, k):
    rng = np.random.default_rng(m * 1000 + k)
    n = 1 << 14
    xi = rng.choice(n // 2, size=k, replace=False)
    yi = rng.choice(n // 2, size=k, replace=False)
    x = from_arrays(n, xi, rng.integers(1, 50, size=k))
    y = from_arrays(n, yi, rng.integers(1, 50, size=k))
    exact = cyclic_convolve_naive(x, y)
    w = make_sparse_vector(n, exact.to_pairs()[::2])
    jx, px = _phases(x)
    jy, py = _phases(y)
    jw, pw = _phases(w)
    want_ids, want_vals = _heavy_reference(x, y, w, m, 0.5)
    for workspace in (None, BucketWorkspace()):
        ids, vals = heavy_residual_buckets(jx, px, jy, py, jw, pw, m, 0.5,
                                           workspace)
        order = np.argsort(ids)
        assert ids[order].tolist() == want_ids.tolist()
        assert np.allclose(vals[order], want_vals, atol=1e-6)
    # from m >= N on no index sum reaches m: no padding to 2m - 1
    assert (workspace._spectra.shape[1] < 2 * m - 1) == (m >= n)


def test_workspace_reuse_matches_fresh_calls():
    # moduli that shrink and then grow within one workspace, one of them
    # (m = N) unpadded: a longer modulus must leave no stale tail behind
    rng = np.random.default_rng(5)
    n = 1 << 14
    k = 60
    x = from_arrays(n, rng.choice(n // 2, size=k, replace=False),
                    rng.integers(-40, 41, size=k) | 1)
    y = from_arrays(n, rng.choice(n // 2, size=k, replace=False),
                    rng.integers(-40, 41, size=k) | 1)
    exact = cyclic_convolve_naive(x, y)
    w = make_sparse_vector(n, exact.to_pairs()[::3])
    args = (*_phases(x), *_phases(y), *_phases(w))
    workspace = BucketWorkspace()
    for m in (1999, 1009, 1 << 14, 101, 7, 211, 3001, 2, 1499):
        for threshold in (0.5, 0.0):
            want_ids, want_vals = heavy_residual_buckets(*args, m, threshold)
            ids, vals = heavy_residual_buckets(*args, m, threshold, workspace)
            assert np.array_equal(ids, want_ids), m
            assert np.array_equal(vals, want_vals), m
    # what a call returns is its own: later calls do not overwrite it
    ids, vals = heavy_residual_buckets(*args, 1009, 0.0, workspace)
    kept = vals.copy()
    heavy_residual_buckets(*args, 1999, 0.0, workspace)
    assert np.array_equal(vals, kept)


def test_heavy_buckets_empty_inputs():
    e_i = np.empty(0, dtype=np.int64)
    e_v = np.empty(0, dtype=np.complex128)
    ids, vals = heavy_residual_buckets(e_i, e_v, e_i, e_v, e_i, e_v, 64, 0.5)
    assert ids.size == 0 and vals.size == 0
    # x empty but w nonzero: residual is -w
    v = make_sparse_vector(32, [(3, 7)])
    jw, pw = _phases(v)
    ids, vals = heavy_residual_buckets(e_i, e_v, e_i, e_v, jw, pw, 5, 0.5)
    assert ids.tolist() == [3]
    assert abs(vals[0] + 7 * root(3, 32)) < 1e-12


def test_fold_of_zero_vector():
    f = fold_vec(zero_vector(64), 9)
    assert f.shape == (9,)
    assert np.all(f == 0)
