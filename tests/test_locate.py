"""Heavy-coordinate recovery: decoding, validation, one fold per call."""

import mpmath
import numpy as np
import pytest

from sparseconv import folding, locate
from sparseconv.driver import exact_read_limit
from sparseconv.folding import _unit_root_powers
from sparseconv.locate import (decode_indices, locate_with_report,
                               prime_range_for)
from sparseconv.primes import uniform_prime_below
from sparseconv.vectors import (cyclic_convolve_naive, from_arrays,
                                make_sparse_vector, subtract, zero_vector)


def test_prime_range_formula():
    # the prime range is 8C * B = 128 B with C = 16, whatever the dimension
    assert prime_range_for(1) == 128
    assert prime_range_for(3) == 128 * 3
    assert prime_range_for(2048) == 128 * 2048


def decode_roots(js, n):
    js = np.asarray(js, dtype=np.int64)
    return decode_indices(_unit_root_powers(js, n), n)


def test_decode_index_exact_roots():
    assert decode_indices(np.array([1 + 0j, -1 + 0j]), 8).tolist() == [0, 8]
    assert decode_roots([5, 15], 8).tolist() == [5, 15]  # 15: last exponent
    n = 1 << 12
    js = [1, n // 2, n - 1, n, n + 1, 2 * n - 1]
    assert decode_roots(js, n).tolist() == js


def test_decode_exact_on_every_root_small_dimensions():
    for n in (1, 2, 3, 7, 255, 256):
        js = np.arange(2 * n)
        assert np.array_equal(decode_roots(js, n), js), n


def test_decode_index_is_nearest_root():
    # contract: return the exponent minimizing |u - w^j|, whatever u is;
    # brute force over all 2N roots is the oracle
    n = 256
    roots = _unit_root_powers(np.arange(2 * n), n)
    rng = np.random.default_rng(3)
    js = rng.integers(0, 2 * n, size=300)
    mags = rng.uniform(1, 900, size=300)
    noise = rng.normal(scale=0.05, size=300) + 1j * rng.normal(scale=0.05,
                                                             size=300)
    readings = mags * (roots[js] + noise)
    want = np.argmin(np.abs(readings[:, None] - roots[None, :]), axis=1)
    assert decode_indices(readings, n).tolist() == want.tolist()


def test_decode_index_exact_under_subspacing_noise():
    # readings within half the root spacing still decode exactly
    n = 1 << 10
    spacing = np.pi / n
    rng = np.random.default_rng(14)
    js = rng.integers(0, 2 * n, size=200)
    mags = rng.uniform(1, 900, size=200)
    phase_err = rng.uniform(-0.4, 0.4, size=200) * spacing
    readings = mags * np.exp(1j * (js * np.pi / n + phase_err))
    assert decode_indices(readings, n).tolist() == js.tolist()


def test_decode_matches_high_precision_phase_on_noisy_large_n():
    # noise of 0.01 moves readings thousands of root spacings at n = 2^20;
    # the oracle rounds the phase of each reading in 120-bit arithmetic
    n = 1 << 20
    rng = np.random.default_rng(17)
    js = rng.integers(0, 2 * n, size=400)
    noise = rng.normal(scale=0.01, size=js.size) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, size=js.size))
    readings = _unit_root_powers(js, n) + noise
    with mpmath.workprec(120):
        want = [int(mpmath.nint(mpmath.arg(mpmath.mpc(u.real, u.imag))
                                * n / mpmath.pi)) % (2 * n)
                for u in readings]
    assert decode_indices(readings, n).tolist() == want


def embedded(n, pairs):
    """Vector over Z^{2n} supported on [0, n), as the driver produces."""
    return make_sparse_vector(2 * n, pairs)


def run_of_ones(length, n=1 << 13):
    """1 + z + ... + z^(length - 1), embedded at N = 2n = 2^14."""
    return embedded(n, [(j, 1) for j in range(length)])


def folds(x, y, budget):
    """The pairs of x * y outnumber the exact-read limit, and the dense
    reading at N does not apply: a peel at this budget calls locate."""
    limit = exact_read_limit(budget, x.length)
    return x.l0 * y.l0 > limit and 4 * limit < x.length


def spread(count, n=1 << 13):
    """count terms evenly spaced over [0, n), embedded at N = 2n = 2^14.

    64 of them make 4096 pairs with themselves, more than the exact-read
    limit E = 3584 at budget 16, while 4E = 14336 < N: a call draws a
    prime from [L/2, L] = [1024, 2048] and folds at it.
    """
    return embedded(n, [(j * (n // count), 1 + j % 7) for j in range(count)])


def test_locate_recovers_simple_residual():
    # y = (z - 1)(1 + 2z^3 - 4z^10), so 1200 * 6 pairs give the six terms
    # of (z^1200 - 1)(1 + 2z^3 - 4z^10)
    x = run_of_ones(1200)
    y = embedded(1 << 13, [(0, -1), (1, 1), (3, -2), (4, 2), (10, 4),
                           (11, -4)])
    w = zero_vector(x.length)
    want = cyclic_convolve_naive(x, y)
    assert want.l0 == 6 and folds(x, y, 16)
    rng = np.random.default_rng(5)
    z, report = locate_with_report(x, y, w, bucket_budget=16, rng=rng)
    assert z == want
    assert report.primes


def test_locate_recovers_negative_only_residual():
    # exercises the w^(j + N) sign path, including index 0: x * y =
    # (z^1200 - 1)(3 + 2z^7), and w holds its two positive terms
    x = run_of_ones(1200)
    y = embedded(1 << 13, [(0, -3), (1, 3), (7, -2), (8, 2)])
    assert folds(x, y, 16)
    w = make_sparse_vector(x.length, [(1200, 3), (1207, 2)])
    rng = np.random.default_rng(11)
    z, report = locate_with_report(x, y, w, 16, rng)
    assert z == subtract(cyclic_convolve_naive(x, y), w)
    assert z.to_pairs() == [(0, -3), (7, -2)]
    assert report.primes


def test_locate_subtracts_recovered_part():
    # 64 x 64 random terms; w holds all of the product but four terms and
    # one wrong coefficient, so the residual has five terms
    n = 1 << 13
    rng_inst = np.random.default_rng(2)
    xi = rng_inst.choice(n, size=64, replace=False)
    yi = rng_inst.choice(n, size=64, replace=False)
    x = from_arrays(2 * n, xi, rng_inst.integers(1, 50, size=64))
    y = from_arrays(2 * n, yi, rng_inst.integers(1, 50, size=64))
    assert folds(x, y, 16)
    exact = cyclic_convolve_naive(x, y)
    pairs = exact.to_pairs()
    w = make_sparse_vector(2 * n, pairs[4:] + [(pairs[-1][0], 1)])
    residual = subtract(exact, w)
    assert residual.l0 == 5
    z, report = locate_with_report(x, y, w, 16, np.random.default_rng(9))
    assert z == residual
    assert report.primes


def test_locate_budget_cutoff_aborts_whole_call():
    # residual has 180 well-spread terms but the budget admits only 1 heavy
    # bucket, so the fold must trip the cutoff and return zero.
    # N = 2048 at budget 1: E = 176, so 180 pairs > E fold at a prime
    # and 4E < N rules out the dense reading at N
    n = 1 << 10
    x = embedded(n, [(101 * i + 7, 3) for i in range(10)])
    y = embedded(n, [(j, 1) for j in range(18)])
    assert folds(x, y, 1)
    z, report = locate_with_report(x, y, zero_vector(2 * n), 1,
                                   np.random.default_rng(1))
    assert z.is_zero
    assert report.aborted_rep == 0
    assert report.reps_run == len(report.primes) == 1  # gave up at once


def test_locate_output_size_is_budget_bounded():
    # l0(z) can never exceed the budget even on adversarial inputs: here
    # a residual as large as the budget, at N = 2^13 (E = 1664, L = 1024)
    n = 1 << 12
    rng_inst = np.random.default_rng(4)
    xi = rng_inst.choice(n, size=130, replace=False)
    x = from_arrays(2 * n, xi, np.ones(130, dtype=np.int64))
    y = embedded(n, [(j, 1) for j in range(16)])
    budget = 8
    assert folds(x, y, budget)
    exact = cyclic_convolve_naive(x, y)
    w = make_sparse_vector(2 * n, exact.to_pairs()[budget:])
    z, report = locate_with_report(x, y, w, budget,
                                   np.random.default_rng(3))
    assert report.primes
    assert z.l0 <= budget
    assert np.unique(z.indices).size == z.l0  # no duplicate indices


def test_locate_empty_residual_reports_quiet():
    x = spread(64)
    w = cyclic_convolve_naive(x, x)
    assert folds(x, x, 16)
    z, report = locate_with_report(x, x, w, 16, np.random.default_rng(8))
    assert z.is_zero
    assert report.aborted_rep is None
    # a quiet fold ends the call
    assert report.reps_run == len(report.primes) == 1
    assert report.heavy_counts == [0]


def test_locate_zero_times_zero():
    z, _ = locate_with_report(zero_vector(16), zero_vector(16),
                              zero_vector(16), 4, np.random.default_rng(0))
    assert z.is_zero


def test_locate_primes_within_sieve_range():
    # a two-term residual keeps the fold heavy
    x = spread(64)
    exact = cyclic_convolve_naive(x, x)
    w = make_sparse_vector(x.length, exact.to_pairs()[2:])
    z, report = locate_with_report(x, x, w, 16, np.random.default_rng(12))
    limit = prime_range_for(16)
    assert folds(x, x, 16) and 2 * limit < x.length
    assert all(limit // 2 <= p <= limit for p in report.primes)
    assert len(report.primes) == 1
    assert z == subtract(exact, w)


def test_locate_is_deterministic_given_rng_state():
    x = spread(64)
    exact = cyclic_convolve_naive(x, x)
    w = make_sparse_vector(x.length, exact.to_pairs()[3:])
    a, report_a = locate_with_report(x, x, w, 16, np.random.default_rng(42))
    b, report_b = locate_with_report(x, x, w, 16, np.random.default_rng(42))
    assert a == b
    assert report_a.primes and report_a.primes == report_b.primes


def test_locate_folds_whatever_the_pair_count():
    # a call always folds: at exactly E pairs, where a peel
    # would read the product exactly, as at E + 1, drawing its prime
    # from the range [L/2, L] = [64, 128] of budget 1, below N/2
    n = 512                             # N = 1024, budget 1: E = 160
    limit = exact_read_limit(1, 2 * n)
    assert limit == 160 == 10 * 16 and limit + 1 == 7 * 23
    x = embedded(n, [(j, 2 * j - 7) for j in range(10)])  # 10 * 16 pairs
    y = embedded(n, [(3 * j, 9 - 2 * j) for j in range(16)])
    x7 = embedded(n, [(j, j + 1) for j in range(7)])
    y23 = embedded(n, [(j, j + 2) for j in range(23)])
    assert not folds(x, y, 1) and folds(x7, y23, 1)
    for a, b, pairs in ((x, y, limit), (x7, y23, limit + 1)):
        assert a.l0 * b.l0 == pairs
        exact = cyclic_convolve_naive(a, b)
        w = make_sparse_vector(2 * n, exact.to_pairs()[1:])
        z, report = locate_with_report(a, b, w, 1, np.random.default_rng(3))
        assert z == subtract(exact, w) and z.l0 == 1
        assert len(report.primes) == report.reps_run == 1
        assert all(64 <= p <= prime_range_for(1) == 128
                   for p in report.primes)


def test_locate_makes_one_draw_and_one_fold(monkeypatch):
    # N = 2^14 at budget 18: E = 4032, so 4E is just below N and the
    # modulus is a drawn prime of [L/2, L] = [1152, 2304], below N/2
    draws, moduli = [], []
    real_draw = locate.uniform_prime_below
    real_fold = folding.heavy_residual_buckets

    def drawing(limit, rng):
        draws.append(real_draw(limit, rng))
        return draws[-1]

    def folding_at(x, y, w, m, threshold):
        moduli.append(m)
        return real_fold(x, y, w, m, threshold)

    monkeypatch.setattr(locate, "uniform_prime_below", drawing)
    monkeypatch.setattr(folding, "heavy_residual_buckets", folding_at)
    x = spread(128)
    assert folds(x, x, 18)
    assert x.length <= 4 * exact_read_limit(18, x.length) + 256
    limit = prime_range_for(18)
    exact = cyclic_convolve_naive(x, x)
    w = make_sparse_vector(x.length, exact.to_pairs()[1:])
    for seed in range(5):
        draws.clear()
        moduli.clear()
        z, report = locate_with_report(x, x, w, 18,
                                       np.random.default_rng(seed))
        assert z == subtract(exact, w)
        assert len(draws) == len(moduli) == report.reps_run == 1
        assert draws == moduli == report.primes
        assert limit // 2 <= moduli[0] <= limit


@pytest.mark.parametrize("shift, magnitude, want", [
    pytest.param(0, 3.0, [(5, 3)], id="0-want0"),
    pytest.param(1, 3.0, [], id="1-want1"),
    pytest.param(0, 3.4, [(5, 3)], id="off_root_in_bucket"),
    pytest.param(0, 0.5, [], id="rounds_to_zero"),
])
def test_reading_outside_its_bucket_is_dropped(monkeypatch, shift, magnitude,
                                               want):
    # The fold reports one heavy bucket whose phase decodes to x^5. In
    # bucket 5 mod p it is a term, whose value is its magnitude rounded,
    # even 0.4 off the root; in the next bucket it cannot be an isolated
    # term, so it is junk and yields nothing. A magnitude of 0.5 is heavy
    # but rounds to 0, which is no term.
    x = spread(64)
    reading = magnitude * _unit_root_powers(np.array([5]), x.length)

    def one_bucket(x, y, w, m, threshold):
        return np.array([(5 + shift) % m]), reading

    monkeypatch.setattr(folding, "heavy_residual_buckets", one_bucket)
    z, report = locate_with_report(x, x, zero_vector(x.length), 16,
                                   np.random.default_rng(6))
    assert len(report.primes) == report.reps_run == 1
    assert z.to_pairs() == want


def test_locate_reads_values_of_at_least_2_to_the_35():
    # coefficients 57 * 2^30 .. 64 * 2^30 of x * y: the decode keeps
    # (index, value) pairs of any int64 width
    n = 1 << 13                         # N = 2^14, budget 16: E = 3584
    x = embedded(n, [(j, 1 << 15) for j in range(64)])
    y = embedded(n, [(j, -(1 << 15)) for j in range(64)])
    exact = cyclic_convolve_naive(x, y)
    w = make_sparse_vector(2 * n, [(j, c) for j, c in exact.to_pairs()
                                   if not 56 <= j < 64])
    z, report = locate_with_report(x, y, w, 16, np.random.default_rng(7))
    assert folds(x, y, 16)
    assert len(report.primes) == report.reps_run == 1
    assert z == subtract(exact, w)
    assert z.l0 == 8 and int(np.abs(z.coeffs).min()) >= 1 << 35


def test_isolation_rate_with_the_range_below_the_dimension():
    # acceptance check 5 draws its primes above N = 2^16, where no two
    # indices can share a bucket; here N = 2^22 and budget 2048 give
    # L = 2^18 < N/2. The mean share of a 100-term support that shares a
    # bucket stays below the bound 99 * 10 ln N / (3L) of locate_with_report.
    n, budget, k = 1 << 22, 2048, 100
    limit = prime_range_for(budget)
    assert 2 * limit < n
    rng = np.random.default_rng(56)
    shared = []
    for _ in range(200):
        support = rng.choice(n, size=k, replace=False)
        p = uniform_prime_below(limit, rng)
        hits = np.bincount(support % p, minlength=p)
        shared.append(np.count_nonzero(hits[support % p] > 1) / k)
    assert np.mean(shared) <= (k - 1) * 10 * np.log(n) / (3 * limit)
    assert sum(s <= 1 / 16 for s in shared) >= 170
