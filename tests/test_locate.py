"""Heavy-coordinate recovery: decoding, validation, majority pruning."""

import mpmath
import numpy as np
import pytest

from sparseconv import folding
from sparseconv.folding import _unit_root_powers
from sparseconv.locate import (LocateParams, decode_indices, locate,
                               locate_with_report, prime_range_for)
from sparseconv.vectors import (cyclic_convolve_naive, from_arrays,
                                make_sparse_vector, subtract, zero_vector)


def test_params_from_budget():
    p = LocateParams.for_budget(64, 0.1)
    # reps = 5 * ceil(log2(10)) = 20, prune at ceil(0.75 * 20) = 15
    assert p.reps == 20
    assert p.prune_threshold == 15
    assert LocateParams.for_budget(1, 0.5).reps == 5
    with pytest.raises(ValueError):
        LocateParams.for_budget(0, 0.1)
    with pytest.raises(ValueError):
        LocateParams.for_budget(4, 1.5)


def test_sieve_limit_formula():
    # 2C * B * ceil(log2 N) with C = 16, never below 42 (L/2 >= 21)
    assert prime_range_for(128, 1 << 16) == 32 * 128 * 16
    assert prime_range_for(3, 1000) == 32 * 3 * 10
    assert prime_range_for(1, 2) == 42
    assert prime_range_for(1, 3) == 64


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


def test_locate_recovers_simple_residual():
    n = 64
    x = embedded(n, [(0, 1), (3, 2), (10, -4)])
    y = embedded(n, [(1, 5)])
    w = zero_vector(2 * n)
    want = cyclic_convolve_naive(x, y)
    rng = np.random.default_rng(5)
    z = locate(x, y, w, bucket_budget=64, delta=0.1, rng=rng)
    assert z == want


def test_locate_recovers_negative_only_residual():
    # exercises the w^(j + N) sign path, including index 0
    n = 32
    x = embedded(n, [(0, -3), (7, -2)])
    y = embedded(n, [(0, 1)])
    rng = np.random.default_rng(11)
    z = locate(x, y, zero_vector(2 * n), 64, 0.1, rng)
    assert z == cyclic_convolve_naive(x, y)
    assert z.to_pairs() == [(0, -3), (7, -2)]


def test_locate_subtracts_recovered_part():
    n = 128
    rng_inst = np.random.default_rng(2)
    xi = rng_inst.choice(n, size=8, replace=False)
    yi = rng_inst.choice(n, size=8, replace=False)
    x = from_arrays(2 * n, xi, rng_inst.integers(1, 50, size=8))
    y = from_arrays(2 * n, yi, rng_inst.integers(1, 50, size=8))
    exact = cyclic_convolve_naive(x, y)
    w = make_sparse_vector(2 * n, exact.to_pairs()[: exact.l0 // 2])
    residual = subtract(exact, w)
    z = locate(x, y, w, 256, 0.05, np.random.default_rng(9))
    assert z == residual


def test_locate_budget_cutoff_aborts_whole_call():
    # residual has 10 well-spread terms but the budget admits only 1 heavy
    # bucket, so every repetition must trip the cutoff and return zero
    n = 1 << 10
    pairs = [(101 * i + 7, 3) for i in range(10)]
    x = embedded(n, pairs)
    y = embedded(n, [(0, 1)])
    z, report = locate_with_report(x, y, zero_vector(2 * n), 1, 0.25,
                                   np.random.default_rng(1))
    assert z.is_zero
    assert report.aborted_rep == 0
    assert report.reps_run == 1  # gave up on the first repetition


def test_locate_output_size_is_budget_bounded():
    # l0(z) can never exceed budget * reps even on adversarial inputs
    n = 256
    rng_inst = np.random.default_rng(4)
    xi = rng_inst.choice(n, size=16, replace=False)
    x = from_arrays(2 * n, xi, np.ones(16, dtype=np.int64))
    y = embedded(n, [(0, 1), (1, 1)])
    budget = 8
    z, report = locate_with_report(x, y, zero_vector(2 * n), budget, 0.2,
                                   np.random.default_rng(3))
    assert z.l0 <= budget * report.params.reps
    assert np.unique(z.indices).size == z.l0  # no duplicate indices


def test_locate_empty_residual_reports_quiet():
    n = 64
    x = embedded(n, [(2, 3)])
    y = embedded(n, [(4, -7)])
    w = cyclic_convolve_naive(x, y)
    z, report = locate_with_report(x, y, w, 32, 0.1, np.random.default_rng(8))
    assert z.is_zero
    assert not report.saw_heavy
    assert report.aborted_rep is None
    # the first quiet repetition ends the call
    assert report.reps_run == 1
    assert report.heavy_counts == [0]


def test_locate_zero_times_zero():
    z = locate(zero_vector(16), zero_vector(16), zero_vector(16), 4, 0.1,
               np.random.default_rng(0))
    assert z.is_zero


def test_locate_primes_within_sieve_range():
    n = 64
    x = embedded(n, [(1, 1)])
    y = embedded(n, [(2, 1)])
    _, report = locate_with_report(x, y, zero_vector(2 * n), 16, 0.1,
                                   np.random.default_rng(12))
    limit = prime_range_for(16, 2 * n)
    assert all(limit // 2 <= p <= limit for p in report.primes)
    assert len(report.primes) == report.params.reps


def test_locate_is_deterministic_given_rng_state():
    n = 128
    x = embedded(n, [(0, 2), (5, -3), (17, 9)])
    y = embedded(n, [(1, 4), (9, 1)])
    w = zero_vector(2 * n)
    a = locate(x, y, w, 64, 0.1, np.random.default_rng(42))
    b = locate(x, y, w, 64, 0.1, np.random.default_rng(42))
    assert a == b


def test_locate_builds_pair_terms_once_and_only_for_direct_route(monkeypatch):
    builds = []
    real = folding.combined_pair_terms

    def counting(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(folding, "combined_pair_terms", counting)
    n = 1 << 10
    # 2 pairs, fewer than any prime modulus above 2: every repetition
    # takes the direct route and they share one build
    x = embedded(n, [(1, 1), (9, 2)])
    y = embedded(n, [(2, 1)])
    z, report = locate_with_report(x, y, zero_vector(2 * n), 64, 0.1,
                                   np.random.default_rng(4))
    assert z == cyclic_convolve_naive(x, y)
    assert report.reps_run > 1 and len(builds) == 1
    # 64 * 64 pairs outnumber every prime in the range of budget
    # 1: every repetition folds, so the pair terms are never built
    builds.clear()
    x = embedded(n, [(j, 1) for j in range(64)])
    locate_with_report(x, x, zero_vector(2 * n), 1, 0.1,
                       np.random.default_rng(4))
    assert prime_range_for(1, 2 * n) < 64 * 64
    assert builds == []


@pytest.mark.parametrize("shift, want", [(0, [(5, 3)]), (1, [])])
def test_reading_outside_its_bucket_is_dropped(monkeypatch, shift, want):
    # Every repetition reports one heavy bucket that decodes cleanly to
    # 3 x^5. In bucket 5 mod p it is a candidate; in the next bucket it
    # cannot be an isolated term, so it is junk and yields nothing.
    n = 64
    reading = 3 * _unit_root_powers(np.array([5]), 2 * n)

    def one_bucket(jx, px, jy, py, jw, pw, m, threshold, workspace):
        return np.array([(5 + shift) % m]), reading

    monkeypatch.setattr(folding, "heavy_residual_buckets", one_bucket)
    x = embedded(n, [(5, 3)])
    y = embedded(n, [(0, 1)])
    z, report = locate_with_report(x, y, zero_vector(2 * n), 16, 0.1,
                                   np.random.default_rng(6))
    assert report.reps_run == report.params.reps
    assert z.to_pairs() == want
