"""End-to-end sparse multiplication: peeling loop plus verification gate."""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sparseconv
from sparseconv import driver, primes
from sparseconv.driver import (LOCATE_DELTA, OUTER_FAILURE_CONSTANT,
                               MultiplicationFailed, hash_and_iterate,
                               sparse_multiply)
from sparseconv.instances import InstanceSpec, gen_instance
from sparseconv.locate import ISOLATION_CONSTANT, LocateParams, LocateReport
from sparseconv.primes import PrimeSamplingError
from sparseconv.vectors import (EnvelopeError, cyclic_convolve_naive,
                                from_arrays, make_sparse_vector,
                                poly_multiply_naive, subtract, zero_vector)


def test_params_relations_enforced():
    # the analysis relations the pipeline constants must satisfy: with
    # trial failure q = 1/8 per hash, a C-isolating prime leaves a
    # collision fraction gamma = 2 / (C^2 q) of the support
    q = 1.0 / 8.0
    gamma = 2.0 / (ISOLATION_CONSTANT ** 2 * q)
    assert math.isclose(gamma, 1.0 / 16.0)
    # a locate call at LOCATE_DELTA votes thr of t repetitions; with at
    # most t - thr bad repetitions its missed plus junk terms stay within
    # 5 gamma of the residual
    params = LocateParams.for_budget(16, LOCATE_DELTA)
    t, thr = params.reps, params.prune_threshold
    assert (t, thr) == (5, 4)
    for bad in range(t - thr + 1):
        missed = (t - bad) * gamma / (t - thr + 1 - bad)
        junk = (t - bad) * gamma / 2 / (thr - bad)
        assert missed + junk <= 5 * gamma
    growth = 0.5 / (5 * gamma)       # headroom gained per successful call
    assert growth > 1

    def peel_failure(h):
        # union bound over a peel's calls: t - thr + 1 bad repetitions in
        # one call, or one quiet repetition on a nonzero residual
        total = 0.0
        while h < 1e9:
            bad = q / h
            total += math.comb(t, t - thr + 1) * bad ** (t - thr + 1)
            total += t * gamma * bad
            h *= growth
        return total

    assert math.isclose(peel_failure(1), 640 / 39 * q ** 2
                        + 40 / 3 * gamma * q, rel_tol=1e-6)
    assert peel_failure(1) < 0.361
    # rounds r0 .. r0 + 2 draw independently at headroom 1, then doubled
    # budgets and prime ranges L >= 512 (pi(L) ~ L / ln L)
    log_l = math.log(512)
    h2, h4 = 2 * log_l / math.log(1024), 4 * log_l / math.log(2048)
    assert h2 >= 1.8 and h4 >= 3.2
    no_exact_peel = peel_failure(1) * peel_failure(1.8) * peel_failure(3.2)
    assert no_exact_peel < 0.003
    # fingerprint false accepts over all outer rounds: c * sum r^-2
    false_accept = OUTER_FAILURE_CONSTANT * math.pi ** 2 / 6.0
    assert no_exact_peel + false_accept <= 0.01


def test_multiply_telescoping():
    u = make_sparse_vector(4, [(0, 1), (1, 1), (2, 1), (3, 1)])
    v = make_sparse_vector(4, [(0, -1), (1, 1)])
    got = sparse_multiply(u, v, np.random.default_rng(0))
    assert got == make_sparse_vector(8, [(0, -1), (4, 1)])


def test_multiply_single_terms():
    u = make_sparse_vector(8, [(3, -7)])
    v = make_sparse_vector(8, [(5, 2)])
    got = sparse_multiply(u, v, np.random.default_rng(1))
    assert got == make_sparse_vector(16, [(8, -14)])


def test_multiply_negative_constant_term():
    # a negative value at product index 0 decodes through the half-turn
    # exponent exactly at N; regression for the sign boundary
    u = make_sparse_vector(2, [(0, -1)])
    v = make_sparse_vector(2, [(0, 1)])
    got = sparse_multiply(u, v, np.random.default_rng(2))
    assert got.to_pairs() == [(0, -1)]


def test_multiply_zero_operand():
    u = make_sparse_vector(8, [(1, 4)])
    z = zero_vector(8)
    assert sparse_multiply(u, z, np.random.default_rng(3)).is_zero
    assert sparse_multiply(z, u, np.random.default_rng(4)).is_zero


def test_multiply_mixed_lengths():
    u = make_sparse_vector(6, [(0, 2), (5, 1)])
    v = make_sparse_vector(9, [(8, 3)])
    got = sparse_multiply(u, v, np.random.default_rng(5))
    assert got.length == 18
    assert got == poly_multiply_naive(u, v)


def test_multiply_never_wrong_across_seeds():
    # Las Vegas contract: explicit failure is tolerable, a wrong vector is
    # not; demand a high success rate on desk-size instances as well
    ok = 0
    for seed in range(50):
        rng_inst = np.random.default_rng(1000 + seed)
        n = int(2 ** rng_inst.integers(4, 11))
        k = int(rng_inst.integers(1, min(n, 24) + 1))
        u = from_arrays(n, rng_inst.choice(n, size=k, replace=False),
                        rng_inst.integers(-100, 101, size=k) | 1)
        v = from_arrays(n, rng_inst.choice(n, size=k, replace=False),
                        rng_inst.integers(-100, 101, size=k) | 1)
        want = poly_multiply_naive(u, v)
        try:
            got = sparse_multiply(u, v, np.random.default_rng(seed))
        except MultiplicationFailed:
            continue
        assert got == want, f"wrong product for seed {seed}"
        ok += 1
    assert ok >= 45


def test_multiply_cancellation_heavy():
    # blocked cancellations: (1 + ... + z^15)(z - 1) = z^16 - 1
    u = make_sparse_vector(16, [(j, 1) for j in range(16)])
    v = make_sparse_vector(16, [(0, -1), (1, 1)])
    got = sparse_multiply(u, v, np.random.default_rng(6))
    assert got == make_sparse_vector(32, [(0, -1), (16, 1)])


def test_multiply_is_deterministic_per_seed():
    u = make_sparse_vector(64, [(0, 3), (17, -5), (40, 9)])
    v = make_sparse_vector(64, [(2, 1), (33, 7)])
    a = sparse_multiply(u, v, np.random.default_rng(99))
    b = sparse_multiply(u, v, np.random.default_rng(99))
    assert a == b


def test_float_mass_guard():
    # 8 x 8 maximal coefficients: mass product 2^46 exceeds the budget
    k = 8
    u = from_arrays(64, np.arange(k), np.full(k, 1 << 20))
    with pytest.raises(EnvelopeError, match="mass"):
        sparse_multiply(u, u, np.random.default_rng(0))


def test_hash_and_iterate_recovers_with_generous_budget():
    n = 128
    rng_inst = np.random.default_rng(12)
    xi = rng_inst.choice(n, size=12, replace=False)
    yi = rng_inst.choice(n, size=12, replace=False)
    u = from_arrays(n, xi, rng_inst.integers(1, 50, size=12))
    v = from_arrays(n, yi, rng_inst.integers(1, 50, size=12))
    x = make_sparse_vector(2 * n, u.to_pairs())
    y = make_sparse_vector(2 * n, v.to_pairs())
    want = cyclic_convolve_naive(x, y)
    budget = 16 * want.l0
    w, _ = hash_and_iterate(x, y, budget, np.random.default_rng(7))
    assert w == want


def test_hash_and_iterate_residual_contracts_per_round():
    n = 256
    rng_inst = np.random.default_rng(21)
    xi = rng_inst.choice(n, size=16, replace=False)
    yi = rng_inst.choice(n, size=16, replace=False)
    x = from_arrays(2 * n, xi, rng_inst.integers(1, 30, size=16))
    y = from_arrays(2 * n, yi, rng_inst.integers(1, 30, size=16))
    exact = cyclic_convolve_naive(x, y)
    _, trace = hash_and_iterate(x, y, 16 * exact.l0,
                                np.random.default_rng(8))
    residuals = [subtract(exact, w).l0 for w, _ in trace]
    assert residuals[-1] == 0
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))


def test_hash_and_iterate_converged_exit():
    # once the residual is empty no later round may see a heavy bucket,
    # so the trace stops early instead of burning the remaining rounds
    x = make_sparse_vector(32, [(1, 2)])
    y = make_sparse_vector(32, [(3, 4)])
    w, trace = hash_and_iterate(x, y, 256, np.random.default_rng(9))
    assert w == cyclic_convolve_naive(x, y)
    assert len(trace) < max(1, int(np.ceil(np.log2(256))))
    last_report = trace[-1][1]
    assert not last_report.saw_heavy and last_report.aborted_rep is None
    # the closing quiet call stops at its first repetition
    assert last_report.reps_run == 1


def test_hash_and_iterate_budget_too_small_yields_rejectable_w():
    # with budget far below the product sparsity the locate cutoffs fire
    # and the accumulated w stays incomplete; the driver's verification
    # must then reject it (here: compare directly)
    n = 512
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(0, 500, 29)])
    y = make_sparse_vector(2 * n, [(j, 1) for j in range(0, 500, 31)])
    exact = cyclic_convolve_naive(x, y)
    w, _ = hash_and_iterate(x, y, 2, np.random.default_rng(10))
    assert w != exact
    assert w.l0 < exact.l0


def test_hash_and_iterate_stops_at_first_aborted_call():
    # an aborted locate call returns zero and leaves more heavy buckets
    # than the budget; the halved budgets after it are not tried
    n = 512
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(0, 500, 29)])
    y = make_sparse_vector(2 * n, [(j, 1) for j in range(0, 500, 31)])
    exact = cyclic_convolve_naive(x, y)
    w, trace = hash_and_iterate(x, y, 64, np.random.default_rng(10))
    assert len(trace) == 1
    assert trace[0][1].aborted_rep is not None
    assert w != exact


@pytest.mark.parametrize("budget", [16, 1 << 16])
def test_hash_and_iterate_votes_over_five_repetitions(budget):
    # every locate call of a peel runs at LOCATE_DELTA, whatever the
    # budget: 5 repetitions and a vote of 4
    n = 256
    rng_inst = np.random.default_rng(22)
    x = from_arrays(2 * n, rng_inst.choice(n, size=10, replace=False),
                    rng_inst.integers(1, 30, size=10))
    y = from_arrays(2 * n, rng_inst.choice(n, size=10, replace=False),
                    rng_inst.integers(1, 30, size=10))
    _, trace = hash_and_iterate(x, y, budget, np.random.default_rng(11))
    assert trace
    for _, report in trace:
        assert report.params.reps == 5
        assert report.params.prune_threshold == 4


def test_fingerprint_rejects_a_peel_that_lost_a_term(monkeypatch):
    # every locate call of the peel that would first verify drops one
    # recovered term; that peel ends inexact, the fingerprint rejects it,
    # and a later peel still returns the exact product
    n = 256
    rng_inst = np.random.default_rng(23)
    u = from_arrays(n, rng_inst.choice(n, size=12, replace=False),
                    rng_inst.integers(1, 50, size=12))
    v = from_arrays(n, rng_inst.choice(n, size=12, replace=False),
                    rng_inst.integers(1, 50, size=12))
    exact = poly_multiply_naive(u, v)
    real_peel, real_locate = driver.hash_and_iterate, driver.locate_with_report
    peels = []
    lossy_budget = None

    def peel(x, y, budget, rng):
        peels.append(budget)
        w, trace = real_peel(x, y, budget, rng)
        assert budget != lossy_budget or w != exact
        return w, trace

    def lossy_locate(x, y, w, budget, delta, rng):
        z, report = real_locate(x, y, w, budget, delta, rng)
        if peels[-1] == lossy_budget and z.l0:
            z = from_arrays(z.length, z.indices[1:], z.coeffs[1:])
        return z, report

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    monkeypatch.setattr(driver, "locate_with_report", lossy_locate)
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    lossy_budget = peels[-1]
    peels.clear()
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    assert lossy_budget in peels and peels[-1] > lossy_budget


@pytest.mark.parametrize("seed", range(5))
def test_budget_jumps_to_the_heavy_count(monkeypatch, seed):
    # a product of some 50k terms: doubling from 32 walks 12 budgets, the
    # jump after the first abort lands within a few of the product's size
    u, v = gen_instance(InstanceSpec(n=1 << 16, terms=256, coeff_bound=100,
                                     cancel_fraction=0.0, seed=seed))
    real_peel = driver.hash_and_iterate
    budgets = []

    def peel(x, y, budget, rng):
        budgets.append(budget)
        return real_peel(x, y, budget, rng)

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    got = sparse_multiply(u, v, np.random.default_rng(seed))
    assert got == poly_multiply_naive(u, v)
    assert len(budgets) <= 4, budgets


class _Stop(Exception):
    pass


@pytest.mark.parametrize("heavy, want", [
    ([33], [32, 64]),
    ([None], [32, 64]),
    ([16 * 512], [32, 16 * 512]),
    ([16 * 512 + 1], [32, 16 * 1024]),
    ([5000, 100], [32, 16 * 512, 16 * 1024]),
    ([5000, None, 70000], [32, 16 * 512, 16 * 1024, 16 * 8192]),
])
def test_budget_after_an_abort(monkeypatch, heavy, want):
    # each stubbed peel returns an empty w whose first locate call aborted
    # at the scripted heavy count (None: did not abort); the next budget is
    # the least C * 2^r at or above it, and never below the doubled one
    budgets = []

    def peel(x, y, budget, rng):
        budgets.append(budget)
        if len(budgets) > len(heavy):
            raise _Stop
        h = heavy[len(budgets) - 1]
        report = LocateReport(LocateParams.for_budget(budget, LOCATE_DELTA),
                              reps_run=1, aborted_rep=None if h is None else 0,
                              heavy_counts=[0 if h is None else h])
        w = zero_vector(x.length)
        return w, [(w, report)]

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    u = make_sparse_vector(1 << 14, [(0, 3), (17, -5), (4000, 9)])
    with pytest.raises(_Stop):
        sparse_multiply(u, u, np.random.default_rng(0))
    assert budgets == want


def test_multiply_never_sieves(monkeypatch):
    # locate draws its primes without a sieve; perfbench's tracer still
    # counts primes.sieve_primes calls, which must stay at zero
    def no_sieve(limit):
        raise AssertionError(f"sieve_primes({limit}) on the hot path")

    monkeypatch.setattr(primes, "sieve_primes", no_sieve)
    u, v = gen_instance(InstanceSpec(n=1 << 12, terms=64, coeff_bound=100,
                                     cancel_fraction=0.5, seed=7))
    got = sparse_multiply(u, v, np.random.default_rng(7))
    assert got == poly_multiply_naive(u, v)


@pytest.mark.parametrize("site", ["locate.uniform_prime_below",
                                  "fingerprint.random_prime_in_range"])
def test_sampler_failure_raises_multiplication_failed(monkeypatch, site):
    module, name = site.split(".")
    message = "no prime found in [2, 99] after 3 draws"

    def give_up(*args):
        raise PrimeSamplingError(message)

    monkeypatch.setattr(importlib.import_module(f"sparseconv.{module}"),
                        name, give_up)
    u = make_sparse_vector(64, [(0, 3), (17, -5), (40, 9)])
    with pytest.raises(MultiplicationFailed) as info:
        sparse_multiply(u, u, np.random.default_rng(0))
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, PrimeSamplingError)


def test_multiplication_failed_is_runtime_error():
    assert issubclass(MultiplicationFailed, RuntimeError)


def test_imports_and_multiplies_without_float128():
    # numpy has no float128 on Windows or macOS arm64
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))
    code = (
        "import numpy\n"
        "del numpy.float128\n"
        "import numpy as np, sparseconv\n"
        "u = sparseconv.make_sparse_vector(8, [(0, 1), (3, -2)])\n"
        "w = sparseconv.sparse_multiply(u, u, np.random.default_rng(0))\n"
        "print(w.to_pairs())\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[(0, 1), (3, -4), (6, 4)]"
