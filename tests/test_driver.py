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
                                embed_for_product, from_arrays,
                                make_sparse_vector,
                                poly_multiply_naive, subtract, zero_vector)


def _telescoping_slots(seed, n=1 << 18, run=1 << 13, slots=8):
    """u: an all-ones run of length `run`; v: cancellers c (z^(s+1) - z^s)
    at random slots s, so u * v keeps at most 2 * slots terms.

    131072 pairs against N = 2^19: at budgets 32 .. 256, L < N/2 and the
    pairs outnumber L/2, so locate draws primes below N/2, folds at them
    and votes. Returns (u, v, u * v).
    """
    rng = np.random.default_rng(seed)
    u = from_arrays(n, np.arange(run), np.ones(run, dtype=np.int64))
    s = rng.choice(n - 1, size=slots, replace=False)
    c = rng.integers(1, 50, size=slots) * rng.choice([-1, 1], size=slots)
    v = from_arrays(n, np.concatenate([s + 1, s]), np.concatenate([c, -c]))
    return u, v, poly_multiply_naive(u, v)


def _record_peels(monkeypatch):
    """Patch the driver to record each peel's (budget, trace) in a list."""
    real_peel = driver.hash_and_iterate
    peels = []

    def peel(x, y, budget, rng):
        w, trace = real_peel(x, y, budget, rng)
        peels.append((budget, trace))
        return w, trace

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    return peels


def _drew_primes(peels):
    return any(report.primes for _, trace in peels for _, report in trace)


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


def test_multiply_never_wrong_across_seeds(monkeypatch):
    # Las Vegas contract: explicit failure is tolerable, a wrong vector is
    # not; demand a high success rate. Even seeds: random operands with
    # more pairs than the first budget's L/2 (7680 or 8192), so locate
    # folds at drawn primes; odd seeds: telescoping slots, whose verified
    # peel folds at primes below N/2 and votes.
    peels = _record_peels(monkeypatch)
    ok = 0
    for seed in range(50):
        rng_inst = np.random.default_rng(1000 + seed)
        if seed % 2:
            u, v, want = _telescoping_slots(seed)
        else:
            n = int(2 ** rng_inst.integers(14, 16))
            k = int(rng_inst.integers(96, 161))
            u = from_arrays(n, rng_inst.choice(n, size=k, replace=False),
                            rng_inst.integers(-100, 101, size=k) | 1)
            v = from_arrays(n, rng_inst.choice(n, size=k, replace=False),
                            rng_inst.integers(-100, 101, size=k) | 1)
            want = poly_multiply_naive(u, v)
        peels.clear()
        try:
            got = sparse_multiply(u, v, np.random.default_rng(seed))
        except MultiplicationFailed:
            continue
        assert got == want, f"wrong product for seed {seed}"
        assert _drew_primes(peels), f"seed {seed} never folded"
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
    u, v, want = _telescoping_slots(12)
    x, y = embed_for_product(u, v)
    w, trace = hash_and_iterate(x, y, 16 * want.l0,
                                np.random.default_rng(7))
    assert w == want
    assert trace[0][1].reps_run == len(trace[0][1].primes) == 5


def test_hash_and_iterate_residual_contracts_per_round():
    u, v, exact = _telescoping_slots(21, slots=16)
    x, y = embed_for_product(u, v)
    _, trace = hash_and_iterate(x, y, 16 * exact.l0,
                                np.random.default_rng(8))
    residuals = [subtract(exact, w).l0 for w, _ in trace]
    assert residuals[-1] == 0
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))
    assert all(report.primes for _, report in trace)


def test_hash_and_iterate_converged_exit():
    # once the residual is empty no later round may see a heavy bucket,
    # so the trace stops early instead of burning the remaining rounds.
    # u = 1 + ... + z^16383 against z - 1: 32768 pairs outnumber L/2 =
    # 7680 at budget 32, so the peel folds until a quiet call
    n = 1 << 14
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(n)])
    y = make_sparse_vector(2 * n, [(0, -1), (1, 1)])
    w, trace = hash_and_iterate(x, y, 32, np.random.default_rng(9))
    assert w == cyclic_convolve_naive(x, y)
    assert 1 < len(trace) < 5 and trace[0][1].primes
    last_report = trace[-1][1]
    assert not last_report.saw_heavy and last_report.aborted_rep is None
    # the closing quiet call stops at its first repetition
    assert last_report.reps_run == 1
    # an exact reading from the pairs draws no prime and ends the peel
    x = make_sparse_vector(32, [(1, 2)])
    y = make_sparse_vector(32, [(3, 4)])
    w, trace = hash_and_iterate(x, y, 256, np.random.default_rng(9))
    assert w == cyclic_convolve_naive(x, y)
    assert len(trace) == 1 and not trace[0][1].primes


def _budget_overflow_operands():
    """x, y over N = 2^16 with 165 * 156 pairs, more than L/2 = 16384 at
    budget 64 (L <= N/2), and some 25 k product terms: (x, y, x * y)."""
    n = 1 << 15
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(0, n, 199)])
    y = make_sparse_vector(2 * n, [(j, 1) for j in range(0, n, 211)])
    return x, y, cyclic_convolve_naive(x, y)


def test_hash_and_iterate_budget_too_small_yields_rejectable_w():
    # with budget far below the product sparsity the locate cutoffs fire
    # and the accumulated w stays incomplete; the driver's verification
    # must then reject it (here: compare directly)
    x, y, exact = _budget_overflow_operands()
    w, trace = hash_and_iterate(x, y, 2, np.random.default_rng(10))
    assert w != exact
    assert w.l0 < exact.l0
    assert trace[0][1].primes


def test_hash_and_iterate_stops_at_first_aborted_call():
    # an aborted locate call returns zero and leaves more heavy buckets
    # than the budget; the halved budgets after it are not tried
    x, y, exact = _budget_overflow_operands()
    w, trace = hash_and_iterate(x, y, 64, np.random.default_rng(10))
    assert len(trace) == 1
    assert trace[0][1].aborted_rep is not None and trace[0][1].primes
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
    # and a later peel still returns the exact product. Both verifying
    # peels fold at drawn primes and vote.
    u, v, exact = _telescoping_slots(23)
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

    def drawing_locate(x, y, w, budget, delta, rng):
        z, report = lossy_locate(x, y, w, budget, delta, rng)
        drew.append(bool(report.primes))
        return z, report

    drew = []
    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    monkeypatch.setattr(driver, "locate_with_report", drawing_locate)
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    lossy_budget = peels[-1]
    peels.clear()
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    assert lossy_budget in peels and peels[-1] > lossy_budget
    assert all(drew)


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
    peels = _record_peels(monkeypatch)
    # 128 * 65 pairs outnumber L/2 = 7680 at the first budget: locate
    # draws primes
    u, v = gen_instance(InstanceSpec(n=1 << 14, terms=128, coeff_bound=100,
                                     cancel_fraction=0.5, seed=7))
    got = sparse_multiply(u, v, np.random.default_rng(7))
    assert got == poly_multiply_naive(u, v)
    assert _drew_primes(peels)
    # so does the verified peel on telescoping slots
    u, v, want = _telescoping_slots(7)
    peels.clear()
    assert sparse_multiply(u, v, np.random.default_rng(7)) == want
    assert all(report.primes for _, report in peels[-1][1])


@pytest.mark.parametrize("site", ["locate.uniform_prime_below",
                                  "fingerprint.random_prime_in_range"])
def test_sampler_failure_raises_multiplication_failed(monkeypatch, site):
    module, name = site.split(".")
    message = "no prime found in [2, 99] after 3 draws"

    def give_up(*args):
        raise PrimeSamplingError(message)

    monkeypatch.setattr(importlib.import_module(f"sparseconv.{module}"),
                        name, give_up)
    # 128 * 128 pairs outnumber half the first budget's prime range L =
    # 15360 < N = 32768, so locate draws primes instead of reading exactly
    u = make_sparse_vector(1 << 14, [(128 * j, 1 + j % 5) for j in range(128)])
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


def test_memory_bound_at_8192_terms_per_operand():
    # n = 2^20 with 8192 terms per operand: 67 M term pairs. A product
    # that built them all would need gigabytes; under a 1.5 GiB address
    # space limit it raises MemoryError instead of exhausting the machine.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "import numpy as np\n"
        "from sparseconv import sparse_multiply\n"
        "from sparseconv.instances import InstanceSpec, gen_instance\n"
        "from sparseconv.vectors import poly_multiply_dense\n"
        "u, v = gen_instance(InstanceSpec(n=1 << 20, terms=8192,\n"
        "    coeff_bound=100, cancel_fraction=0.0, seed=1))\n"
        "w = sparse_multiply(u, v, np.random.default_rng(0))\n"
        "print(w.l0, w == poly_multiply_dense(u, v))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split()[1] == "True"
