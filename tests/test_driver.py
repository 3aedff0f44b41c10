"""End-to-end sparse multiplication: peeling loop plus verification gate."""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sparseconv
from sparseconv import driver, locate, primes, vectors
from sparseconv.driver import (OUTER_FAILURE_CONSTANT, MultiplicationFailed,
                               exact_read_limit, hash_and_iterate,
                               sparse_multiply)
from sparseconv.instances import (InstanceSpec, blocked_telescoping_instance,
                                  gen_instance)
from sparseconv.locate import ISOLATION_CONSTANT, LocateReport, prime_range_for
from sparseconv.primes import PrimeSamplingError, uniform_prime_below
from sparseconv.vectors import (EnvelopeError, add, cyclic_convolve_naive,
                                embed_for_product, from_arrays,
                                make_sparse_vector, poly_multiply_dense,
                                poly_multiply_naive, subtract, zero_vector)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
from draw_digest import random_support_canceller  # noqa: E402


def _telescoping_slots(seed, n=1 << 18, run=1 << 13, slots=8):
    """u: an all-ones run of length `run`; v: cancellers c (z^(s+1) - z^s)
    at random slots s, so u * v keeps at most 2 * slots terms.

    131072 pairs against N = 2^19: at budgets 32 .. 256, 4E < N and the
    pairs outnumber E (E = exact_read_limit(B, N)), so the peel calls
    locate, which draws a prime below N/2 and folds at it; from
    budget 512 on 4E >= N, and the peel reads the product exactly from
    the dense real product. Returns (u, v, u * v).
    """
    rng = np.random.default_rng(seed)
    u = from_arrays(n, np.arange(run), np.ones(run, dtype=np.int64))
    s = rng.choice(n - 1, size=slots, replace=False)
    c = rng.integers(1, 50, size=slots) * rng.choice([-1, 1], size=slots)
    v = from_arrays(n, np.concatenate([s + 1, s]), np.concatenate([c, -c]))
    return u, v, poly_multiply_naive(u, v)


def _peel(x, y, budget, rng):
    """hash_and_iterate with rng as its locate stream, a stream of its own
    for the fingerprint, and the first outer round's false-accept budget."""
    return hash_and_iterate(x, y, budget, rng, np.random.default_rng(0),
                            OUTER_FAILURE_CONSTANT)


def _record_rounds(monkeypatch):
    """Patch the driver's locate call to record (budget, w before, z,
    report) per locate round in a list. It wraps whatever the driver calls
    now, so a stand-in patched before it is what gets recorded."""
    real_locate = driver.locate_with_report
    rounds = []

    def locate(x, y, w, budget, rng):
        z, report = real_locate(x, y, w, budget, rng)
        rounds.append((budget, w, z, report))
        return z, report

    monkeypatch.setattr(driver, "locate_with_report", locate)
    return rounds


def _w_after(entry):
    """The w a peel holds after one recorded locate round."""
    _, w, z, _ = entry
    return add(w, z)


def _record_peels(monkeypatch):
    """Patch the driver to record each peel's (budget, rounds) in a list,
    rounds as _record_rounds records them."""
    rounds = _record_rounds(monkeypatch)
    real_peel = driver.hash_and_iterate
    peels = []

    def peel(x, y, budget, *streams_and_delta):
        start = len(rounds)
        out = real_peel(x, y, budget, *streams_and_delta)
        peels.append((budget, rounds[start:]))
        return out

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    return peels


def _count_fingerprints(monkeypatch):
    """Patch the driver to record each fingerprint's (w, verdict)."""
    real_test = driver.equality_test
    verdicts = []

    def fingerprint(x, y, w, delta, rng):
        verdicts.append((w, real_test(x, y, w, delta, rng)))
        return verdicts[-1][1]

    monkeypatch.setattr(driver, "equality_test", fingerprint)
    return verdicts


def _drew_primes(peels):
    return any(report.primes for _, rounds in peels
               for *_, report in rounds)


def test_params_relations_enforced():
    # the analysis relations the pipeline constants must satisfy: with
    # trial failure q = 1/8 per fold, a C-isolating prime leaves a
    # collision fraction gamma = 2 / (C^2 q) of the support
    q = 1.0 / 8.0
    gamma = 2.0 / (ISOLATION_CONSTANT ** 2 * q)
    assert math.isclose(gamma, 1.0 / 16.0)
    # the sharing bound 10 ln N / 6144 at headroom 1 is gamma q c, with
    # c = 5 ln N / 24 < 4 up to N = 2^26
    c = 5 * math.log(2 ** 26) / 24
    assert math.isclose(10 * math.log(2 ** 26) / 6144, gamma * q * c)
    assert c < 4
    # a good fold misses the gamma of terms that share a bucket and reads
    # at most one junk term per shared bucket, which holds two or more
    missed, junk = gamma, gamma / 2
    growth = 0.5 / (missed + junk)   # headroom gained per successful call
    assert math.isclose(growth, 16 / 3)

    def peel_failure(h):
        # union bound over a peel's calls: one bad fold (a quiet fold on a
        # nonzero residual shares every term, so it is bad too)
        total = 0.0
        while h < 1e9:
            total += q / h
            h *= growth
        return total

    for h in (1, 2, 4):
        assert math.isclose(peel_failure(h), 16 / 13 * q / h, rel_tol=1e-6)
    assert math.isclose(peel_failure(1), 2 / 13, rel_tol=1e-6)
    # round r0 + j has headroom at least 2^j / c > 2^(j - 2): rounds
    # r0 + 2 .. r0 + 4 count as 1, 2, 4 and draw independently
    assert all(2 ** j / c > 2 ** (j - 2) for j in (2, 3, 4))
    no_exact_peel = peel_failure(1) * peel_failure(2) * peel_failure(4)
    assert no_exact_peel < 5e-4
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
    # peel folds at primes below N/2.
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


def test_hash_and_iterate_recovers_with_generous_budget(monkeypatch):
    u, v, want = _telescoping_slots(12)
    x, y = embed_for_product(u, v)
    rounds = _record_rounds(monkeypatch)
    w, floor = _peel(x, y, 16 * want.l0, np.random.default_rng(7))
    assert w == want and floor == 0
    assert rounds[0][3].reps_run == len(rounds[0][3].primes) == 1


def test_hash_and_iterate_residual_contracts_per_round(monkeypatch):
    u, v, exact = _telescoping_slots(21)      # budget 16 * 16 = 256
    x, y = embed_for_product(u, v)
    rounds = _record_rounds(monkeypatch)
    _peel(x, y, 16 * exact.l0, np.random.default_rng(8))
    residuals = [subtract(exact, add(w, z)).l0 for _, w, z, _ in rounds]
    assert residuals[-1] == 0
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))
    assert all(report.primes for *_, report in rounds)


def test_hash_and_iterate_converged_exit(monkeypatch):
    # u = 1 + ... + z^16383 against z - 1: 32768 pairs outnumber L/2 =
    # 7680 at budget 32, so the peel folds. Its first round keeps every
    # heavy reading and recovers the whole product, so it fingerprints w,
    # which verifies, and stops there with no confirming fold
    n = 1 << 14
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(n)])
    y = make_sparse_vector(2 * n, [(0, -1), (1, 1)])
    verdicts = _count_fingerprints(monkeypatch)
    rounds = _record_rounds(monkeypatch)
    w, floor = _peel(x, y, 32, np.random.default_rng(9))
    assert w == cyclic_convolve_naive(x, y) and floor == 0
    assert len(rounds) == 1 and rounds[0][3].primes
    assert rounds[0][3].heavy_counts == [w.l0]
    assert verdicts == [(w, True)]
    # with every fingerprint rejecting, the same peel goes on until no
    # later round sees a heavy bucket: the closing quiet call folds once,
    # like every call, and the w it leaves, already rejected, is not
    # fingerprinted again. The peel returns no product
    monkeypatch.setattr(driver, "equality_test", lambda *args: False)
    rounds.clear()
    w, floor = _peel(x, y, 32, np.random.default_rng(9))
    assert w is None and floor == 0
    assert _w_after(rounds[-1]) == cyclic_convolve_naive(x, y)
    assert len(rounds) == 2 and _w_after(rounds[0]) == _w_after(rounds[-1])
    last_report = rounds[-1][3]
    assert last_report.heavy_counts == [0] and last_report.aborted_rep is None
    assert last_report.reps_run == 1
    # an exact reading from the pairs calls no locate and is proven
    x = make_sparse_vector(32, [(1, 2)])
    y = make_sparse_vector(32, [(3, 4)])
    rounds.clear()
    w, floor = _peel(x, y, 256, np.random.default_rng(9))
    assert w == cyclic_convolve_naive(x, y)
    assert rounds == [] and floor == 0


def _budget_overflow_operands():
    """x, y over N = 2^16 with 165 * 156 pairs, more than E = 8192 at
    budget 32 (4E < N; from budget 64 on 4E >= N and the peel reads
    exactly), and some 25 k product terms: (x, y, x * y)."""
    n = 1 << 15
    x = make_sparse_vector(2 * n, [(j, 1) for j in range(0, n, 199)])
    y = make_sparse_vector(2 * n, [(j, 1) for j in range(0, n, 211)])
    return x, y, cyclic_convolve_naive(x, y)


def test_hash_and_iterate_budget_too_small_yields_rejectable_w(monkeypatch):
    # with budget far below the product sparsity the locate cutoffs fire
    # and the accumulated w stays incomplete; the peel returns no product
    x, y, exact = _budget_overflow_operands()
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x, y, 2, np.random.default_rng(10))
    held = _w_after(rounds[-1])
    assert w is None
    assert held != exact and held.l0 < exact.l0
    assert rounds[0][3].primes


def test_hash_and_iterate_stops_at_first_aborted_call(monkeypatch):
    # an aborted locate call returns zero and leaves more heavy buckets
    # than the budget; the halved budgets after it are not tried
    x, y, _ = _budget_overflow_operands()
    rounds = _record_rounds(monkeypatch)
    w, floor = _peel(x, y, 32, np.random.default_rng(10))
    assert len(rounds) == 1
    assert rounds[0][3].aborted_rep is not None and rounds[0][3].primes
    # no product, and the abort's heavy count as the floor
    assert w is None and floor == rounds[0][3].heavy_counts[0] > 32


def test_floor_is_zero_when_only_a_later_call_aborts(monkeypatch):
    # scripted locate calls: the first reads one term from two heavy
    # buckets, so w is not fingerprinted after it; the second aborts on 99.
    # The one-term w the peel ends with comes from a round that dropped a
    # reading, so it is not fingerprinted either, and the peel returns
    # none with floor 0. The same abort in a first call is the floor, with
    # nothing fingerprinted
    x, y, _ = _budget_overflow_operands()
    term = make_sparse_vector(x.length, [(5, 1)])
    abort = (zero_vector(x.length),
             LocateReport(aborted_rep=0, heavy_counts=[99], primes=[11]))
    replies = [(term, LocateReport(heavy_counts=[2], primes=[7])), abort]
    monkeypatch.setattr(driver, "locate_with_report",
                        lambda *args: replies.pop(0))
    verdicts = _count_fingerprints(monkeypatch)
    assert _peel(x, y, 32, np.random.default_rng(0)) == (None, 0)
    assert replies == [] and verdicts == []
    replies.append(abort)
    assert _peel(x, y, 32, np.random.default_rng(0)) == (None, 99)
    assert replies == [] and verdicts == []


def test_rejected_dense_reading_returns_no_product(monkeypatch):
    # 128 * 128 pairs at N = 2^14 and budget 32: 4E >= N, so the peel
    # reads the dense real product. With the error bound forced to 0.25
    # that reading is unproven; a fingerprint that rejects it leaves the
    # peel with no product and floor 0
    x = make_sparse_vector(1 << 14, [(64 * j, 1 + j % 7) for j in range(128)])
    monkeypatch.setattr(vectors, "_fft_error_bound", lambda x, y: 0.25)
    monkeypatch.setattr(driver, "equality_test", lambda *args: False)
    assert _peel(x, x, 32, np.random.default_rng(0)) == (None, 0)


@pytest.mark.parametrize("budget", [16, 1 << 16])
def test_hash_and_iterate_folds_once_per_call(monkeypatch, budget):
    # every locate call of a peel that folds draws one prime, whatever
    # the budget. The telescoping operands fold at budget 16, and the
    # fingerprint verifies the peel's w; at 2^16 their pairs fit E and the
    # peel reads the product exactly from them, with no locate call, and
    # proven
    u, v, exact = _telescoping_slots(22)
    x, y = embed_for_product(u, v)
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x, y, budget, np.random.default_rng(11))
    assert w == exact
    if budget != 16:
        assert rounds == []
        return
    assert rounds and all(len(report.primes) == report.reps_run == 1
                          for *_, report in rounds)


def test_fingerprint_rejects_a_peel_that_lost_a_term(monkeypatch):
    # every locate call of the peel that would first verify drops one
    # recovered term; that peel ends inexact and returns no product, and a
    # later peel still returns the exact product. Both verifying peels
    # fold at drawn primes. No round of the lossy peel keeps every heavy
    # reading, so it makes no fingerprint
    u, v, exact = _telescoping_slots(23)
    real_peel, real_locate = driver.hash_and_iterate, driver.locate_with_report
    verdicts = _count_fingerprints(monkeypatch)
    peels = []
    folded = []
    lossy_budget = None

    def peel(x, y, budget, *streams_and_delta):
        peels.append(budget)
        before = len(verdicts)
        start = len(rounds)
        w, floor = real_peel(x, y, budget, *streams_and_delta)
        folded.append(len(rounds) > start)
        if budget == lossy_budget:
            held = _w_after(rounds[-1])
            assert w is None and held != exact
            assert verdicts[before:] == []
        return w, floor

    def lossy_locate(x, y, w, budget, rng):
        z, report = real_locate(x, y, w, budget, rng)
        if peels[-1] == lossy_budget and z.l0:
            z = from_arrays(z.length, z.indices[1:], z.coeffs[1:])
        return z, report

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    monkeypatch.setattr(driver, "locate_with_report", lossy_locate)
    rounds = _record_rounds(monkeypatch)    # records the lossy rounds
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    lossy_budget = peels[-1]
    peels.clear()
    folded.clear()
    assert sparse_multiply(u, v, np.random.default_rng(12)) == exact
    assert lossy_budget in peels and peels[-1] > lossy_budget
    assert all(folded)


def test_a_round_that_drops_a_reading_leaves_w_inexact(monkeypatch):
    # why a peel fingerprints w only after a round that read every heavy
    # bucket: with the prime range cut to 2B, folds collide often, and a
    # peel whose last w-changing round dropped a heavy reading still holds
    # an inexact w (the dropped bucket keeps a residual term), so it
    # returns no product
    monkeypatch.setattr(locate, "prime_range_for", lambda budget: 2 * budget)
    rounds = _record_rounds(monkeypatch)
    dropped = 0
    for instance in range(10):
        x, y = embed_for_product(*random_support_canceller(instance))
        exact = cyclic_convolve_naive(x, y)
        b0 = 1 << (exact.l0 - 1).bit_length()
        for budget in (b0, 2 * b0):
            for seed in range(3):
                rounds.clear()
                w, _ = _peel(x, y, budget, np.random.default_rng(seed))
                changed = [(z.l0, report.heavy_counts[0])
                           for *_, z, report in rounds if z.l0]
                if changed and changed[-1][0] < changed[-1][1]:
                    dropped += 1
                    assert _w_after(rounds[-1]) != exact
                    assert w is None
    assert dropped >= 1


@pytest.mark.parametrize("seed", range(5))
def test_budget_jumps_to_the_heavy_count(monkeypatch, seed):
    # a product of some 50k terms: doubling from 32 walks 12 budgets, the
    # jump after the first abort lands within a few of the product's size
    u, v = gen_instance(InstanceSpec(n=1 << 16, terms=256, coeff_bound=100,
                                     cancel_fraction=0.0, seed=seed))
    real_peel = driver.hash_and_iterate
    budgets = []

    def peel(x, y, budget, *streams_and_delta):
        budgets.append(budget)
        return real_peel(x, y, budget, *streams_and_delta)

    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    got = sparse_multiply(u, v, np.random.default_rng(seed))
    assert got == poly_multiply_naive(u, v)
    assert len(budgets) <= 4, budgets


@pytest.mark.parametrize("seed", range(3))
def test_exact_reading_above_the_budget_is_kept(monkeypatch, seed):
    # some 60k product terms: the peel after the first abort reads the
    # 65536 pairs exactly at a budget below the product's size and keeps
    # that reading, so the pairs are multiplied once; nothing is
    # fingerprinted: the aborted peel's w is empty and the pair reading
    # is proven
    u, v = gen_instance(InstanceSpec(n=1 << 18, terms=256, coeff_bound=100,
                                     cancel_fraction=0.0, seed=seed))
    real_naive = driver._pair_product
    naive_calls = []

    def naive(x, y):
        naive_calls.append(real_naive(x, y))
        return naive_calls[-1]

    monkeypatch.setattr(driver, "_pair_product", naive)
    verdicts = _count_fingerprints(monkeypatch)
    got = sparse_multiply(u, v, np.random.default_rng(seed))
    assert got == poly_multiply_naive(u, v)
    assert naive_calls == [got]
    assert verdicts == []


@pytest.mark.parametrize("seed", range(3))
def test_aborted_peel_is_never_returned(monkeypatch, seed):
    # the first peel aborts and leaves w empty. Even a fingerprint that
    # accepts everything is not asked about it: the product of two nonzero
    # polynomials is nonzero, so the zero vector is never returned
    u, v = gen_instance(InstanceSpec(n=1 << 16, terms=256, coeff_bound=100,
                                     cancel_fraction=0.0, seed=seed))
    peels = _record_peels(monkeypatch)
    monkeypatch.setattr(driver, "equality_test", lambda *args: True)
    got = sparse_multiply(u, v, np.random.default_rng(seed))
    assert peels[0][1][0][3].aborted_rep == 0
    assert not got.is_zero


def test_pairs_within_the_first_budget_make_no_fingerprint(monkeypatch):
    # 64 * 64 pairs fit E = 8192 at the first budget, 32, at N = 2^16:
    # the first peel reads them exactly and sparse_multiply returns that
    # reading with no fingerprint
    verdicts = _count_fingerprints(monkeypatch)
    u, v = gen_instance(InstanceSpec(n=1 << 15, terms=64, coeff_bound=100,
                                     cancel_fraction=0.0, seed=5))
    assert u.l0 * v.l0 <= exact_read_limit(ISOLATION_CONSTANT << 1, 1 << 16)
    got = sparse_multiply(u, v, np.random.default_rng(5))
    assert got == poly_multiply_naive(u, v)
    assert verdicts == []


def test_folded_product_is_fingerprinted(monkeypatch):
    # the telescoping slots' verified peel folds at drawn primes: its w is
    # returned only after the fingerprint accepts it, and every peel before
    # it is fingerprinted too
    peels = _record_peels(monkeypatch)
    verdicts = _count_fingerprints(monkeypatch)
    u, v, want = _telescoping_slots(7)
    assert sparse_multiply(u, v, np.random.default_rng(7)) == want
    assert peels[-1][1] and len(verdicts) == len(peels)
    assert verdicts[-1][0] == want and verdicts[-1][1]


@pytest.mark.parametrize("log2_terms", range(10, 15))
def test_telescoping_member_makes_one_fold_and_one_fingerprint(
        monkeypatch, log2_terms):
    # the first peel recovers the whole product in its first round and
    # keeps every heavy reading, so it fingerprints w there and stops: no
    # confirming fold, and no second fingerprint
    u, v, want = blocked_telescoping_instance(log2_terms)
    real_locate = driver.locate_with_report
    folds = []

    def locate(*args):
        folds.append(args[3])
        return real_locate(*args)

    monkeypatch.setattr(driver, "locate_with_report", locate)
    verdicts = _count_fingerprints(monkeypatch)
    for seed in range(3):
        folds.clear()
        verdicts.clear()
        assert sparse_multiply(u, v, np.random.default_rng(seed)) == want
        assert folds == [32] and verdicts == [(want, True)]


def _weighted_telescoping(log2_terms, runs, seed):
    """blocked_telescoping_instance(log2_terms, runs) with one random
    weight per block of cancellers: +-1, or +-2^20 for about one block in
    ten. The product keeps one term of each sign per block, times its
    weight. Returns (u, v)."""
    u, v, _ = blocked_telescoping_instance(log2_terms, runs)
    a = u.l0
    slots = v.indices[v.coeffs < 0] // a
    block = np.concatenate([[0], np.cumsum(np.diff(slots) != 1)])
    rng = np.random.default_rng(seed)
    weight = rng.choice([-1, 1], size=block[-1] + 1)
    weight[rng.random(weight.size) < 0.1] <<= 20
    c = weight[block]
    index = np.concatenate([a * slots, a * slots + 1])
    return u, from_arrays(v.length, index, np.concatenate([-c, c]))


@pytest.mark.parametrize("log2_terms, runs", [(11, 64), (11, 256),
                                              (12, 64), (12, 256)])
def test_weighted_telescoping_ends_by_a_folded_peel(monkeypatch, log2_terms,
                                                    runs):
    # unit blocks beside 2^20 blocks: every product is right, none raises,
    # and each is returned from a peel that folded
    peels = _record_peels(monkeypatch)
    for seed in range(6):
        u, v = _weighted_telescoping(log2_terms, runs, seed)
        assert np.abs(v.coeffs).max() == 1 << 20
        peels.clear()
        got = sparse_multiply(u, v, np.random.default_rng(seed))
        assert got == poly_multiply_naive(u, v), seed
        assert peels[-1][1], f"seed {seed} did not end by a folded peel"


def _misread_operands(budget, seed):
    """x, y over N = 2^22 with x * y = 2^20 (z^a - 1) + (z^(p + a) - z^p),
    a = 2^13 and p the prime that a locate call at this budget draws first
    from default_rng(seed). The pairs outnumber E and 4E < N (E = 22528 at
    budget 64), so the peel folds. Returns (x, y, p, a)."""
    n, a = 1 << 21, 1 << 13
    p = uniform_prime_below(prime_range_for(budget),
                            np.random.default_rng(seed))
    x = from_arrays(2 * n, np.arange(a), np.ones(a, dtype=np.int64))
    y = make_sparse_vector(2 * n, [(0, -1 << 20), (1, 1 << 20),
                                   (p, -1), (p + 1, 1)])
    limit = exact_read_limit(budget, 2 * n)
    assert x.l0 * y.l0 > limit and 4 * limit < 2 * n
    return x, y, p, a


def test_misread_term_is_recovered_by_the_next_call(monkeypatch):
    # -2^20 and -1 share bucket 0, and 2^20 and 1 share bucket a mod p.
    # w^p is within 0.01 of 1, so each shared bucket decodes, in its own
    # bucket, to one term of magnitude 2^20 + 1: the first call misreads
    # two terms and misses two, and the next call, at a new prime, reads
    # the four-term residual they leave. Each call keeps every heavy
    # reading, so each is followed by a fingerprint: the first rejects,
    # the second accepts, and the peel stops there, the j-th check at
    # delta / 2^(j+1)
    budget, seed = 64, 3
    x, y, p, a = _misread_operands(budget, seed)
    exact = cyclic_convolve_naive(x, y)
    real_test = driver.equality_test
    checks = []

    def fingerprint(x, y, w, delta, rng):
        checks.append((w, delta, real_test(x, y, w, delta, rng)))
        return checks[-1][2]

    monkeypatch.setattr(driver, "equality_test", fingerprint)
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x, y, budget, np.random.default_rng(seed))
    first = _w_after(rounds[0])
    assert rounds[0][3].primes == [p]
    assert first.to_pairs() == [(0, -(1 << 20) - 1), (a, (1 << 20) + 1)]
    assert w == exact and len(rounds) == 2
    assert subtract(exact, _w_after(rounds[-1])).is_zero
    delta = OUTER_FAILURE_CONSTANT
    assert checks == [(first, delta / 2, False), (exact, delta / 4, True)]


def test_fingerprint_budgets_of_a_round_sum_to_its_delta(monkeypatch):
    # every fingerprint rejects, so no peel may stop early: each folding
    # peel ends at an abort, a quiet fold or its last round, and the
    # driver goes on to an exact reading. The j-th check of round r gets
    # c / r^2 / 2^(j+1), so a round's checks sum to less than c / r^2
    checks = []
    real_peel = driver.hash_and_iterate
    rounds = _record_rounds(monkeypatch)

    def reject(x, y, w, delta, rng):
        checks[-1][1].append(delta)
        return False

    def peel(x, y, budget, rng, verify_rng, delta):
        r = (budget // ISOLATION_CONSTANT).bit_length() - 1
        assert delta == OUTER_FAILURE_CONSTANT / r ** 2
        checks.append((delta, []))
        start = len(rounds)
        w, floor = real_peel(x, y, budget, rng, verify_rng, delta)
        mine = rounds[start:]
        if mine:
            last = mine[-1][3]
            assert (last.aborted_rep is not None or last.heavy_counts == [0]
                    or len(mine) == (budget - 1).bit_length())
        assert (w is not None) == (not mine)    # an exact reading
        return w, floor

    monkeypatch.setattr(driver, "equality_test", reject)
    monkeypatch.setattr(driver, "hash_and_iterate", peel)
    products = [_telescoping_slots(7)[:2], _weighted_telescoping(11, 64, 0)]
    products += [blocked_telescoping_instance(e)[:2] for e in (10, 12)]
    for u, v in products:
        checks.clear()
        assert sparse_multiply(u, v, np.random.default_rng(0)) == \
            poly_multiply_naive(u, v)
        assert len(checks) > 2 and sum(len(d) for _, d in checks) > 2
    # one peel that makes two checks, the first two of the sequence, and
    # goes on to its quiet fold
    x, y, _, _ = _misread_operands(64, 3)
    checks.append((0.01, []))
    rounds.clear()
    w, _ = hash_and_iterate(x, y, 64, np.random.default_rng(3),
                            np.random.default_rng(0), 0.01)
    assert w is None and _w_after(rounds[-1]) == cyclic_convolve_naive(x, y)
    assert len(rounds) == 3 and rounds[-1][3].heavy_counts == [0]
    assert checks[-1][1] == [0.005, 0.0025]
    for delta, deltas in checks:
        assert deltas == [delta / 2 ** (j + 1) for j in range(len(deltas))]
        assert sum(deltas) < delta


def test_dense_reading_at_n_is_fingerprinted(monkeypatch):
    # 128 * 128 pairs at N = 2^14: at budgets 32 and 64 they outnumber E
    # and 4E >= N, so those peels read the dense real product. An exact
    # reading is returned by the first peel with no fingerprint. With the
    # error bound forced to 0.25 the reading is not exact, so it is
    # fingerprinted (and accepted); corrupted by one unit as well, it is
    # rejected at budgets 32 and 64, and the peel at budget 128, whose E
    # covers the pairs, returns the product
    u = make_sparse_vector(1 << 13, [(32 * j, 1 + j % 7) for j in range(128)])
    limit = exact_read_limit(ISOLATION_CONSTANT << 1, 1 << 14)
    assert u.l0 * u.l0 > limit and 4 * limit >= 1 << 14
    want = poly_multiply_naive(u, u)
    peels = _record_peels(monkeypatch)
    verdicts = _count_fingerprints(monkeypatch)
    assert sparse_multiply(u, u, np.random.default_rng(6)) == want
    assert peels == [(32, [])] and verdicts == []

    monkeypatch.setattr(vectors, "_fft_error_bound", lambda x, y: 0.25)
    peels.clear()
    assert sparse_multiply(u, u, np.random.default_rng(6)) == want
    assert peels == [(32, [])] and verdicts == [(want, True)]

    real_product = driver._rounded_fft_product
    corrupted = []

    def off_by_one(x, y):
        product, exact = real_product(x, y)
        assert not exact
        corrupted.append(add(product, make_sparse_vector(x.length, [(0, 1)])))
        return corrupted[-1], exact

    monkeypatch.setattr(driver, "_rounded_fft_product", off_by_one)
    verdicts.clear()
    assert sparse_multiply(u, u, np.random.default_rng(6)) == want
    assert len(corrupted) == 2
    assert verdicts == [(w, False) for w in corrupted]


def _mass_corner(n, rng):
    """An operand in dimension N = 2n with five coefficients 2^20, one of
    681061 and 100 of +-1, one of them at index n - 1. Two of them have an
    l1 mass product of 2^44.996, inside the 2^45 float budget."""
    idx = np.append(rng.choice(n - 1, size=106, replace=False), n - 1)
    return from_arrays(2 * n, idx, np.concatenate(
        [[1 << 20] * 5, [681061], rng.choice([-1, 1], size=101)]))


@pytest.mark.parametrize("log2_n, exact", [(22, True), (24, False)])
def test_dense_reading_at_the_mass_corner(monkeypatch, log2_n, exact):
    # The top index 2n - 2 puts the transform at N. The error bound reads
    # 0.233 at N = 2^22 and 0.254 at N = 2^24, where the reading is not
    # exact, so the driver fingerprints it; both readings are correct. The
    # largest rounding residue of the float product, 1.7e-4 and 1.5e-4
    # (seed 28), stays below a hundredth of the bound.
    n = 1 << (log2_n - 1)
    rng = np.random.default_rng(28)
    x, y = _mass_corner(n, rng), _mass_corner(n, rng)
    driver._check_float_budget(x, y)
    floats = []
    real_irfft = np.fft.irfft

    def irfft(*args):
        floats.append(real_irfft(*args))
        return floats[-1].copy()    # the caller writes residues into it

    monkeypatch.setattr(np.fft, "irfft", irfft)
    product, got = vectors._rounded_fft_product(x, y)
    bound = vectors._fft_error_bound(x, y)
    assert (bound < 0.25) == got == exact
    (conv,) = floats
    assert conv.size == 2 * n
    residue = float(np.abs(conv - np.rint(conv)).max())
    assert residue < bound / 100, (residue, bound)
    assert product == cyclic_convolve_naive(x, y)


def test_residue_check_and_bound_refusal_of_the_dense_product(monkeypatch):
    # A float product off by 0.3 at one index still rounds right and its
    # bound passes, but its residue does not: the reading is not exact,
    # and dense_fft_multiply raises its residue error. With the bound at
    # 0.25 it refuses before the transform.
    x = make_sparse_vector(64, [(0, 3), (5, -2), (9, 7)])
    real_irfft = np.fft.irfft

    def off_by_three_tenths(*args):
        conv = real_irfft(*args)
        conv[3] += 0.3
        return conv

    monkeypatch.setattr(np.fft, "irfft", off_by_three_tenths)
    product, exact = vectors._rounded_fft_product(x, x)
    assert product == cyclic_convolve_naive(x, x) and not exact
    with pytest.raises(EnvelopeError, match="FFT rounding residue exceeded"):
        vectors.dense_fft_multiply(x, x)
    monkeypatch.setattr(vectors, "_fft_error_bound", lambda x, y: 0.25)
    with pytest.raises(EnvelopeError, match="coefficient mass too large"):
        vectors.dense_fft_multiply(x, x)


def test_unwrapped_product_at_a_large_prime_factor_runs_at_a_power_of_two(
        monkeypatch):
    # n = 65521 is prime, so N = 2n has a large prime factor. The top
    # index 2n - 2 lies in [2^16, N), so the power of two above it is
    # 2^17 > N, and nothing wraps there: both the dense baseline and the
    # driver's reading at N (budget 128, where 4E >= N and the pairs
    # outnumber E) transform at 2^17, not at N
    n = 65521
    rng = np.random.default_rng(21)
    u, v = (from_arrays(n, np.append(rng.choice(n - 1, 199, replace=False),
                                     n - 1), rng.integers(1, 100, 200))
            for _ in range(2))
    x, y = embed_for_product(u, v)
    limit = exact_read_limit(128, 2 * n)
    assert x.l0 * y.l0 > limit and 4 * limit >= 2 * n
    sizes = []
    real_rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft",
                        lambda a: sizes.append(a.size) or real_rfft(a))
    want = poly_multiply_naive(u, v)
    assert poly_multiply_dense(u, v) == want
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x, y, 128, np.random.default_rng(0))
    assert w == want and rounds == []
    assert sizes == [1 << 17] * 4


def test_exact_read_limit_formula():
    # E = C * B * ceil(log2 N) with C = 16
    assert exact_read_limit(128, 1 << 16) == 16 * 128 * 16
    assert exact_read_limit(3, 1000) == 16 * 3 * 10
    assert exact_read_limit(1, 2) == 16
    assert exact_read_limit(1, 3) == 32


def _no_locate(*args):
    raise AssertionError("an exact reading calls no locate")


def test_peel_reads_exactly_when_pairs_fit_the_limit(monkeypatch):
    # at budget 1 the pair reading fires at exactly E pairs and keeps the
    # whole product, though it is above the budget; one pair more folds
    n = 512                             # N = 1024, budget 1: E = 160
    x = make_sparse_vector(2 * n, [(j, 2 * j - 7) for j in range(10)])
    y = make_sparse_vector(2 * n, [(3 * j, 9 - 2 * j) for j in range(16)])
    assert x.l0 * y.l0 == exact_read_limit(1, 2 * n) == 160
    monkeypatch.setattr(driver, "locate_with_report", _no_locate)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    w, floor = _peel(x, y, 1, rng)
    assert w == cyclic_convolve_naive(x, y) and w.l0 > 1 and floor == 0
    assert rng.bit_generator.state == state
    monkeypatch.undo()
    x7 = make_sparse_vector(2 * n, [(j, j + 1) for j in range(7)])
    y23 = make_sparse_vector(2 * n, [(j, j + 2) for j in range(23)])
    assert x7.l0 * y23.l0 == 161
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x7, y23, 1, rng)
    assert rounds and rounds[0][3].primes and w is None


def test_peel_reads_densely_when_4e_reaches_n(monkeypatch):
    # 4E >= N: the dense real product reads the whole product, with no
    # fold and no draw, and keeps it whatever its size, proven, since its
    # bound and residues are below 0.25; N = 128 at budget
    # 16 (E = 1792 >= N) and N = 2^14 at budget 32 (E = 7168: N/4 <= E < N)
    monkeypatch.setattr(driver, "locate_with_report", _no_locate)
    small = make_sparse_vector(128, [(j, 1 + j % 7) for j in range(64)])
    spread = make_sparse_vector(1 << 14, [(64 * j, 1 + j % 7)
                                          for j in range(128)])
    for x, budget in ((small, 16), (spread, 32)):
        limit = exact_read_limit(budget, x.length)
        assert x.l0 * x.l0 > limit and 4 * limit >= x.length
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        w, floor = _peel(x, x, budget, rng)
        assert w == cyclic_convolve_naive(x, x) and w.l0 > budget
        assert floor == 0
        assert rng.bit_generator.state == state


def test_dense_reading_at_n_keeps_the_unit_terms_beside_a_large_one(
        monkeypatch):
    # N = 2^17 at budget 128: E = 34816, so 4E >= N and the 401^2 pairs
    # outnumber E. Each operand has one coefficient 2^20 among 400 of
    # +-1 (l1 mass product about 2^40, inside the envelope); the reading
    # at N must return every term of the product, the small ones too.
    n = 1 << 16
    rng = np.random.default_rng(17)
    x, y = (from_arrays(2 * n, rng.choice(n, size=401, replace=False),
                        np.append(1 << 20, rng.choice([-1, 1], size=400)))
            for _ in range(2))
    limit = exact_read_limit(128, 2 * n)
    assert x.l0 * y.l0 > limit and 4 * limit >= 2 * n
    rounds = _record_rounds(monkeypatch)
    w, _ = _peel(x, y, 128, np.random.default_rng(0))
    assert rounds == []
    assert w == cyclic_convolve_naive(x, y)


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
    # each stubbed peel returns no product, with the scripted heavy count
    # at which its first locate call aborted as its floor (None: did not
    # abort, floor 0); the next budget is the least C * 2^r at or above
    # it, and never below the doubled one
    budgets = []

    def peel(x, y, budget, rng, verify_rng, delta):
        budgets.append(budget)
        if len(budgets) > len(heavy):
            raise _Stop
        h = heavy[len(budgets) - 1]
        return None, 0 if h is None else h

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
    assert peels[-1][1] and all(report.primes
                                for *_, report in peels[-1][1])


@pytest.mark.parametrize("site", ["locate.uniform_prime_below",
                                  "fingerprint.random_prime_in_range"])
def test_sampler_failure_raises_multiplication_failed(monkeypatch, site):
    module, name = site.split(".")
    message = "no prime found in [2, 99] after 3 draws"

    def give_up(*args):
        raise PrimeSamplingError(message)

    monkeypatch.setattr(importlib.import_module(f"sparseconv.{module}"),
                        name, give_up)
    # the first peel folds at a drawn prime and recovers terms, so its
    # nonempty w reaches the fingerprint
    u, v, _ = _telescoping_slots(0)
    with pytest.raises(MultiplicationFailed) as info:
        sparse_multiply(u, v, np.random.default_rng(0))
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


def test_every_exported_name_resolves():
    # a stale entry in __all__ would surface only as an ImportError in a
    # caller's `from sparseconv import *`
    missing = [name for name in sparseconv.__all__
               if not hasattr(sparseconv, name)]
    assert missing == []
    assert "locate" not in sparseconv.__all__
    # locate_with_report takes embedded operands with no check
    assert "locate_with_report" not in sparseconv.__all__
    assert not hasattr(sparseconv, "locate_with_report")
    assert sparseconv.locate is importlib.import_module("sparseconv.locate")


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


def _naive_product_under_limit(terms: int, limit: int) -> list[str]:
    """Run poly_multiply_naive at n = 2^25 (N = 2^26) on two gen_instance
    operands of `terms` terms in a subprocess whose address space is capped
    at `limit` bytes, check the product with equality_test at delta 0.1,
    and return the printed [l0, verdict]."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))
    code = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "import numpy as np\n"
        "from sparseconv import equality_test\n"
        "from sparseconv.instances import InstanceSpec, gen_instance\n"
        "from sparseconv.vectors import embed_for_product, "
        "poly_multiply_naive\n"
        f"u, v = gen_instance(InstanceSpec(n=1 << 25, terms={terms},\n"
        "    coeff_bound=100, cancel_fraction=0.0, seed=1))\n"
        "w = poly_multiply_naive(u, v)\n"
        "x, y = embed_for_product(u, v)\n"
        "print(w.l0, equality_test(x, y, w, 0.1, np.random.default_rng(0)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout.split()


def test_pair_reading_memory_at_2_to_the_26():
    # n = 2^25 with 8192 terms per operand: 67 M term pairs at N = 2^26
    # and a 38 M-term product. The dense accumulator of N int64 words
    # peaks near 1.7 GB of address space; sorting the pairs runs out of
    # memory under this 2.25 GiB limit.
    assert _naive_product_under_limit(8192, 9 << 28)[1] == "True"


def test_sort_route_memory_at_2_to_the_26():
    # n = 2^25 with 2047 terms per operand: 4,190,209 term pairs, about
    # N / 16, so the pairs are sorted. That peaks near 308 MiB of address
    # space; the dense accumulator at this size peaks near 784 MiB, so this
    # 640 MiB limit fails if the accumulator ever serves this size.
    assert _naive_product_under_limit(2047, 640 << 20)[1] == "True"


def test_sort_route_memory_at_the_route_boundary():
    # n = 2^25 with 2896 terms per operand: 8,386,816 term pairs, the
    # most below N / 8, so the pairs are sorted. That peaks near 464 MiB
    # of address space; the dense accumulator at this size peaks near
    # 901 MiB, so this 768 MiB limit fails if the accumulator ever serves
    # this size.
    assert 8 * 2896 ** 2 < 1 << 26 <= 8 * 2897 ** 2
    assert _naive_product_under_limit(2896, 768 << 20)[1] == "True"
