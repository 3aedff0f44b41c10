"""End-to-end acceptance gate for the sparse multiplication pipeline.

Each test covers one headline guarantee at desk scale, prints a one-line
PASS/FAIL verdict with its measurements, and asserts the stated tolerance.
Budgets quoted in the verdict lines are wall-clock expectations on one
commodity core, not hard limits enforced by the tests.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np
import pytest

from sparseconv import cli
from sparseconv.driver import MultiplicationFailed, sparse_multiply
from sparseconv.fingerprint import equality_test
from sparseconv.folding import _unit_root_powers, heavy_residual_buckets
from sparseconv.instances import (InstanceSpec, blocked_telescoping_instance,
                                  gen_instance)
from sparseconv.locate import (decode_indices, locate_with_report,
                               prime_range_for)
from sparseconv.primes import PrimeSamplingError, uniform_prime_below
from sparseconv.seeding import substream
from sparseconv.vectors import (embed_for_product, from_arrays,
                                make_sparse_vector, poly_multiply_dense,
                                poly_multiply_naive, subtract)


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    # Suspend capture so the per-criterion lines always reach the terminal.
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


def _sparse_with_seed(u, v, seed: int):
    return sparse_multiply(u, v, substream(seed, "multiply"))


# --- 1. oracle equivalence on 500 random instances ------------------------

def test_oracle_equivalence_500_instances(capsys):
    sizes = (1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16)
    mix = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    ok = wrong = failed = 0
    for i in range(500):
        n = sizes[i % 5]
        terms = min(n, 256, max(1, round(2 ** mix.uniform(0.0, 8.0))))
        cancel = {7: 0.5, 9: 1.0}.get(i % 10, 0.0)
        u, v = gen_instance(InstanceSpec(n=n, terms=terms, coeff_bound=100,
                                         cancel_fraction=cancel,
                                         seed=1000 + i))
        exact = poly_multiply_naive(u, v)
        try:
            got = _sparse_with_seed(u, v, 1000 + i)
        except (MultiplicationFailed, PrimeSamplingError):
            failed += 1       # explicit failure: allowed, counted, never wrong
            continue
        if got == exact:
            ok += 1
        else:
            wrong += 1
    elapsed = time.perf_counter() - t0
    good = ok >= 495 and wrong == 0
    _verdict(capsys, "oracle equivalence",
             good, f"{ok}/500 exact, {wrong} wrong, {failed} explicit "
                   f"failures, {elapsed:.1f}s of 120s budget")
    assert wrong == 0, f"{wrong} silent wrong results"
    assert ok >= 495, f"only {ok}/500 exact"


# --- 2. cancellation: runtime tracks sizes, not structure ------------------

def test_cancellation_telescoping_runtime(capsys):
    n = 1 << 15
    s = 1 << 14
    tele_u = make_sparse_vector(n, [(j, 1) for j in range(s)])
    tele_v = make_sparse_vector(n, [(0, -1), (1, 1)])
    # untimed warm-up, a half-length run that also folds: the first product
    # of a process imports numpy.random and sets up the FFT, which neither
    # side should be timed for
    half_u = make_sparse_vector(n, [(j, 1) for j in range(s // 2)])
    assert _sparse_with_seed(half_u, tele_v, 20).l0 == 2
    t0 = time.perf_counter()
    tele = _sparse_with_seed(tele_u, tele_v, 21)
    t_tele = time.perf_counter() - t0
    assert tele.to_pairs() == [(0, -1), (s, 1)]

    # comparison point: same n and input sparsity, fully visible product
    rng = np.random.default_rng(22)
    idx = np.sort(rng.choice(n, size=s, replace=False))
    coef = rng.integers(1, 3, size=s)
    comp_u = make_sparse_vector(n, list(zip(idx.tolist(), coef.tolist())))
    comp_v = make_sparse_vector(n, [(3, 1)])
    t0 = time.perf_counter()
    comp = _sparse_with_seed(comp_u, comp_v, 23)
    t_comp = time.perf_counter() - t0
    assert comp.l0 == s

    ratio = t_tele / t_comp
    good = ratio <= 4.0
    _verdict(capsys, "cancellation runtime",
             good, f"telescoping {t_tele * 1e3:.0f}ms vs random "
                   f"{t_comp * 1e3:.0f}ms, ratio {ratio:.2f} <= 4")
    assert good, f"telescoping {ratio:.2f}x slower than size-matched random"


# --- 3. index decoding is exact on the whole root circle -------------------

def test_decode_exhaustive_and_random(capsys):
    # the production decoder on the production phases, up to the
    # envelope's embedded dimension 2^26
    def misses(js, half):
        return int(np.count_nonzero(
            decode_indices(_unit_root_powers(js, half), half) != js))

    t0 = time.perf_counter()
    bad = misses(np.arange(1 << 17), 1 << 16)
    rng = np.random.default_rng(33)
    for half in (1 << 24, 1 << 26):
        bad += misses(rng.integers(0, 2 * half, size=1_000_000), half)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, "decode exactness",
             bad == 0, f"2^17 exhaustive + 1e6 random roots at each of "
                       f"N = 2^24, 2^26, {bad} misses, "
                       f"{elapsed:.1f}s of 30s budget")
    assert bad == 0


# --- 4. folding commutes with convolution up to tiny float error -----------

def test_folded_convolution_identity(capsys):
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(100):
        n = 1 << int(rng.integers(6, 13))              # n <= 2^12
        terms = int(rng.integers(1, min(65, n + 1)))   # <= 64 terms
        u, v = gen_instance(InstanceSpec(n=n, terms=terms, coeff_bound=1024,
                                         cancel_fraction=0.0, seed=4400 + i))
        x, y = embed_for_product(u, v)
        exact = poly_multiply_naive(u, v)
        p = uniform_prime_below(10_000, rng)
        # threshold 0: every bucket of fold(x) (*) fold(y) - fold(exact)
        _, gap = heavy_residual_buckets(x, y, exact, p, 0.0)
        err = float(np.max(np.abs(gap)))
        worst = max(worst, err)
    good = worst <= 1e-4
    _verdict(capsys, "folded convolution identity",
             good, f"100 instances, worst bucket error {worst:.2e} <= 1e-4")
    assert good, f"worst folded-convolution error {worst:.2e}"


# --- 5. random-prime hashing isolates nearly all of a 100-term support -----

def test_isolation_statistics(capsys):
    budget = 16 * 128
    limit = prime_range_for(budget)
    rng = np.random.default_rng(55)
    passed = 0
    for _ in range(200):
        support = rng.choice(1 << 16, size=100, replace=False)
        p = uniform_prime_below(limit, rng)
        hits = np.bincount(support % p, minlength=p)
        isolated = int(np.count_nonzero(hits[support % p] == 1))
        passed += isolated / 100 >= 0.9375
    good = passed >= 170
    _verdict(capsys, "isolation statistics",
             good, f"{passed}/200 trials with >= 93.75% isolated "
                   f"(need >= 170)")
    assert good, f"only {passed}/200 trials reached the isolation bound"


# --- 6. fingerprint equality test: one-sided and sound ---------------------

def _equality_with_retry(x, y, w, delta, seed):
    for attempt in range(4):
        try:
            return equality_test(x, y, w, delta,
                                 substream(seed + 1000 * attempt, "verify"))
        except PrimeSamplingError:
            continue
    raise AssertionError("prime sampling failed four times in a row")


def test_fingerprint_one_sided_and_sound(capsys):
    yes = 0
    for i in range(100):
        u, v = gen_instance(InstanceSpec(n=1 << 10, terms=32, coeff_bound=100,
                                         cancel_fraction=0.0, seed=6600 + i))
        x, y = embed_for_product(u, v)
        w = poly_multiply_naive(u, v)
        yes += _equality_with_retry(x, y, w, 0.1, 6600 + i)
    assert yes == 100, f"completeness broke: {yes}/100 yes on equal triples"

    rng = np.random.default_rng(66)
    no = 0
    for i in range(1000):
        u, v = gen_instance(InstanceSpec(n=1 << 10, terms=32, coeff_bound=100,
                                         cancel_fraction=0.0, seed=7700 + i))
        x, y = embed_for_product(u, v)
        w = poly_multiply_naive(u, v)
        idx = int(rng.integers(0, w.length))
        bump = int(rng.integers(1, 4)) * (1 if rng.integers(2) else -1)
        wp = subtract(w, make_sparse_vector(w.length, [(idx, -bump)]))
        no += not _equality_with_retry(x, y, wp, 0.1, 7700 + i)
    good = no >= 990
    _verdict(capsys, "fingerprint correctness",
             yes == 100 and good,
             f"100/100 yes on equal, {no}/1000 no on perturbed (need >= 990)")
    assert good, f"only {no}/1000 perturbations rejected"


# --- 7. one locate round recovers all but a 5/16 fraction ------------------

def test_locate_contract_single_round(capsys):
    # 300 x 300 pairs at N = 2^20 and budget 256 outnumber the exact-read
    # limit (81920), and 4 * 81920 < N: every round folds at primes of
    # [L/2, L] = [16384, 32768], on a residual of budget / 16 terms
    gamma5 = 5.0 / 16.0
    budget = 256
    residual_size = budget // 16
    passed = 0
    for i in range(100):
        u, v = gen_instance(InstanceSpec(n=1 << 19, terms=300, coeff_bound=100,
                                         cancel_fraction=0.0, seed=8800 + i))
        x, y = embed_for_product(u, v)
        exact = poly_multiply_naive(u, v)
        assert exact.l0 >= residual_size
        rng = np.random.default_rng(8800 + i)
        drop = np.sort(rng.choice(exact.l0, size=residual_size, replace=False))
        residual = from_arrays(exact.length, exact.indices[drop],
                               exact.coeffs[drop])
        w = subtract(exact, residual)
        z, report = locate_with_report(x, y, w, bucket_budget=budget,
                                       rng=substream(8800 + i, "multiply"))
        assert report.primes, "the round read exactly instead of folding"
        missed = subtract(z, residual).l0
        passed += missed <= gamma5 * residual_size
    good = passed >= 90
    _verdict(capsys, "locate contract",
             good, f"{passed}/100 single rounds within the 5/16 residual "
                   f"bound (need >= 90)")
    assert good, f"only {passed}/100 locate rounds met the contract"


def test_locate_one_fold_contract(capsys):
    # Check 7's instances against the one-fold contract of
    # driver.sparse_multiply: a good fold leaves at most 3/32 of the
    # residual, here floor(3/32 * 16) = 1 missed-or-junk term. On a
    # budget / 16 residual (h = 1) at N = 2^20 the proven rate of bad
    # folds is at most q / h' = (1/8) * c ~ 0.36, c = 5 ln 2^20 / 24, so
    # at least 64 of 100 rounds are good in expectation; 90 is asserted,
    # as in check 7.
    budget = 256
    residual_size = budget // 16
    passed = 0
    for i in range(100):
        u, v = gen_instance(InstanceSpec(n=1 << 19, terms=300, coeff_bound=100,
                                         cancel_fraction=0.0, seed=8800 + i))
        x, y = embed_for_product(u, v)
        exact = poly_multiply_naive(u, v)
        rng = np.random.default_rng(8800 + i)
        drop = np.sort(rng.choice(exact.l0, size=residual_size, replace=False))
        residual = from_arrays(exact.length, exact.indices[drop],
                               exact.coeffs[drop])
        z, _ = locate_with_report(x, y, subtract(exact, residual),
                                  bucket_budget=budget,
                                  rng=substream(8800 + i, "multiply"))
        passed += subtract(z, residual).l0 <= 3 * residual_size // 32
    good = passed >= 90
    _verdict(capsys, "one-fold contract",
             good, f"{passed}/100 single rounds leave at most 1 of "
                   f"{residual_size} residual terms (need >= 90)")
    assert good, f"only {passed}/100 locate rounds met the one-fold contract"


# --- 8. output-sensitive scaling on a high-cancellation family -------------

def test_output_sensitive_scaling(capsys):
    t0 = time.perf_counter()
    sparse_med = {}
    naive_med = {}
    for e in range(10, 15):
        u, v, exact = blocked_telescoping_instance(e)
        assert exact.l0 == 32
        ts, tn = [], []
        # CPU time of this process, as perfbench measures: a busy
        # neighbour on a shared host moves wall time, not this. The sparse
        # product takes only 2-4 ms, so its median is over 15 runs; naive
        # takes up to 1.6 s and keeps 5.
        for rep in range(15):
            t1 = time.process_time()
            got = _sparse_with_seed(u, v, 100 * e + rep)
            ts.append(time.process_time() - t1)
            assert got == exact
            if rep < 5:
                t1 = time.process_time()
                poly_multiply_naive(u, v)
                tn.append(time.process_time() - t1)
        sparse_med[e] = statistics.median(ts)
        naive_med[e] = statistics.median(tn)
    sparse_ratios = [sparse_med[e + 1] / sparse_med[e] for e in range(10, 14)]
    naive_ratios = [naive_med[e + 1] / naive_med[e] for e in range(10, 14)]
    elapsed = time.perf_counter() - t0
    good = max(sparse_ratios) <= 2.5 and min(naive_ratios) >= 3.0
    _verdict(capsys, "output-sensitive scaling",
             good,
             "per doubling e = 10->11 .. 13->14: sparse "
             + " ".join(f"x{r:.2f}" for r in sparse_ratios)
             + " (each <= 2.5), naive "
             + " ".join(f"x{r:.2f}" for r in naive_ratios)
             + f" (each >= 3.0), {elapsed:.0f}s of 120s budget")
    assert max(sparse_ratios) <= 2.5, f"sparse ratios {sparse_ratios}"
    assert min(naive_ratios) >= 3.0, f"naive ratios {naive_ratios}"


# --- 9. dense-FFT crossover at n = 2^22 (soft target) ----------------------

@functools.lru_cache(maxsize=1)
def _crossover_measurement():
    u, v = gen_instance(InstanceSpec(n=1 << 22, terms=512, coeff_bound=100,
                                     cancel_fraction=0.0, seed=9900))
    ts, td, agree = [], [], True
    for rep in range(5):
        t1 = time.perf_counter()
        got = _sparse_with_seed(u, v, 9900 + rep)
        ts.append(time.perf_counter() - t1)
        t1 = time.perf_counter()
        dense = poly_multiply_dense(u, v)
        td.append(time.perf_counter() - t1)
        agree = agree and got == dense
    return statistics.median(ts), statistics.median(td), agree


def test_crossover_instance_agreement():
    t_sparse, t_dense, agree = _crossover_measurement()
    assert agree, "sparse and dense outputs diverged at n=2^22"


@pytest.mark.xfail(strict=False,
                   reason="pure-numpy backend does not reach the dense-FFT "
                          "crossover at n=2^22 on one core; ratio reported")
def test_crossover_speed_soft(capsys):
    t_sparse, t_dense, _ = _crossover_measurement()
    ratio = t_sparse / t_dense
    _verdict(capsys, "dense crossover (soft)",
             ratio < 1.0,
             f"sparse {1e3 * t_sparse:.1f} ms vs dense {1e3 * t_dense:.1f} ms "
             f"median of 5, ratio {ratio:.3g} (target < 1.0)")
    assert ratio < 1.0, f"sparse/dense ratio {ratio:.3g}"


# --- 10. repeated commands are byte-identical ------------------------------

def _run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_determinism_byte_identical(tmp_path, capsys):
    checks = []

    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    outs, logs = [], []
    for run in range(2):
        code, log = _run_cli(["gen", "--n", "4096", "--terms", "64",
                              "--coeff-bound", "100", "--seed", "424242",
                              "-o", str(a), "-o2", str(b)], capsys)
        assert code == 0
        outs.append(a.read_bytes() + b.read_bytes())
        logs.append(log)
    checks.append(outs[0] == outs[1] and logs[0] == logs[1])

    prod = tmp_path / "p.poly"
    outs, logs = [], []
    for run in range(2):
        code, log = _run_cli(["multiply", str(a), str(b), "--algo", "sparse",
                              "--seed", "424242", "-o", str(prod)], capsys)
        assert code == 0
        outs.append(prod.read_bytes())
        logs.append(log)
    checks.append(outs[0] == outs[1] and logs[0] == logs[1])

    code, _ = _run_cli(["verify", str(a), str(b), str(prod),
                        "--seed", "424242"], capsys)
    assert code == 0

    records = []
    for run in range(2):
        code, log = _run_cli(["bench", "--n", "4096", "--terms", "64",
                              "--coeff-bound", "100", "--repeats", "2",
                              "--seed", "424242"], capsys)
        assert code == 0
        rows = [json.loads(line) for line in log.splitlines()]
        for row in rows:
            row.pop("wall_millis")
        records.append(rows)
    checks.append(records[0] == records[1])

    good = all(checks)
    _verdict(capsys, "determinism",
             good, f"gen/multiply/bench reruns byte-identical: {checks}")
    assert good, f"non-deterministic stages: {checks}"
