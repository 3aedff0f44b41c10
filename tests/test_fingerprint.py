"""Modular-evaluation fingerprint: one-sided product verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseconv import fingerprint
from sparseconv.fingerprint import (_power_table, eval_rounds,
                                    eval_sparse_poly_mod, equality_test)
from sparseconv.primes import random_prime_in_range
from sparseconv.vectors import (MAX_DIMENSION, cyclic_convolve_naive,
                                embed_for_product, from_arrays,
                                make_sparse_vector, zero_vector)


def tables(point, k, modulus):
    """The baby and giant tables equality_test builds at one point."""
    point %= modulus
    return (_power_table(point, 1 << k, np.uint64(modulus)),
            _power_table(pow(point, 1 << k, modulus), 1 << k,
                         np.uint64(modulus)))


def evaluate(f, point, modulus):
    """eval_sparse_poly_mod at point, on tables sized by f's top index."""
    k = ((int(f.indices[-1]) if f.l0 else 0).bit_length() + 1) // 2
    return eval_sparse_poly_mod(f, *tables(point, k, modulus), modulus)


def reference_eval(f, point, modulus):
    """sum(c * point^j) mod modulus term by term with builtin pow."""
    return sum(c * pow(point, j, modulus) for j, c in f.to_pairs()) % modulus


def test_eval_known_values():
    f = make_sparse_vector(8, [(0, 1), (1, 1), (2, 1), (3, 1)])
    assert evaluate(f, 2, 101) == 15  # 1 + 2 + 4 + 8
    g = make_sparse_vector(8, [(3, 5)])
    assert evaluate(g, 2, 1000) == 40
    assert evaluate(zero_vector(8), 2, 101) == 0


def test_eval_negative_coefficients():
    f = make_sparse_vector(4, [(0, -1), (1, 1)])
    # f(3) = 2 regardless of modulus
    assert evaluate(f, 3, 97) == 2
    f2 = make_sparse_vector(4, [(0, -5)])
    assert evaluate(f2, 0, 7) == 2  # -5 mod 7


def test_eval_matches_builtin_pow():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = 1 << 12
        k = int(rng.integers(1, 12))
        idx = np.sort(rng.choice(n, size=k, replace=False))
        val = rng.integers(-100, 101, size=k)
        val[val == 0] = 1
        f = from_arrays(n, idx, val)
        p = 10007
        r = int(rng.integers(0, p))
        assert evaluate(f, r, p) == reference_eval(f, r, p)


def test_eval_power_tables_agree_across_dimensions():
    p = 4001
    r = 1234
    # the power tables are sized from the top index, not the dimension
    dense = make_sparse_vector(64, [(j, j + 1) for j in range(32)])
    sparse = make_sparse_vector(1 << 22,
                                [(j, j + 1) for j in range(32)])
    assert evaluate(dense, r, p) == evaluate(sparse, r, p)
    lone = make_sparse_vector(1 << 22, [((1 << 22) - 1, 9)])
    want = 9 * pow(r, (1 << 22) - 1, p) % p
    assert evaluate(lone, r, p) == want


def test_eval_on_tables_wider_than_its_top_index():
    # equality_test sizes one pair of tables for x, y and w together, so
    # a short polynomial is read from tables sized for a longer one
    rng = np.random.default_rng(12)
    p = 2147483647
    for top in (0, 1, 5, 300, 1 << 13):
        idx = np.unique(np.append(rng.integers(0, top + 1, 8), top))
        f = from_arrays(1 << 26, idx, rng.integers(-50, 51, idx.size) | 1)
        r = int(rng.integers(0, p))
        for k in range((top.bit_length() + 1) // 2, 14):
            got = eval_sparse_poly_mod(f, *tables(r, k, p), p)
            assert got == reference_eval(f, r, p)


def test_eval_single_terms_match_builtin_pow():
    # one term with coefficient 1 is point^j mod p: every index width,
    # moduli up to the 2^32 - 1 the uint64 arithmetic allows
    rng = np.random.default_rng(11)
    for _ in range(300):
        j = int(rng.integers(0, 1 << int(rng.integers(1, 27))))
        mod = int(rng.integers(2, 1 << 32))
        base = int(rng.integers(0, 1 << 40))
        f = make_sparse_vector(MAX_DIMENSION, [(j, 1)])
        assert evaluate(f, base, mod) == pow(base, j, mod)


def test_eval_iterated_squaring_oracle():
    # recompute 3^(2^25) mod 1e9+7 by squaring twenty-five times
    mod = 10**9 + 7
    acc = 3
    for _ in range(25):
        acc = acc * acc % mod
    f = make_sparse_vector(MAX_DIMENSION, [(1 << 25, 1)])
    assert evaluate(f, 3, mod) == acc


@st.composite
def eval_cases(draw):
    """(f, point, modulus): corner indices 0 and length - 1 with drawn
    coefficients plus up to 3000 seeded random terms; moduli small, in the
    sampler's [2^30, 2^31] and just below 2^32; points 0, 1, p - 1 or
    any."""
    length = 1 << draw(st.one_of(st.just(26), st.integers(1, 26)))
    modulus = draw(st.one_of(st.integers(2, 1 << 16),
                             st.integers(1 << 30, 1 << 31),
                             st.integers((1 << 32) - 4096, (1 << 32) - 1)))
    point = draw(st.one_of(st.sampled_from([0, 1, modulus - 1]),
                           st.integers(0, modulus - 1)))
    bound = 1 << 45
    corners = [(0, draw(st.integers(-bound, bound))),
               (length - 1, draw(st.integers(-bound, bound)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3000))
    idx = np.concatenate([[j for j, _ in corners], rng.integers(0, length, k)])
    val = np.concatenate([[c for _, c in corners],
                          rng.integers(-bound, bound + 1, k)])
    return from_arrays(length, idx, val), point, modulus


@given(eval_cases())
@settings(max_examples=60, deadline=None)
def test_eval_matches_reference_property(case):
    f, point, modulus = case
    assert evaluate(f, point, modulus) == reference_eval(
        f, point, modulus)


def test_eval_top_of_the_field_matches_builtin_pow():
    # the largest residues: coefficients of +-2^60 and the int64 extremes
    # (at -2^63, (c // p) * p wraps) at the top index, with the largest
    # prime below 2^32 and the largest modulus the guard allows
    top = MAX_DIMENSION - 1
    for p in (4294967291, (1 << 32) - 1):
        for top_coeff in (-(1 << 60), (1 << 63) - 1, -(1 << 63)):
            f = make_sparse_vector(MAX_DIMENSION,
                                   [(0, -(1 << 60)), (1, 1 << 60),
                                    (top - 1, 1 << 60), (top, top_coeff)])
            for point in (p - 1, p - 2, 3, 1 << 31):
                assert evaluate(f, point, p) == reference_eval(f, point, p)


def test_eval_rounds_formula():
    # log2(3/0.1) / log2(2^30 / 2^26) = 4.9/4 -> ceil = 2, plus 1
    assert eval_rounds(0.1, MAX_DIMENSION) == 3
    # 4.9/20 -> ceil = 1, plus 1
    assert eval_rounds(0.1, 1 << 10) == 2
    assert eval_rounds(0.0001, MAX_DIMENSION) >= 4
    for bad in ((0.0, 8), (1.0, 8)):
        with pytest.raises(ValueError):
            eval_rounds(*bad)


def test_eval_rounds_keeps_the_quotient_formula_and_takes_any_delta():
    # log2(3) - log2(delta) gives the point count log2(3 / delta) gave on
    # every budget the driver hands out, delta_r / 2^(j+1) with delta_r =
    # (1/400) / r^2, and on common deltas, at every dimension 2^1 .. 2^26
    deltas = [1 / 400 / (r * r) / 2 ** (j + 1)
              for r in range(1, 41) for j in range(40)]
    deltas += [0.5, 0.25, 0.1, 0.05, 0.01, 1 / 400, 1e-3, 1e-6, 1e-9]
    for b in range(1, 27):
        per_point = 30 - b
        for delta in deltas:
            want = math.ceil(math.log2(3.0 / delta) / per_point) + 1
            assert eval_rounds(delta, 1 << b) == want
    # 3 / delta overflows below about 1.7e-308. The smallest subnormal,
    # 2^-1074, needs log2(3) + 1074 bits: ceil(1075.6 / 4) + 1 points
    assert eval_rounds(5e-324, MAX_DIMENSION) == 270


@pytest.mark.parametrize("delta", [0.5, 0.1, 0.01, 1 / 400, 1e-6])
def test_eval_rounds_meets_the_failure_bound(delta):
    # all points are roots with probability at most q^rounds, q = N / 2^30:
    # that must stay within q * delta / 3 at every dimension 2^1 .. 2^26
    for b in range(1, 27):
        q = 2.0 ** (b - 30)
        assert q ** eval_rounds(delta, 1 << b) <= q * delta / 3


def test_rejects_bad_arguments():
    v = make_sparse_vector(4, [(0, 1)])
    with pytest.raises(ValueError):
        equality_test(v, v, make_sparse_vector(8, [(0, 1)]), 0.1,
                      np.random.default_rng(0))
    with pytest.raises(ValueError):
        equality_test(v, v, v, 2.0, np.random.default_rng(0))


def random_triple(seed, n=512, k=10):
    rng = np.random.default_rng(seed)
    xi = rng.choice(n, size=k, replace=False)
    yi = rng.choice(n, size=k, replace=False)
    u = from_arrays(n, xi, rng.integers(1, 100, size=k))
    v = from_arrays(n, yi, rng.integers(1, 100, size=k))
    x, y = embed_for_product(u, v)
    return x, y, cyclic_convolve_naive(x, y)


def test_true_products_always_pass():
    # one-sidedness: a correct triple can never be rejected, at any delta
    for seed in range(100):
        x, y, w = random_triple(seed)
        assert equality_test(x, y, w, 0.1, np.random.default_rng(seed + 1))
    for seed in range(20):
        x, y, w = random_triple(seed)
        assert equality_test(x, y, w, 1e-6, np.random.default_rng(seed + 1))


def test_perturbed_products_usually_fail():
    rejected = 0
    accepted = 0
    trials = 300
    for seed in range(trials):
        x, y, w = random_triple(seed)
        rng = np.random.default_rng(10_000 + seed)
        mode = seed % 3
        pairs = w.to_pairs()
        if mode == 0:     # change one coefficient
            i, c = pairs[int(rng.integers(len(pairs)))]
            bad = [(j, cc) for j, cc in pairs if j != i] + [(i, c + 1)]
        elif mode == 1:   # drop one term
            i, _ = pairs[int(rng.integers(len(pairs)))]
            bad = [(j, cc) for j, cc in pairs if j != i]
        else:             # add a spurious term
            free = int(rng.integers(w.length))
            while any(j == free for j, _ in pairs):
                free = int(rng.integers(w.length))
            bad = pairs + [(free, 7)]
        wrong = make_sparse_vector(w.length, bad)
        if not equality_test(x, y, wrong, 0.1, rng):
            rejected += 1
        else:
            accepted += 1
    # a false accept needs the random point to hit a root of a nonzero
    # degree-N polynomial mod p > 2^30: rare far beyond the delta bound
    assert accepted == 0
    assert rejected >= int(0.95 * trials)


def test_equality_is_deterministic_per_seed():
    x, y, w = random_triple(5)
    outcomes = {equality_test(x, y, w, 0.05, np.random.default_rng(3))
                for _ in range(5)}
    assert outcomes == {True}


@pytest.mark.parametrize("zero, want", [("xyw", True), ("xy", False),
                                        ("x", False), ("xw", True)])
def test_zero_operands(zero, want):
    # the tables are sized from the largest top index among the nonzero
    # vectors, and from index 0 when all three are zero
    x, y, w = random_triple(7)
    x, y, w = (zero_vector(f.length) if name in zero else f
               for name, f in zip("xyw", (x, y, w)))
    for seed in range(10):
        assert equality_test(x, y, w, 0.01,
                             np.random.default_rng(seed)) is want


def count_calls(monkeypatch, name, inner):
    """Replace fingerprint.<name> with a counting wrapper of inner."""
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(fingerprint, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("corrupt", [False, True])
def test_two_tables_one_pow_three_evaluations_per_point(monkeypatch,
                                                        corrupt):
    x, y, w = random_triple(3, n=1 << 20, k=40)
    if corrupt:
        j, c = w.to_pairs()[0]
        w = make_sparse_vector(w.length, w.to_pairs() + [(j, -c)])
    tables_built = count_calls(monkeypatch, "_power_table", _power_table)
    evals = count_calls(monkeypatch, "eval_sparse_poly_mod",
                        eval_sparse_poly_mod)
    pows = count_calls(monkeypatch, "pow", pow)
    verdict = equality_test(x, y, w, 0.01, np.random.default_rng(9))
    assert verdict is not corrupt
    points = len(pows)
    assert points == (1 if corrupt else eval_rounds(0.01, x.length))
    assert len(tables_built) == 2 * points
    assert [f for f, *_ in evals] == [x, y, w] * points
    # every table at every point has 2^k entries, k from w's top index
    k = (int(w.indices[-1]).bit_length() + 1) // 2
    assert {args[1] for args in tables_built} == {1 << k}


def reference_equality(x, y, w, delta, rng):
    """equality_test's verdict with builtin pow, drawing from rng in the
    same order: the prime, then one point at a time, x then y then w, up
    to the first mismatch."""
    p = random_prime_in_range(1 << 30, 1 << 31, rng)
    for _ in range(eval_rounds(delta, x.length)):
        r = int(rng.integers(0, p))
        fx, fy, fw = (reference_eval(f, r, p) for f in (x, y, w))
        if fx * fy % p != fw:
            return False
    return True


def test_verdicts_and_stream_match_reference():
    # true and corrupted triples at n = 2^20 (primes above 2^30): the same
    # verdict as the term-by-term reference, and the same draws consumed
    for seed in range(6):
        x, y, w = random_triple(seed, n=1 << 20, k=40)
        pairs = w.to_pairs()
        j, c = pairs[seed % len(pairs)]
        wrong = make_sparse_vector(w.length, pairs + [(j, -c)])  # drops j
        for claim, want in ((w, True), (wrong, False)):
            got_rng = np.random.default_rng(500 + seed)
            ref_rng = np.random.default_rng(500 + seed)
            got = equality_test(x, y, claim, 0.01, got_rng)
            assert got == reference_equality(x, y, claim, 0.01, ref_rng) == want
            assert got_rng.integers(1 << 62) == ref_rng.integers(1 << 62)
