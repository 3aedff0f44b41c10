"""Exact-arithmetic baselines: canonical form, naive and FFT convolution."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseconv import vectors
from sparseconv.instances import blocked_telescoping_instance
from sparseconv.vectors import (MAX_COEFF_ABS, MAX_DIMENSION, MAX_TERMS,
                                EnvelopeError, SparseVector, add,
                                cyclic_convolve_naive, dense_fft_multiply,
                                embed_for_product, from_arrays,
                                make_sparse_vector, poly_multiply_dense,
                                poly_multiply_naive, subtract, zero_vector)


def vec(length, mapping):
    return make_sparse_vector(length, mapping.items())


def test_known_product_small():
    # (1 + 3 z^2) * (2 z) = 2 z + 6 z^3 in Z[z], no wrap at N = 8
    x = vec(8, {0: 1, 2: 3})
    y = vec(8, {1: 2})
    assert cyclic_convolve_naive(x, y) == vec(8, {1: 2, 3: 6})


def test_known_product_telescoping():
    # (1 + z + z^2 + z^3)(z - 1) = z^4 - 1
    x = vec(16, {0: 1, 1: 1, 2: 1, 3: 1})
    y = vec(16, {0: -1, 1: 1})
    assert cyclic_convolve_naive(x, y) == vec(16, {0: -1, 4: 1})


def test_cyclic_wraparound():
    # z^3 * z^3 = z^6 = z^2 at N = 4
    x = vec(4, {3: 1})
    assert cyclic_convolve_naive(x, x) == vec(4, {2: 1})


def test_wraparound_cancellation():
    # (z^2 + z^3)^2 at N = 4: z^4 -> 1, z^5 -> z, z^6 -> z^2
    x = vec(4, {2: 1, 3: 1})
    assert cyclic_convolve_naive(x, x) == vec(4, {0: 1, 1: 2, 2: 1})


def test_zero_operand():
    x = vec(8, {1: 5})
    z = zero_vector(8)
    assert cyclic_convolve_naive(x, z) == z
    assert dense_fft_multiply(x, z) == z


def test_canonical_form_merges_and_drops():
    v = make_sparse_vector(10, [(3, 2), (1, 5), (3, -2), (7, 0), (2, 4)])
    assert v.to_pairs() == [(1, 5), (2, 4)]
    assert v.l0 == 2


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        make_sparse_vector(4, [(4, 1)])
    with pytest.raises(ValueError, match="out of range"):
        make_sparse_vector(4, [(-1, 1)])


def test_envelope_rejections():
    big_coeff = vec(8, {0: MAX_COEFF_ABS + 1})
    ok = vec(8, {1: MAX_COEFF_ABS})
    for backend in (cyclic_convolve_naive, dense_fft_multiply):
        with pytest.raises(EnvelopeError, match="magnitude"):
            backend(big_coeff, ok)
    # from_arrays refuses this many terms, so build the vector directly
    idx = np.arange(MAX_TERMS + 1, dtype=np.int64)
    many = SparseVector(MAX_TERMS + 2, idx, np.ones_like(idx))
    one = vec(MAX_TERMS + 2, {0: 1})
    for backend in (cyclic_convolve_naive, dense_fft_multiply):
        with pytest.raises(EnvelopeError, match="terms"):
            backend(one, many)
    with pytest.raises(EnvelopeError, match="length"):
        make_sparse_vector(1 << 27, [])


def test_from_arrays_rejects_non_integers():
    # regression: float input used to be truncated, 1.7 -> 1 and 2.9 -> 2
    for idx, val in (([1.7], [2.9]), ([1], [2.5]), ([1.5], [2]),
                     ([1], [float("nan")]), ([1], [2 ** 63]),
                     ([1], [float(2 ** 63)])):
        with pytest.raises(ValueError, match="integers"):
            from_arrays(8, idx, val)
    with pytest.raises(ValueError, match="integers"):
        make_sparse_vector(8, [(1, 0.5)])
    # integral values of any numeric type are accepted
    floats = from_arrays(8, [1.0, 3.0], [2.0, -4.0])
    assert floats.to_pairs() == [(1, 2), (3, -4)]
    small = from_arrays(8, np.array([1], dtype=np.uint8), [2])
    assert small.to_pairs() == [(1, 2)]
    assert make_sparse_vector(8, []).is_zero


def test_add_subtract_roundtrip():
    x = vec(8, {0: 3, 5: -2})
    y = vec(8, {0: -3, 2: 7})
    assert add(x, y) == vec(8, {2: 7, 5: -2})
    assert subtract(add(x, y), y) == x
    # a zero operand returns the other one as it is, with no re-sort
    zero = vec(8, {})
    assert add(x, zero) is x and add(zero, y) is y
    assert subtract(x, zero) is x
    assert subtract(zero, y) == vec(8, {0: 3, 2: -7})
    with pytest.raises(ValueError):
        add(x, vec(16, {}))
    with pytest.raises(ValueError):
        subtract(vec(16, {}), zero)


def test_embed_doubles_dimension():
    u = vec(5, {0: 1, 4: 2})
    v = vec(3, {2: -1})
    x, y = embed_for_product(u, v)
    assert x.length == y.length == 10
    assert x.to_pairs() == u.to_pairs()
    # no wrap: top populated product index is 4 + 2 < 10
    prod = cyclic_convolve_naive(x, y)
    assert prod == vec(10, {2: -1, 6: -2})


def test_poly_multiply_matches_int_polynomial():
    # cross-check against numpy's dense integer polynomial product
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        a = rng.integers(-9, 10, size=n)
        b = rng.integers(-9, 10, size=n)
        u = from_arrays(n, np.arange(n), a) if np.any(a) else zero_vector(n)
        v = from_arrays(n, np.arange(n), b) if np.any(b) else zero_vector(n)
        got = poly_multiply_naive(u, v)
        full = np.convolve(a, b)
        want = np.zeros(2 * n, dtype=np.int64)
        want[:full.size] = full
        dense = np.zeros(2 * n, dtype=np.int64)
        dense[got.indices] = got.coeffs
        assert np.array_equal(dense, want)


def test_dense_fft_agrees_with_naive():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(1, min(n, 20) + 1))
        x = from_arrays(n, rng.choice(n, size=k, replace=False),
                        rng.integers(-1000, 1001, size=k))
        y = from_arrays(n, rng.choice(n, size=k, replace=False),
                        rng.integers(-1000, 1001, size=k))
        assert dense_fft_multiply(x, y) == cyclic_convolve_naive(x, y)


def test_dense_fft_at_dimensions_with_large_prime_factors():
    # N = 2 * 30269 is slow to transform; products below N/2 use a
    # power-of-two length, products that reach past it the full N
    n = 2 * 30269
    rng = np.random.default_rng(11)
    for top in (100, n // 2, n):
        x = from_arrays(n, rng.choice(top, size=20, replace=False),
                        rng.integers(-99, 100, size=20) | 1)
        y = from_arrays(n, rng.choice(top, size=20, replace=False),
                        rng.integers(-99, 100, size=20) | 1)
        assert dense_fft_multiply(x, y) == cyclic_convolve_naive(x, y)
    u, v, product = blocked_telescoping_instance(10)
    assert poly_multiply_dense(u, v) == product


def test_fft_rejects_oversized_mass():
    # two maximal-coefficient operands with enough terms blow the float
    # error budget; the backend must refuse rather than round wrongly
    k = 1 << 14
    idx = np.arange(k)
    val = np.full(k, 1 << 20)
    x = from_arrays(1 << 15, idx, val)
    with pytest.raises(EnvelopeError):
        dense_fft_multiply(x, x)


def test_naive_sort_route_matches_dict_sum():
    # 500 * 500 pairs at n = 2^22 + 8 > 8 * pairs: the sort route, in one
    # _sum_runs call
    n = (1 << 22) + 8
    rng = np.random.default_rng(3)
    xi = rng.choice(n, size=500, replace=False)
    yi = rng.choice(n, size=500, replace=False)
    x = from_arrays(n, xi, rng.integers(1, 100, size=500))
    y = from_arrays(n, yi, rng.integers(1, 100, size=500))
    got = cyclic_convolve_naive(x, y)
    # slow but independent: plain dict accumulation
    acc = {}
    for i, a in x.to_pairs():
        for j, b in y.to_pairs():
            t = (i + j) % n
            acc[t] = acc.get(t, 0) + a * b
    want = make_sparse_vector(n, [(i, c) for i, c in acc.items() if c])
    assert got == want


def _operands_40_by_50(n, seed):
    rng = np.random.default_rng(seed)
    x = from_arrays(n, rng.choice(n, size=40, replace=False),
                    rng.integers(-9, 10, size=40) | 1)
    y = from_arrays(n, rng.choice(n, size=50, replace=False),
                    rng.integers(-9, 10, size=50) | 1)
    return x, y


@pytest.mark.parametrize("block", [1, 100, 1000])
def test_naive_sort_route_same_in_several_blocks(monkeypatch, block):
    # 40 * 50 pairs at N = 2^16 take the sort route (N > 8 * pairs). It
    # has fewer than N / 8 pairs, so it reduces them with one _sum_runs
    # call whatever the pair block, which only the accumulator uses
    x, y = _operands_40_by_50(1 << 16, 4)
    want = dense_fft_multiply(x, y)
    sum_runs = vectors._sum_runs
    calls = []

    def counted(key, val, b):
        calls.append(key.size)
        return sum_runs(key, val, b)

    monkeypatch.setattr(vectors, "_PAIR_BLOCK", block)
    monkeypatch.setattr(vectors, "_sum_runs", counted)
    assert cyclic_convolve_naive(x, y) == want
    assert calls == [40 * 50]


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_naive_sort_route_at_the_edge_of_the_wrap(shift):
    # the top pair index is n - 1 (no wrap pass), n or n + 1; 40 * 50
    # pairs at N = 2^16 take the sort route
    n = 1 << 16
    rng = np.random.default_rng(shift)
    xi = np.append(rng.choice(n // 4, size=39, replace=False), n // 2 + shift)
    yi = np.append(rng.choice(n // 4, size=49, replace=False), n // 2 - 1)
    x = from_arrays(n, xi, rng.integers(-9, 10, size=40) | 1)
    y = from_arrays(n, yi, rng.integers(-9, 10, size=50) | 1)
    assert x.indices[-1] + y.indices[-1] == n - 1 + shift
    assert cyclic_convolve_naive(x, y) == dense_fft_multiply(x, y)


@pytest.mark.parametrize("block", [50, 500, 1000])
def test_naive_accumulator_route_same_in_several_blocks(monkeypatch, block):
    # 40 * 50 pairs at N = 2^10 take the accumulator (N <= 8 * pairs); a
    # pair block of 50, 500 or 1000 adds them in 40, 4 or 2 blocks
    x, y = _operands_40_by_50(1 << 10, 5)
    want = dense_fft_multiply(x, y)
    monkeypatch.setattr(vectors, "_PAIR_BLOCK", block)
    assert cyclic_convolve_naive(x, y) == want


@st.composite
def sparse_vectors(draw, length):
    k = draw(st.integers(0, min(length, 12)))
    idx = draw(st.lists(st.integers(0, length - 1), min_size=k, max_size=k,
                        unique=True))
    val = draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k))
    return make_sparse_vector(length, zip(idx, val))


@given(sparse_vectors(32), sparse_vectors(32))
@settings(max_examples=60, deadline=None)
def test_convolution_commutative(x, y):
    assert cyclic_convolve_naive(x, y) == cyclic_convolve_naive(y, x)


@given(sparse_vectors(24), sparse_vectors(24), sparse_vectors(24))
@settings(max_examples=40, deadline=None)
def test_convolution_distributes_over_add(x, y, z):
    lhs = cyclic_convolve_naive(x, add(y, z))
    rhs = add(cyclic_convolve_naive(x, y), cyclic_convolve_naive(x, z))
    assert lhs == rhs


@given(sparse_vectors(40))
@settings(max_examples=60, deadline=None)
def test_canonical_invariants(v):
    assert np.all(np.diff(v.indices) > 0)
    assert np.all(v.coeffs != 0)
    assert v.indices.dtype == np.int64 and v.coeffs.dtype == np.int64


@given(sparse_vectors(40), sparse_vectors(40))
@settings(max_examples=60, deadline=None)
def test_fft_naive_agree_property(x, y):
    assert dense_fft_multiply(x, y) == cyclic_convolve_naive(x, y)


def test_poly_backends_agree_on_mixed_lengths():
    u = vec(6, {0: 2, 5: -3})
    v = vec(9, {1: 4, 8: 1})
    assert poly_multiply_naive(u, v) == poly_multiply_dense(u, v)
    assert poly_multiply_naive(u, v).length == 18


def _dict_sum(idx, val):
    """Plain reference for _reduce_terms: sums per index, zeros dropped."""
    acc = {}
    for i, c in zip(idx.tolist(), val.tolist()):
        acc[i] = acc.get(i, 0) + c
    keys = sorted(i for i, c in acc.items() if c)
    return keys, [acc[i] for i in keys]


def _assert_reduces_like_dict_sum(idx, val):
    idx = np.asarray(idx, dtype=np.int64)
    val = np.asarray(val, dtype=np.int64)
    idx_in, val_in = idx.copy(), val.copy()
    si, sv = vectors._reduce_terms(idx, val)
    assert si.dtype == sv.dtype == np.int64
    assert (si.tolist(), sv.tolist()) == _dict_sum(idx, val)
    assert np.array_equal(idx, idx_in) and np.array_equal(val, val_in)


_TOP = MAX_DIMENSION - 1


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257,
                                  (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_reduce_terms_at_the_edges_of_the_key_shift(size):
    # the key shifts each index by bit_length(size - 1), so sizes at and
    # next to powers of two are its edges; the top index 2^26 - 1 sits
    # among random indices, half of them from a small range to repeat
    rng = np.random.default_rng(size)
    idx = np.where(rng.random(size) < 0.5, rng.integers(0, 8, size),
                   rng.integers(0, MAX_DIMENSION, size))
    idx[rng.integers(size)] = _TOP
    _assert_reduces_like_dict_sum(idx, rng.integers(-9, 10, size))


@pytest.mark.parametrize("case", ["all_equal", "sorted_rows", "reversed",
                                  "cancel_to_zero", "near_2_to_60"])
def test_reduce_terms_fixed_cases(case):
    if case == "all_equal":
        idx = np.full(1025, _TOP)
        val = np.arange(1, 1026)
    elif case == "sorted_rows":
        # the pair rows of a telescoping product: each row sorted, and
        # all but 2 * runs of the sums cancel
        u, v, product = blocked_telescoping_instance(8, runs=4)
        idx = np.add.outer(u.indices, v.indices).ravel()
        val = np.multiply.outer(u.coeffs, v.coeffs).ravel()
        assert len(_dict_sum(idx, val)[0]) == product.l0 == 8
    elif case == "reversed":
        idx = np.repeat(np.arange(_TOP - 300, _TOP + 1), 3)[::-1]
        val = np.tile([5, -2, 1], 301)
    elif case == "cancel_to_zero":
        idx = np.array([_TOP, 0, _TOP, 7, 0, 7, 7])
        val = np.array([3, -4, -3, 2, 4, -1, -1])
        assert _dict_sum(idx, val) == ([], [])
    else:
        # 1024 terms of 2^50 sum to 2^60; 2^60 - 1 and 1 meet again there
        idx = np.concatenate([np.full(1024, 5), [_TOP, 0, _TOP]])
        val = np.concatenate([np.full(1024, 1 << 50),
                              [(1 << 60) - 1, -(1 << 60), 1]])
        assert _dict_sum(idx, val) == ([0, 5, _TOP],
                                       [-(1 << 60), 1 << 60, 1 << 60])
    _assert_reduces_like_dict_sum(idx, val)


@given(st.lists(st.tuples(st.one_of(st.integers(0, 15),
                                    st.integers(0, _TOP)),
                          st.integers(-(1 << 40), 1 << 40)),
                max_size=300))
@settings(max_examples=100, deadline=None)
def test_reduce_terms_matches_dict_sum(pairs):
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=np.int64)
    _assert_reduces_like_dict_sum(idx, val)


_I64 = 1 << 63


def _prefix_leaves_int64(idx, val):
    """True if the running total of the sums per index, in index order,
    leaves the int64 range, so that an int64 prefix sum over them wraps."""
    return any(not -_I64 <= t < _I64
               for t in accumulate(_dict_sum(np.array(idx), np.array(val))[1]))


# Each index's sum fits in int64, the running total over them does not;
# in "cancel" index 0 sums to zero.
_WRAP_CASES = {
    "up": ([3, 9, 12, 3, 9], [1 << 62, 1 << 62, 5, (1 << 62) - 1,
                              (1 << 62) - 1]),
    "down": ([1, 4, 8, 1], [-(1 << 62), -_I64, 7, -(1 << 62)]),
    "cancel": ([0, 5, 6, 0, 6], [_I64 - 1, _I64 - 1, _I64 - 1, 1 - _I64,
                                 -2]),
}


@pytest.mark.parametrize("case", sorted(_WRAP_CASES))
def test_sums_exact_where_the_prefix_sum_wraps(case):
    idx, val = _WRAP_CASES[case]
    assert _prefix_leaves_int64(idx, val)
    want = _dict_sum(np.array(idx), np.array(val))
    for order in (slice(None), slice(None, None, -1)):
        got = from_arrays(16, idx[order], val[order])
        assert (got.indices.tolist(), got.coeffs.tolist()) == want
    # each index appears at most twice: the first in x, the second in y
    half = len(set(idx))
    x = from_arrays(16, idx[:half], val[:half])
    y = from_arrays(16, idx[half:], val[half:])
    assert add(x, y) == add(y, x) == from_arrays(16, idx, val)


@st.composite
def _sums_split_in_two(draw):
    """Distinct indices, each with an int64 sum split into two int64
    parts."""
    idx = draw(st.lists(st.integers(0, _TOP), min_size=1, max_size=20,
                        unique=True))
    a, b = [], []
    for _ in idx:
        total = draw(st.integers(-_I64, _I64 - 1))
        part = draw(st.integers(max(-_I64, total - _I64 + 1),
                                min(_I64 - 1, total + _I64)))
        a.append(part)
        b.append(total - part)
    return idx, a, b


@given(_sums_split_in_two())
@settings(max_examples=100, deadline=None)
def test_from_arrays_and_add_exact_at_the_ends_of_int64(terms):
    idx, a, b = terms
    got = from_arrays(MAX_DIMENSION, idx + idx, a + b)
    want = _dict_sum(np.array(idx + idx), np.array(a + b))
    assert (got.indices.tolist(), got.coeffs.tolist()) == want
    x = from_arrays(MAX_DIMENSION, idx, a)
    y = from_arrays(MAX_DIMENSION, idx, b)
    assert add(x, y) == got
