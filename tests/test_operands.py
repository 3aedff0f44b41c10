"""Malformed operands are refused by every public entry point.

A SparseVector built directly is checked by nothing but the entry points.
An operand that is not canonical (int64 arrays, indices strictly
increasing in [0, length), nonzero coefficients) must raise, never yield
a vector: the pair reading is returned with no fingerprint, so without
the check int16 coefficients that wrap, or an index outside the
dimension, would come back as a wrong product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseconv import (EnvelopeError, SparseVector, cyclic_convolve_naive,
                        dense_fft_multiply, equality_test, make_sparse_vector,
                        poly_multiply_dense, poly_multiply_naive,
                        sparse_multiply, zero_vector)
from sparseconv import driver, vectors
from sparseconv.vectors import MAX_COEFF_ABS, check_operand, from_arrays

N = 1 << 12
TERMS = 40


def _good_arrays():
    rng = np.random.default_rng(7)
    idx = np.sort(rng.choice(N, size=TERMS, replace=False)).astype(np.int64)
    return idx, rng.integers(1, 100, size=TERMS).astype(np.int64)


def _malformed(row):
    idx, val = _good_arrays()
    length = N
    if row == "int16":
        val = np.full(TERMS, 300, dtype=np.int16)
    elif row == "uint8":
        val = np.full(TERMS, 200, dtype=np.uint8)
    elif row == "int32":
        val = np.full(TERMS, 1 << 16, dtype=np.int32)
    elif row == "index_at_length":
        idx[-1] = N
    elif row == "negative_index":
        idx[0] = -1
    elif row == "unsorted":
        idx[[3, 4]] = idx[[4, 3]]
    elif row == "zero_coefficient":
        val[5] = 0
    elif row == "float":
        val = np.full(TERMS, 0.5)
    elif row == "float_length":
        length = float(N)
    elif row == "fractional_length":
        length = N + 0.5
    elif row == "coeff_min_int64":        # np.abs leaves it negative
        val[5] = np.iinfo(np.int64).min
    elif row == "coeff_above_bound":
        val[5] = MAX_COEFF_ABS + 1
    return SparseVector(length, idx, val)


ROWS = ["int16", "uint8", "int32", "index_at_length", "negative_index",
        "unsorted", "zero_coefficient", "float", "float_length",
        "fractional_length", "coeff_min_int64", "coeff_above_bound"]
# Canonical, but outside the operand envelope: a claimed product may have
# any int64 coefficient.
ENVELOPE_ROWS = {"coeff_min_int64", "coeff_above_bound"}


def _good():
    return make_sparse_vector(N, zip(*_good_arrays()))


def _verify(a, b):
    claim = cyclic_convolve_naive(_good(), _good())
    return equality_test(a, b, claim, 0.01, np.random.default_rng(1))


ENTRY_POINTS = {
    "sparse_multiply": lambda a, b: sparse_multiply(
        a, b, np.random.default_rng(3)),
    "poly_multiply_naive": poly_multiply_naive,
    "poly_multiply_dense": poly_multiply_dense,
    "cyclic_convolve_naive": cyclic_convolve_naive,
    "dense_fft_multiply": dense_fft_multiply,
    "equality_test": _verify,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("row", ROWS)
def test_malformed_operand_raises(entry, row):
    call = ENTRY_POINTS[entry]
    for args in ((_malformed(row), _good()), (_good(), _malformed(row))):
        with pytest.raises((EnvelopeError, ValueError)):
            call(*args)


@pytest.mark.parametrize("length", [16.0, 10.5, np.float64(16), "16"])
def test_constructors_refuse_a_non_integer_length(length):
    # a float length used to build a vector whose products had float
    # lengths, or raised a raw numpy UFuncTypeError
    for build in (lambda: from_arrays(length, [1], [2]),
                  lambda: zero_vector(length)):
        with pytest.raises(ValueError, match="positive integer"):
            build()
    assert from_arrays(np.int64(16), [1], [2]) == from_arrays(16, [1], [2])


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.integers(0, TERMS - 2),
       st.sampled_from(["index_above", "index_below", "swap", "zero",
                        "duplicate"]),
       st.integers(0, 1 << 20))
@settings(max_examples=60, deadline=None)
def test_malformed_anywhere_never_returns(entry, at, kind, offset):
    # one malformation at any position: the call raises, whatever it is
    idx, val = _good_arrays()
    if kind == "index_above":
        idx[at] = N + offset
    elif kind == "index_below":
        idx[at] = -1 - offset
    elif kind == "swap":
        idx[[at, at + 1]] = idx[[at + 1, at]]
    elif kind == "zero":
        val[at] = 0
    else:
        idx[at + 1] = idx[at]
    with pytest.raises((EnvelopeError, ValueError)):
        ENTRY_POINTS[entry](SparseVector(N, idx, val), _good())


@pytest.mark.parametrize("row", [r for r in ROWS if r not in ENVELOPE_ROWS])
def test_malformed_claimed_product_raises(row):
    good = _good()
    with pytest.raises(ValueError):
        equality_test(good, good, _malformed(row), 0.01,
                      np.random.default_rng(1))


def test_claimed_product_may_exceed_the_operand_bound():
    # w is checked for canonical form only: a product's coefficients reach
    # 2^60, far beyond the operands' 2^20
    big = make_sparse_vector(N, [(0, 1 << 20), (1, -(1 << 20))])
    product = cyclic_convolve_naive(big, big)
    assert int(np.abs(product.coeffs).max()) == 1 << 41
    assert equality_test(big, big, product, 0.01, np.random.default_rng(2))


def _count(monkeypatch, module, name, *also):
    """Count calls to module.name, patched there and in each of also."""
    real = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in (module, *also):
        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("entry", ["poly_multiply_naive", "poly_multiply_dense",
                                   "sparse_multiply"])
def test_each_operand_is_checked_once_per_product(monkeypatch, entry):
    # embed_for_product checks u and v; the bodies behind it check nothing
    # again. 1600 term pairs at N = 2^13 are below the first budget's
    # exact-read limit (16 * 32 * 13), so sparse_multiply reads the pairs
    # and runs no fingerprint.
    u, v = _good(), make_sparse_vector(N, [(3, 1), (70, -2), (4000, 5)])
    want = poly_multiply_naive(u, v)
    checks = _count(monkeypatch, vectors, "check_operand")
    pairs = _count(monkeypatch, vectors, "_pair_product", driver)
    bounds = _count(monkeypatch, vectors, "_fft_error_bound")
    assert ENTRY_POINTS[entry](u, v) == want
    assert checks == [(u, "u"), (v, "v")]
    dense = entry == "poly_multiply_dense"
    assert (len(pairs), len(bounds)) == ((0, 1) if dense else (1, 0))


# The int64 ends and both sides of the bound, inside it, and anywhere.
COEFFS = st.one_of(
    st.sampled_from([-(1 << 63), (1 << 63) - 1, -(1 << 20), 1 << 20,
                     -(1 << 20) - 1, (1 << 20) + 1]),
    st.integers(-(1 << 20), 1 << 20),
    st.integers(-(1 << 63), (1 << 63) - 1)).filter(bool)


@given(st.lists(COEFFS, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_envelope_error_exactly_above_the_coefficient_bound(coeffs):
    v = SparseVector(N, np.arange(len(coeffs), dtype=np.int64),
                     np.array(coeffs, dtype=np.int64))
    if any(abs(c) > MAX_COEFF_ABS for c in coeffs):
        with pytest.raises(EnvelopeError, match="magnitude"):
            check_operand(v, "v")
    else:
        check_operand(v, "v")
