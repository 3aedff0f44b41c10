"""Instance generators and the deterministic seeding layer."""

import hashlib
import time

import numpy as np
import pytest

from sparseconv.instances import (InstanceSpec, _distinct_indices,
                                  blocked_telescoping_instance, gen_instance)
from sparseconv.seeding import (DEFAULT_SEED, SEED_ENV_VAR, resolve_seed,
                                substream)
from sparseconv.vectors import (MAX_COEFF_ABS, EnvelopeError,
                                make_sparse_vector, poly_multiply_naive)


def test_substream_independence_and_determinism():
    a = substream(7, "generation").integers(0, 1 << 30, size=8)
    b = substream(7, "generation").integers(0, 1 << 30, size=8)
    c = substream(7, "multiply").integers(0, 1 << 30, size=8)
    d = substream(8, "generation").integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed(None) == DEFAULT_SEED
    assert resolve_seed(42) == 42
    monkeypatch.setenv(SEED_ENV_VAR, "17")
    assert resolve_seed(None) == 17
    assert resolve_seed(42) == 42   # flag beats env
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    with pytest.raises(ValueError):
        resolve_seed(None)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(n=0, terms=1, coeff_bound=1, cancel_fraction=0, seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=8, terms=9, coeff_bound=1, cancel_fraction=0, seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=8, terms=4, coeff_bound=0, cancel_fraction=0, seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=8, terms=4, coeff_bound=1, cancel_fraction=1.5, seed=0)


@pytest.mark.parametrize("bound", [MAX_COEFF_ABS + 1, 10 ** 20])
def test_spec_refuses_coefficient_bounds_beyond_the_envelope(bound):
    # the bound the package accepts for an operand is the most a generated
    # operand may carry; 2^20 itself is allowed (see the pinned digests)
    with pytest.raises(EnvelopeError, match=f"exceeds {MAX_COEFF_ABS}"):
        InstanceSpec(n=8, terms=3, coeff_bound=bound, cancel_fraction=0,
                     seed=0)
    InstanceSpec(n=8, terms=3, coeff_bound=MAX_COEFF_ABS, cancel_fraction=0,
                 seed=0)


def test_distinct_indices_near_full_density():
    # n - 1 of n values: rejection alone took some 28 s here; drawing the
    # one value to leave out takes milliseconds
    n = 1 << 16
    start = time.process_time()
    drawn = _distinct_indices(np.random.default_rng(0), 3, n + 3, n - 1)
    u, v = gen_instance(InstanceSpec(n, n - 1, 100, 0.0, 0))
    assert time.process_time() - start < 5.0
    assert drawn.dtype == np.int64 and drawn.size == n - 1
    assert np.unique(drawn).size == n - 1
    assert drawn.min() >= 3 and drawn.max() < n + 3
    # from_arrays merges repeated indices, so n - 1 terms are n - 1 indices
    assert u.l0 == v.l0 == n - 1


def test_gen_instance_shapes_and_bounds():
    spec = InstanceSpec(n=1 << 10, terms=64, coeff_bound=100,
                        cancel_fraction=0.0, seed=3)
    u, v = gen_instance(spec)
    assert u.length == v.length == 1 << 10
    assert u.l0 == 64
    assert 1 <= v.l0 <= 64
    for w in (u, v):
        assert np.all(np.abs(w.coeffs) <= 100)
        assert np.all(w.coeffs != 0)


def test_gen_instance_deterministic():
    spec = InstanceSpec(n=256, terms=32, coeff_bound=50,
                        cancel_fraction=0.3, seed=11)
    u1, v1 = gen_instance(spec)
    u2, v2 = gen_instance(spec)
    assert u1 == u2 and v1 == v2
    other = gen_instance(InstanceSpec(n=256, terms=32, coeff_bound=50,
                                      cancel_fraction=0.3, seed=12))
    assert other[0] != u1 or other[1] != v1


def test_gen_instance_full_cancellation_product():
    # cancel_fraction 1: u is an all-ones run, v = z - 1, and the product
    # telescopes to exactly two terms
    spec = InstanceSpec(n=16, terms=4, coeff_bound=100,
                        cancel_fraction=1.0, seed=0)
    u, v = gen_instance(spec)
    assert u == make_sparse_vector(16, [(j, 1) for j in range(4)])
    assert v == make_sparse_vector(16, [(0, -1), (1, 1)])
    assert poly_multiply_naive(u, v) == make_sparse_vector(
        32, [(0, -1), (4, 1)])


def test_gen_instance_interpolates():
    spec = InstanceSpec(n=1 << 8, terms=32, coeff_bound=10,
                        cancel_fraction=0.5, seed=5)
    u, v = gen_instance(spec)
    # half the u-terms form the ones run
    assert np.array_equal(u.indices[:16], np.arange(16))
    assert np.all(u.coeffs[:16] == 1)
    assert u.l0 == 32
    # v keeps the canceller plus random filler
    assert (0, -1) in v.to_pairs() and (1, 1) in v.to_pairs()


def test_blocked_telescoping_product_matches_naive():
    for e in (6, 7, 8):
        u, v, product = blocked_telescoping_instance(e)
        assert poly_multiply_naive(u, v) == product


def test_blocked_telescoping_sizes():
    runs = 16
    u, v, product = blocked_telescoping_instance(10, runs=runs)
    # operand sparsity ~2^10 split between u and v
    assert u.l0 == 1 << 9
    assert (1 << 9) - 40 <= v.l0 <= 1 << 10
    # output stays at two terms per contiguous block
    assert product.l0 == 2 * runs
    assert np.all(np.abs(product.coeffs) == 1)


def test_blocked_telescoping_validation():
    with pytest.raises(ValueError):
        blocked_telescoping_instance(5)
    with pytest.raises(ValueError):
        blocked_telescoping_instance(8, runs=0)
    # refused before any array is built: slots alone would take 2 TiB
    with pytest.raises(ValueError, match="dimension envelope"):
        blocked_telescoping_instance(40)


def generated_digest(vectors) -> str:
    """sha256 prefix over each vector's length, term count, dtypes and the
    bytes of its index and coefficient arrays."""
    h = hashlib.sha256()
    for v in vectors:
        h.update(f"{v.length} {v.indices.size} {v.indices.dtype.str} "
                 f"{v.coeffs.dtype.str};".encode())
        h.update(v.indices.tobytes())
        h.update(v.coeffs.tobytes())
    return h.hexdigest()[:32]


# Digests of the generators' outputs, recorded from the slot-loop and
# pair-list generators. They pin the bytes of the perfbench instances and
# of `sparseconv gen`: a rewrite must reproduce every one.
BLOCKED_RUNS = (1, 2, 3, 16, 17, 64, 1024)
BLOCKED_DIGESTS = {
    6: "89b98a92f9eb2293f9b3f2e6f10890d6",
    7: "bb82e854dc2e3a3a95e24aad74501e78",
    8: "1fd84a00803e208faf8c905f02d620af",
    9: "ddb874f5963080c7e739f397ba74741c",
    10: "554d2cea67c02ec150c6fa7444c115d2",
    11: "918d80e5425641947c3f2c087e3d2aa4",
    12: "e5c289976ea6bf676e3da5cf5a7b378a",
    13: "0a794bca5f9a217e12c951ccaca3624f",
    14: "b37701369f09c22342ec1018a26455e8",
}
GEN_TERMS = (1, 2, 3, 5, 64, 1000)
GEN_CANCEL = (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0)
GEN_DIGESTS = {
    1: "e8edce4670b8e0feedc127a4177e7219",
    2: "a74e9b20365baead57d2cf81cbe6a22c",
    3: "65c6a499d6e754e7ab295bf8628372ae",
    1000: "3dfcd565ac5afd202c466e9cc8b9d3ac",
    1 << 20: "1153755105b3697ca2a99dc7cbca0c80",
}


@pytest.mark.parametrize("log2_terms", sorted(BLOCKED_DIGESTS))
def test_blocked_telescoping_bytes_are_pinned(log2_terms):
    made = [blocked_telescoping_instance(log2_terms, runs)
            for runs in BLOCKED_RUNS]
    assert generated_digest([w for triple in made for w in triple]) \
        == BLOCKED_DIGESTS[log2_terms]


def test_blocked_telescoping_all_holes():
    # m = 15 slots and 15 holes: v and the product are zero
    u, v, product = blocked_telescoping_instance(6, runs=16)
    assert u.l0 == 32
    assert v.is_zero and product.is_zero
    assert poly_multiply_naive(u, v) == product


@pytest.mark.parametrize("n", sorted(GEN_DIGESTS))
def test_gen_instance_bytes_are_pinned(n):
    specs = [InstanceSpec(n, terms, bound, cancel, seed)
             for terms in GEN_TERMS if terms <= n
             for cancel in GEN_CANCEL
             for seed in (0, 1, 7)
             for bound in (1, 1 << 20)]
    assert generated_digest([w for spec in specs for w in gen_instance(spec)]) \
        == GEN_DIGESTS[n]
