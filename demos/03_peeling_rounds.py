#!/usr/bin/env python3
"""Inside the driver: growing budgets outside, peeling rounds inside.

sparse_multiply never knows the product sparsity up front. It guesses a
bucket budget, runs the peeling recovery at that budget, fingerprints
the accumulated vector, and on rejection doubles the budget, or jumps
to the heavy-bucket count at which the peel's first locate call
aborted, when that is larger: that call folds the product itself, so
the count never exceeds the product's term count. The peel
itself runs locate rounds with halving budgets, subtracting everything
recovered so far, until a round sees no heavy bucket at all, aborts on
more heavy buckets than its budget, or reads the residual exactly. Each locate call runs a fixed 5
repetitions and keeps what 4 agree on: a term one call misses stays in
the residual for the next round, and a peel that still ends wrong is
rejected by the fingerprint, so the vote need not be reliable alone.

This script replays that logic by hand on one instance, using the
per-round trace that hash_and_iterate returns to show what each budget
and each round actually did.
"""

import numpy as np

from sparseconv import (InstanceSpec, embed_for_product, equality_test,
                        gen_instance, poly_multiply_naive, substream)
from sparseconv.driver import hash_and_iterate
from sparseconv.locate import ISOLATION_CONSTANT
from sparseconv.vectors import subtract

spec = InstanceSpec(n=1 << 14, terms=192, coeff_bound=100,
                    cancel_fraction=0.0, seed=31)
u, v = gen_instance(spec)
exact = poly_multiply_naive(u, v)
print(f"n = {spec.n}, l0(u) = {u.l0}, l0(v) = {v.l0}, "
      f"product terms = {exact.l0}")

# The pipeline works on the cyclic embedding: both operands are placed
# in dimension 2n, where the product cannot wrap around.
x, y = embed_for_product(u, v)
rng = substream(31, "multiply")
verify_rng = substream(31, "verify")

# Grow budgets the way the driver does, printing each verdict. A budget
# below the number of occupied buckets makes the first locate call
# abort, so the peel comes back empty and the fingerprint rejects it;
# the heavy count that call saw sets the next budget. Once the budget
# clears that bar, recovery is total and the fingerprint accepts.
print(f"\n{'budget':>7}  {'1st heavy':>9}  {'recovered':>9}  "
      f"{'residual':>8}  fingerprint")
r = 1
while True:
    budget = ISOLATION_CONSTANT << r
    w, trace = hash_and_iterate(x, y, budget, rng)
    ok = equality_test(x, y, w, 0.01, verify_rng)
    first = trace[0][1]
    heavy = first.heavy_counts[-1] if first.aborted_rep is not None else 0
    print(f"{budget:>7}  {heavy:>9}  {w.l0:>9}  "
          f"{subtract(exact, w).l0:>8}  {'accept' if ok else 'reject'}")
    if ok:
        assert w == exact
        break
    cells = -(-heavy // ISOLATION_CONSTANT)   # least C * 2^r >= heavy
    r = max(r + 1, (cells - 1).bit_length())

# Now look inside the successful budget: the per-round trace. Budgets
# halve per round because the residual shrinks at least that fast, and
# a round that sees no heavy bucket ends the peel. Here the prime range
# L already exceeds N, so round 0 folds once at N, where every index has
# a bucket of its own: it reads the whole product exactly, and the peel
# ends after it.
w, trace = hash_and_iterate(x, y, budget, substream(32, "multiply"))
print(f"\nper-round trace at budget {budget}:")
print(f"{'round':>5}  {'budget':>7}  {'heavy seen':>10}  "
      f"{'recovered':>9}  {'residual':>8}")
for r, (w_after, report) in enumerate(trace):
    heavy = max(report.heavy_counts) if report.heavy_counts else 0
    print(f"{r:>5}  {report.params.bucket_budget:>7}  {heavy:>10}  "
          f"{w_after.l0:>9}  {subtract(exact, w_after).l0:>8}")
assert w == exact

# The abort gate is what keeps wrong budgets cheap: a repetition stops
# as soon as it counts more heavy buckets than the budget allows, and the
# peel stops with it, so undersized budgets cost little, and the heavy
# count of the abort lets the driver skip the budgets in between.
print("\nundersized budgets abort instead of decoding garbage; the "
      "fingerprint gate is what lets the driver trust a success")
