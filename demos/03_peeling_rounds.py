#!/usr/bin/env python3
"""Inside the driver: growing budgets outside, peeling rounds inside.

sparse_multiply never knows the product sparsity up front. It guesses a
bucket budget, runs the peeling recovery at that budget, fingerprints
the accumulated vector unless the peel read it exactly (see below) or
left it empty (a product of nonzero polynomials is never zero), and on
rejection doubles the budget, or jumps
to the heavy-bucket count at which the peel's first locate call
aborted, when that is larger: that call folds the product itself, so
the count never exceeds the product's term count. At a budget whose
exact-read limit covers the term pairs, or a dense transform at N, the
peel reads the product exactly and calls no locate at all (an exact
reading is kept whatever its size). A reading from the term pairs is
integer-exact, and one from the dense transform is checked: its float
error bound and rounding residues are below 0.25. Either is proven and
returned with no fingerprint; a dense reading that fails that check is
fingerprinted like every folded peel. Otherwise it runs locate rounds
with halving budgets, subtracting everything recovered so far, until a
round sees no heavy bucket at all or aborts on more heavy buckets than
its budget. A locate call folds once, at one random prime: a term it
misses or misreads stays in the residual for the next round, and a peel
that still ends wrong is rejected by the fingerprint, so one fold need
not be reliable alone.

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
# abort, so the peel comes back empty, which is rejected with no
# fingerprint; the heavy count that call saw sets the next budget. Here
# that budget's exact-read limit already holds the operands' 36864 term
# pairs, so the peel reads the whole product exactly from them: that
# reading is proven, and the driver returns it without a fingerprint.
print(f"\n{'budget':>7}  {'1st heavy':>9}  {'recovered':>9}  "
      f"{'residual':>8}  verdict")
r = 1
while True:
    budget = ISOLATION_CONSTANT << r
    w, trace, proven = hash_and_iterate(x, y, budget, rng)
    ok = proven or (not w.is_zero
                    and equality_test(x, y, w, 0.01, verify_rng))
    aborted = trace and trace[0][1].aborted_rep is not None
    heavy = trace[0][1].heavy_counts[-1] if aborted else 0
    verdict = ("proven, no fingerprint" if proven
               else "empty, no fingerprint" if w.is_zero
               else "fingerprint accepts" if ok else "fingerprint rejects")
    print(f"{budget:>7}  {heavy:>9}  {w.l0:>9}  "
          f"{subtract(exact, w).l0:>8}  {verdict}")
    if ok:
        assert w == exact
        break
    cells = -(-heavy // ISOLATION_CONSTANT)   # least C * 2^r >= heavy
    r = max(r + 1, (cells - 1).bit_length())

# Now look inside the successful budget: the per-round trace. Budgets
# halve per round because the residual shrinks at least that fast, and
# a round that sees no heavy bucket ends the peel. Here the term pairs
# fit within the exact-read limit 16 * B * ceil(log2 N), so the peel
# reads the whole product exactly from them, calls no locate, and its
# trace is empty.
w, trace, proven = hash_and_iterate(x, y, budget, substream(32, "multiply"))
print(f"\nper-round trace at budget {budget}:")
if proven:
    print("exact reading (term pairs, or the checked dense product at N), "
          "no locate call: returned without a fingerprint")
elif not trace:
    print("dense reading at N that failed its exactness check, no locate "
          "call: the fingerprint checks it")
else:
    print(f"{'round':>5}  {'budget':>7}  {'heavy seen':>10}  "
          f"{'recovered':>9}  {'residual':>8}")
for r, (w_after, report) in enumerate(trace):
    heavy = max(report.heavy_counts) if report.heavy_counts else 0
    round_budget = max(1, budget >> r)      # hash_and_iterate halves it
    print(f"{r:>5}  {round_budget:>7}  {heavy:>10}  "
          f"{w_after.l0:>9}  {subtract(exact, w_after).l0:>8}")
assert w == exact

# The abort gate is what keeps wrong budgets cheap: a locate call stops
# as soon as it counts more heavy buckets than the budget allows, and the
# peel stops with it, so undersized budgets cost little, and the heavy
# count of the abort lets the driver skip the budgets in between.
print("\nundersized budgets abort instead of decoding garbage; the "
      "fingerprint gate is what lets the driver trust every success it "
      "did not read exactly")
