#!/usr/bin/env python3
"""Inside the driver: growing budgets outside, peeling rounds inside.

sparse_multiply never knows the product sparsity up front. It guesses a
bucket budget and runs the peeling recovery at that budget. At a budget
whose exact-read limit covers the term pairs, or a dense transform at N,
the peel reads the product exactly and calls no locate at all (an exact
reading is kept whatever its size). A reading from the term pairs is
integer-exact, and one from the dense transform is checked: its float
error bound and rounding residues are below 0.25. Either is proven and
returned with no fingerprint; a dense reading that fails that check is
fingerprinted. Otherwise the peel runs locate rounds with halving
budgets, subtracting everything recovered so far. After a round that
kept every heavy reading it fingerprints what it has, and stops if that
verifies, so a peel that recovers the product in one round pays for no
confirming fold. Failing that it stops at a round that sees no heavy
bucket at all or aborts on more heavy buckets than its budget, or after
its last round, and returns nothing: what it ends with was rejected
already, or comes from a round that dropped a heavy reading and so left
a term in the residual. A locate call folds once, at one random prime: a
term it misses or misreads stays in the residual for the next round, and
only a verified peel is returned, so one fold need not be reliable alone. A
peel that ends unverified doubles the budget, or jumps to the
heavy-bucket count at which its first locate call aborted, when that is
larger: that call folds the product itself, so the count never exceeds
the product's term count.

This script replays the outer loop by hand on one instance, and then
looks inside one peel that folds. hash_and_iterate returns only
(product, floor): the verified product or None, and the heavy count at
which its first locate call aborted (0 if it did not). So the script
records each locate round and each fingerprint itself, by wrapping the
locate and fingerprint calls the driver makes.
"""

from sparseconv import (InstanceSpec, embed_for_product, gen_instance,
                        poly_multiply_naive, substream)
from sparseconv import driver
from sparseconv.driver import OUTER_FAILURE_CONSTANT, hash_and_iterate
from sparseconv.instances import blocked_telescoping_instance
from sparseconv.locate import ISOLATION_CONSTANT
from sparseconv.vectors import add, subtract

rounds = []             # (budget, w before, z, report) per locate call
fingerprints = []       # (w, verdict) per fingerprint
real_locate, real_test = driver.locate_with_report, driver.equality_test


def recording_locate(x, y, w, budget, rng):
    z, report = real_locate(x, y, w, budget, rng)
    rounds.append((budget, w, z, report))
    return z, report


def recording_test(x, y, w, delta, rng):
    verdict = real_test(x, y, w, delta, rng)
    fingerprints.append((w, verdict))
    return verdict


driver.locate_with_report = recording_locate
driver.equality_test = recording_test

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

# Grow budgets the way the driver does, printing each verdict. Round r
# gives its peel the false-accept budget c / r^2, which the peel splits
# over its fingerprints. A budget below the number of occupied buckets
# makes the first locate call abort, so the peel comes back empty and
# makes no fingerprint; the heavy count that call saw sets the next
# budget. Here that budget's exact-read limit already holds the
# operands' 36864 term pairs, so the peel reads the whole product
# exactly from them: that reading is proven, with no fingerprint.
print(f"\n{'budget':>7}  {'1st heavy':>9}  {'recovered':>9}  "
      f"{'residual':>8}  verdict")
r = 1
while True:
    budget = ISOLATION_CONSTANT << r
    rounds.clear()
    fingerprints.clear()
    w, floor = hash_and_iterate(x, y, budget, rng, verify_rng,
                                OUTER_FAILURE_CONSTANT / r ** 2)
    held = w
    if w is None:                       # what the peel held when it ended
        _, w_before, z, _ = rounds[-1]
        held = add(w_before, z)
    verdict = ("read exactly" if w is not None and not rounds
               else f"verified after round {len(rounds)}" if w is not None
               else "empty, no fingerprint" if held.is_zero
               else "rejected" if (held, False) in fingerprints
               else "not fingerprinted")
    print(f"{budget:>7}  {floor:>9}  {held.l0:>9}  "
          f"{subtract(exact, held).l0:>8}  {verdict}")
    if w is not None:
        assert w == exact
        break
    cells = -(-floor // ISOLATION_CONSTANT)   # least C * 2^r >= floor
    r = max(r + 1, (cells - 1).bit_length())

# Now look inside a peel that folds: a blocked-telescoping product of
# 2048 and 2016 operand terms that cancels to 32. Its pairs outnumber the
# exact-read limit, so the first budget folds. Budgets halve per round
# because the residual shrinks at least that fast; here the first round
# reads every product term, the fingerprint after it verifies, and the
# peel stops without the fold that would only have seen an empty
# residual.
u, v, exact = blocked_telescoping_instance(12)
x, y = embed_for_product(u, v)
budget = ISOLATION_CONSTANT << 1
rounds.clear()
w, floor = hash_and_iterate(x, y, budget, substream(32, "multiply"),
                            substream(32, "verify"), OUTER_FAILURE_CONSTANT)
print(f"\nper-round record at budget {budget}, l0(u) = {u.l0}, "
      f"l0(v) = {v.l0}, product terms = {exact.l0}:")
print(f"{'round':>5}  {'budget':>7}  {'heavy seen':>10}  "
      f"{'recovered':>9}  {'residual':>8}")
for r, (round_budget, w_before, z, report) in enumerate(rounds):
    w_after = add(w_before, z)
    print(f"{r:>5}  {round_budget:>7}  {report.heavy_counts[0]:>10}  "
          f"{w_after.l0:>9}  {subtract(exact, w_after).l0:>8}")
print("not verified" if w is None else "verified")
assert w == exact and floor == 0

# The abort gate is what keeps wrong budgets cheap: a locate call stops
# as soon as it counts more heavy buckets than the budget allows, and the
# peel stops with it, so undersized budgets cost little, and the heavy
# count of the abort lets the driver skip the budgets in between.
print("\nundersized budgets abort instead of decoding garbage; the "
      "fingerprint gate is what lets the driver trust every success it "
      "did not read exactly")
