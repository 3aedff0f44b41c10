"""Seeded inputs, oracles and pass counts of the workloads.

crossover    one n = 2^22 product of two 512-term operands (~257k terms);
             the output size dominates.
telescoping  blocked_telescoping_instance(e) for e = 10..14: up to 16k
             input terms, 32 product terms; the input size dominates.
"""

from __future__ import annotations

import functools
import os

import oracles

NAMES = ("crossover", "telescoping")

# Whole passes each operation group makes per run, split between the two
# baselines workers. sparse always makes one pass over every case. The
# cheaper groups repeat their pass, in rounds that interleave the groups,
# and report the median pass.
PASSES = {
    "crossover": {"dense": 2, "naive": 10, "verify_accept": 2,
                  "verify_reject": 2, "cli": 1},
    "telescoping": {"dense": 2, "naive": 1, "verify_accept": 12,
                    "verify_reject": 24, "cli": 3},
}

TELESCOPING_EXPONENTS = tuple(range(10, 15))
# poly_multiply_dense runs its FFT at length exactly 2n, which has large
# prime factors on this family: 5 s at e = 12, 26 s at e = 13. Only the
# members where it finishes in well under a second are timed.
TELESCOPING_DENSE_MAX_E = 11


class Workload:
    """Operands, the cases each operation runs on, and their oracles.

    cases[i] is (u, v). checks is a list of oracles (i, product_terms) ->
    bool; a product is correct when every one accepts it. expected(i) is a
    known-correct product of case i. warm is (u, v, check) for an untimed
    warm-up multiply, or None. dense_cases indexes the cases the dense
    baseline runs on; cli_case is the one the CLI multiplies.
    """

    def __init__(self, name, seed, cases, checks, expected, warm,
                 dense_cases, cli_case):
        self.name = name
        self.seed = seed
        self.cases = cases
        self.checks = checks
        self.expected = expected
        self.warm = warm
        self.dense_cases = dense_cases
        self.cli_case = cli_case
        self.passes = PASSES[name]

    def check(self, i: int, got) -> bool:
        return all(ok(i, got) for ok in self.checks)

    def self_test(self) -> bool:
        """Each oracle on its own rejects every expected product with one
        coefficient changed, and accepts the product itself."""
        for i in range(len(self.cases)):
            good = self.expected(i)
            bad = oracles.corrupt(good, self.seed + i)
            if not all(ok(i, good) and not ok(i, bad) for ok in self.checks):
                return False
        return True


def _crossover(mods, seed):
    inst = mods["instances"]
    u, v = inst.gen_instance(inst.InstanceSpec(
        n=1 << 22, terms=512, coeff_bound=100, cancel_fraction=0.0, seed=seed))
    # Same dimension, 1/16 of the pairs: reaches the same prime ranges, so
    # the timed call sieves nothing.
    wu, wv = inst.gen_instance(inst.InstanceSpec(
        n=1 << 22, terms=128, coeff_bound=100, cancel_fraction=0.0,
        seed=seed + 1))
    # The oracle's products are made on first use, outside setup_s.
    exact = functools.cache(lambda: oracles.pair_sum_product(u, v))
    warm_exact = functools.cache(lambda: oracles.pair_sum_product(wu, wv))
    warm = (wu, wv, lambda got: oracles.same(got, warm_exact()))
    return Workload("crossover", seed, [(u, v)],
                    [lambda i, got: oracles.same(got, exact())],
                    lambda i: exact(), warm, [0], 0)


class _TelescopingOracle:
    """Block-boundary shape plus f(r) * g(r) = h(r) (mod q) at seeded points."""

    def __init__(self, members, points):
        self.members = members          # [(log2_terms, u, v)]
        self.points = points
        self._lhs = {}

    def shape(self, i, got):
        return oracles.telescoping_shape_ok(got, self.members[i][0])

    def evaluation(self, i, got):
        if i not in self._lhs:
            _, u, v = self.members[i]
            self._lhs[i] = oracles.operand_evaluations(u, v, self.points)
        return oracles.product_evaluations(got, self.points) == self._lhs[i]


def _telescoping(mods, seed):
    inst = mods["instances"]
    points = oracles.eval_points(seed)
    exps = TELESCOPING_EXPONENTS
    members = [(e, *inst.blocked_telescoping_instance(e)) for e in exps]
    oracle = _TelescopingOracle([m[:3] for m in members], points)
    cases = [(u, v) for _, u, v, _ in members]
    dense = [i for i, e in enumerate(exps) if e <= TELESCOPING_DENSE_MAX_E]
    return Workload("telescoping", seed, cases,
                    [oracle.shape, oracle.evaluation],
                    lambda i: oracles.terms(members[i][3]), None, dense,
                    len(cases) - 1)


def build(mods, name: str, seed: int, workdir: str) -> Workload:
    """The workload's inputs, plus the CLI's operand files in workdir."""
    make = {"crossover": _crossover, "telescoping": _telescoping}[name]
    work = make(mods, seed)
    u, v = work.cases[work.cli_case]
    mods["polyfile"].write_poly_file(u, os.path.join(workdir, "a.poly"))
    mods["polyfile"].write_poly_file(v, os.path.join(workdir, "b.poly"))
    return work
