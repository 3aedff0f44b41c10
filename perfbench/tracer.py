"""Per-layer counters for the traced run, recorded from outside the package.

The tracer replaces public functions with timing wrappers at the module
attributes their callers look up, so the package itself is unchanged.
Modules are reached through importlib: the package attribute
`sparseconv.locate` is the re-exported function, not the module.

Each wrapper keeps a call count, the total time spent inside the call, and
the part of that time covered by nested wrapped calls, so a layer's self
time is its total minus its children.
"""

from __future__ import annotations

import functools
import importlib
import time

# Layer key -> the (module, attribute) names its callers look up. Names bound
# to the same function share one wrapper, so a call is counted once.
SITES = {
    "driver.hash_and_iterate": [("driver", "hash_and_iterate")],
    "locate": [("driver", "locate_with_report")],
    "fingerprint.equality_test": [("driver", "equality_test"),
                                  ("fingerprint", "equality_test"),
                                  ("cli", "equality_test")],
    "fingerprint.eval": [("fingerprint", "eval_sparse_poly_mod")],
    "primes.draw": [("locate", "uniform_prime_below")],
    "primes.sieve": [("primes", "sieve_primes")],
    "primes.mr": [("primes", "miller_rabin")],
    "folding.bucket": [("folding", "heavy_residual_buckets")],
    "folding.pair_terms": [("folding", "combined_pair_terms")],
    "folding.phase": [("folding", "phased_coeffs")],
    "polyfile.parse": [("polyfile", "parse_poly_file"),
                       ("cli", "parse_poly_file")],
    "polyfile.write": [("polyfile", "write_poly_file"),
                       ("cli", "write_poly_file")],
    "instances.gen": [("instances", "gen_instance"),
                      ("instances", "blocked_telescoping_instance")],
}

# Raw counters a traced process reports; the parent sums them over processes.
RAW_KEYS = ["locate.reps", "locate.aborted_calls", "locate.heavy_buckets",
            "locate.recovered_terms", "fingerprint.accepts",
            "fingerprint.terms_evaluated"]

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "driver.outer_rounds": "count",
    "driver.hash_and_iterate_s": "s",
    "driver.explicit_failures": "count",
    "locate.calls": "count",
    "locate.reps": "count",
    "locate.aborted_calls": "count",
    "locate.heavy_buckets": "count",
    "locate.recovered_terms": "count",
    "locate.recovered_per_heavy": "ratio",
    "locate.self_s": "s",
    "folding.bucket_calls": "count",
    "folding.bucket_s": "s",
    "folding.pair_terms_calls": "count",
    "folding.pair_terms_s": "s",
    "folding.phase_calls": "count",
    "folding.phase_s": "s",
    "primes.draws": "count",
    "primes.draw_s": "s",
    "primes.sieve_calls": "count",
    "primes.sieve_s": "s",
    "primes.mr_calls": "count",
    "fingerprint.calls": "count",
    "fingerprint.accepts": "count",
    "fingerprint.points": "count",
    "fingerprint.terms_evaluated": "count",
    "fingerprint.s": "s",
    "polyfile.parse_s": "s",
    "polyfile.write_s": "s",
    "instances.gen_s": "s",
}


class Tracer:
    """Counters for one process; install() patches the package in place."""

    def __init__(self):
        self.calls = {key: 0 for key in SITES}
        self.total = {key: 0.0 for key in SITES}
        self.child = {key: 0.0 for key in SITES}
        self.raw = {key: 0 for key in RAW_KEYS}
        self._stack: list[list[float]] = []

    def install(self) -> None:
        after = {"locate": self._after_locate,
                 "fingerprint.equality_test": self._after_equality,
                 "fingerprint.eval": self._after_eval}
        for key, sites in SITES.items():
            wrappers = {}
            for mod, attr in sites:
                module = importlib.import_module(f"sparseconv.{mod}")
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(key, original,
                                                        after.get(key))
                setattr(module, attr, wrappers[id(original)])

    def _wrap(self, key, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[key] += 1
                self.total[key] += elapsed
                self.child[key] += frame[0]
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after_locate(self, args, out):
        z, report = out
        self.raw["locate.reps"] += report.reps_run
        self.raw["locate.aborted_calls"] += report.aborted_rep is not None
        self.raw["locate.heavy_buckets"] += sum(report.heavy_counts)
        self.raw["locate.recovered_terms"] += z.l0

    def _after_equality(self, args, out):
        self.raw["fingerprint.accepts"] += bool(out)

    def _after_eval(self, args, out):
        self.raw["fingerprint.terms_evaluated"] += args[0].l0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "child": dict(self.child), "raw": dict(self.raw)}


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several traced processes."""
    out = {"calls": {k: 0 for k in SITES}, "total": {k: 0.0 for k in SITES},
           "child": {k: 0.0 for k in SITES}, "raw": {k: 0 for k in RAW_KEYS}}
    for snap in snapshots:
        for part in out:
            for key in out[part]:
                out[part][key] += snap[part][key]
    return out


def layer_metrics(snap: dict, retried: int) -> dict:
    """Per-layer metric values from merged counters.

    retried is the number of explicit Las Vegas failures the benchmark
    retried (MultiplicationFailed, PrimeSamplingError, CLI exit code 1).
    """
    calls, total, child, raw = (snap["calls"], snap["total"], snap["child"],
                                snap["raw"])
    heavy = raw["locate.heavy_buckets"]
    values = {
        "driver.outer_rounds": calls["driver.hash_and_iterate"],
        "driver.hash_and_iterate_s": total["driver.hash_and_iterate"],
        "driver.explicit_failures": retried,
        "locate.calls": calls["locate"],
        "locate.reps": raw["locate.reps"],
        "locate.aborted_calls": raw["locate.aborted_calls"],
        "locate.heavy_buckets": heavy,
        "locate.recovered_terms": raw["locate.recovered_terms"],
        "locate.recovered_per_heavy":
            raw["locate.recovered_terms"] / heavy if heavy else 0.0,
        # Decode and vote: locate minus its folding and primes children.
        "locate.self_s": total["locate"] - child["locate"],
        "folding.bucket_calls": calls["folding.bucket"],
        "folding.bucket_s": total["folding.bucket"],
        "folding.pair_terms_calls": calls["folding.pair_terms"],
        "folding.pair_terms_s": total["folding.pair_terms"],
        "folding.phase_calls": calls["folding.phase"],
        "folding.phase_s": total["folding.phase"],
        "primes.draws": calls["primes.draw"],
        "primes.draw_s": total["primes.draw"],
        "primes.sieve_calls": calls["primes.sieve"],
        "primes.sieve_s": total["primes.sieve"],
        "primes.mr_calls": calls["primes.mr"],
        "fingerprint.calls": calls["fingerprint.equality_test"],
        "fingerprint.accepts": raw["fingerprint.accepts"],
        # Each point evaluates x, y and w once.
        "fingerprint.points": calls["fingerprint.eval"] // 3,
        "fingerprint.terms_evaluated": raw["fingerprint.terms_evaluated"],
        "fingerprint.s": total["fingerprint.equality_test"],
        "polyfile.parse_s": total["polyfile.parse"],
        "polyfile.write_s": total["polyfile.write"],
        "instances.gen_s": total["instances.gen"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}
