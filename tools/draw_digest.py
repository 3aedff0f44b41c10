"""One digest of everything a seeded grid of sparse products draws.

Runs sparse_multiply on a fixed grid of 126 seeded products and hashes,
per product: every locate call's budget, recovered vector, prime, heavy
count and abort; every fingerprint's false-accept budget, w and verdict;
the product (or the failure message); and the final states of the
streams the driver drew from. It prints one sha256 prefix. Two trees that
print the same digest make the same draws, routes, fingerprints and
products on this grid; a change that means to move any of them moves the
digest, and its pin in tests/test_draw_digest.py.

The grid: gen_instance at n = 2^10, 2^14 and 2^18, with 16, 128 and 512
terms, cancellation 0, 0.5 and 0.9 and instance seeds 0 and 1, plus
blocked_telescoping_instance(e) for e = 10..13 and (14, 1024), plus
random_support_canceller(seed) for seeds 0..3, whose products fold at
primes near 14k on supports that are not blocked runs; each at multiply
seeds 0 and 1. It imports the sparseconv of the tree it sits in.

    python tools/draw_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparseconv import driver  # noqa: E402
from sparseconv.instances import (InstanceSpec,  # noqa: E402
                                  blocked_telescoping_instance, gen_instance)
from sparseconv.seeding import MULTIPLY_STREAM, substream  # noqa: E402
from sparseconv.vectors import SparseVector, from_arrays  # noqa: E402


def random_support_canceller(seed, n=1 << 22, d=1 << 12, r=512, t=8):
    """u = f (1 + z^d + ... + z^((r-1) d)) and v = g (1 - z^d) for random
    t-term f and g supported below d, so u * v = f g (1 - z^(r d)) keeps
    at most 2 t^2 terms on supports that are not blocked runs."""
    rng = np.random.default_rng(seed)
    f, g = (rng.choice(d, size=t, replace=False) for _ in range(2))
    cf, cg = (rng.integers(1, 50, size=t) * rng.choice([-1, 1], size=t)
              for _ in range(2))
    shifts = np.arange(r)[:, None] * d
    u = from_arrays(n, (f + shifts).ravel(), np.tile(cf, r))
    v = from_arrays(n, np.concatenate([g, g + d]), np.concatenate([cg, -cg]))
    return u, v


def grid():
    """The (u, v) operand pairs of the grid, each before its two seeds."""
    for n in (1 << 10, 1 << 14, 1 << 18):
        for terms in (16, 128, 512):
            for cancel in (0.0, 0.5, 0.9):
                for seed in (0, 1):
                    yield gen_instance(InstanceSpec(n, terms, 100, cancel,
                                                    seed))
    for e in (10, 11, 12, 13):
        yield blocked_telescoping_instance(e)[:2]
    yield blocked_telescoping_instance(14, 1024)[:2]
    for seed in range(4):
        yield random_support_canceller(seed)


def draw_digest() -> str:
    """sha256 prefix over the grid's draws, verdicts and products."""
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            if isinstance(item, SparseVector):
                h.update(f"<{item.length} {item.indices.size}>".encode())
                h.update(item.indices.tobytes())
                h.update(item.coeffs.tobytes())
            else:
                h.update(f"<{item!r}>".encode())

    real_locate, real_test = driver.locate_with_report, driver.equality_test
    streams = []

    def seen(rng):
        if all(rng is not s for s in streams):
            streams.append(rng)

    def locate(x, y, w, budget, rng):
        seen(rng)
        z, report = real_locate(x, y, w, budget, rng)
        put("locate", budget, z, report.primes, report.heavy_counts,
            report.aborted_rep)
        return z, report

    def fingerprint(x, y, w, delta, rng):
        seen(rng)
        verdict = real_test(x, y, w, delta, rng)
        put("fingerprint", delta, w, verdict)
        return verdict

    driver.locate_with_report, driver.equality_test = locate, fingerprint
    try:
        for u, v in grid():
            for seed in (0, 1):
                streams.clear()
                rng = substream(seed, MULTIPLY_STREAM)
                try:
                    put("product", driver.sparse_multiply(u, v, rng))
                except driver.MultiplicationFailed as err:
                    put("failed", str(err))
                put("streams", rng.bit_generator.state,
                    *(s.bit_generator.state for s in streams))
    finally:
        driver.locate_with_report, driver.equality_test = real_locate, real_test
    return h.hexdigest()[:32]


if __name__ == "__main__":
    print(draw_digest())
