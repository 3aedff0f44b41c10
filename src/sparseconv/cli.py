"""Command-line front end: multiply, gen, verify, bench.

Exit codes: 0 success / verified, 1 algorithm or verification failure,
2 invalid input, 3 out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import driver
from .fingerprint import equality_test
from .instances import InstanceSpec, gen_instance
from .polyfile import parse_poly_file, write_poly_file
from .primes import PrimeSamplingError
from .seeding import MULTIPLY_STREAM, VERIFY_STREAM, resolve_seed, substream
from .vectors import (SparseVector, embed_for_product, poly_multiply_dense,
                      poly_multiply_naive)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_OUT_OF_MEMORY = 3      # not 1: callers retry exit 1 with another seed

ALGOS = ("naive", "dense", "sparse")

# Explicit Las Vegas failures: a randomized routine gave up, never erred.
GAVE_UP = (driver.MultiplicationFailed, PrimeSamplingError)


def _run_algo(algo: str, u: SparseVector, v: SparseVector, seed: int,
              fallback_dense: bool = False) -> SparseVector:
    if algo == "naive":
        return poly_multiply_naive(u, v)
    if algo == "dense":
        return poly_multiply_dense(u, v)
    try:                                # "sparse"
        return driver.sparse_multiply(u, v, substream(seed, MULTIPLY_STREAM))
    except GAVE_UP:
        if fallback_dense:
            return poly_multiply_dense(u, v)
        raise


def _cmd_multiply(args) -> int:
    u = parse_poly_file(args.a)
    v = parse_poly_file(args.b)
    product = _run_algo(args.algo, u, v, args.seed,
                        fallback_dense=args.fallback_dense)
    if args.output:
        write_poly_file(product, args.output)
    print(product.l0)
    return EXIT_OK


def _instance(args) -> tuple[SparseVector, SparseVector]:
    return gen_instance(InstanceSpec(
        n=args.n, terms=args.terms, coeff_bound=args.coeff_bound,
        cancel_fraction=args.cancel_fraction, seed=args.seed))


def _cmd_gen(args) -> int:
    u, v = _instance(args)
    write_poly_file(u, args.out_a)
    write_poly_file(v, args.out_b)
    return EXIT_OK


def _cmd_verify(args) -> int:
    u = parse_poly_file(args.a)
    v = parse_poly_file(args.b)
    claimed = parse_poly_file(args.product)
    x, y = embed_for_product(u, v)
    if claimed.length != x.length:
        raise ValueError(
            f"product dimension must be {x.length}, got {claimed.length}")
    rng = substream(args.seed, VERIFY_STREAM)
    if equality_test(x, y, claimed, args.delta, rng):
        print("yes")
        return EXIT_OK
    print("no")
    return EXIT_FAILED


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError("--algos names no algorithm")
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    u, v = _instance(args)
    lines = []
    for algo in algos:
        for _ in range(args.repeats):
            start = time.perf_counter()
            try:
                k_out = _run_algo(algo, u, v, args.seed).l0
            except GAVE_UP:
                k_out = None
            wall = (time.perf_counter() - start) * 1000.0
            lines.append(json.dumps({
                "algo": algo, "n": args.n, "s_in": u.l0 + v.l0,
                "k_out": k_out, "wall_millis": wall, "seed": args.seed,
                "success": k_out is not None}))
    for line in lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseconv",
        description="Output-sensitive sparse polynomial multiplication")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=int, required=True)
    instance.add_argument("--terms", type=int, required=True)
    instance.add_argument("--coeff-bound", type=int, default=100)
    instance.add_argument("--cancel-fraction", type=float, default=0.0)

    p_mul = sub.add_parser("multiply", parents=[seeded],
                           help="multiply two polynomial files")
    p_mul.add_argument("a")
    p_mul.add_argument("b")
    p_mul.add_argument("-o", "--output", help="write the product here")
    p_mul.add_argument("--algo", choices=ALGOS, default="sparse")
    p_mul.add_argument("--fallback-dense", action="store_true",
                       help="fall back to the dense FFT if recovery fails")
    p_mul.set_defaults(func=_cmd_multiply)

    p_gen = sub.add_parser("gen", parents=[instance, seeded],
                           help="generate a seeded instance")
    p_gen.add_argument("-o", "--out-a", required=True)
    p_gen.add_argument("-o2", "--out-b", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", parents=[seeded],
                           help="check a claimed product file")
    p_ver.add_argument("a")
    p_ver.add_argument("b")
    p_ver.add_argument("product")
    p_ver.add_argument("--delta", type=float, default=0.01)
    p_ver.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", parents=[instance, seeded],
                             help="time backends on one instance")
    p_bench.add_argument("--algos", default="naive,dense,sparse")
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--json", help="also write the records to this file")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = resolve_seed(args.seed)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GAVE_UP as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except MemoryError as exc:
        print(f"{args.command} ran out of memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
