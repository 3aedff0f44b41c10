"""One fresh process of a benchmark run.

    python3 perfbench/worker.py ROLE --workload W --seed S --trace 0|1
        --workdir DIR --deadline EPOCH_SECONDS
    python3 perfbench/worker.py cli TRACE_JSON CLI_ARGS...

Roles:
  setup      import sparseconv and build the inputs, nothing else;
  sparse     set up, warm up on a small instance (crossover), then one
             timed pass of sparse_multiply over every case, and the peak
             RSS so far;
  baselines  set up, then its part (--part 0 or 1 of PARTS) of the passes
             of dense, naive, the fingerprint on true and on corrupted
             products, and the CLI in fresh processes;
  cli        run the CLI in this process under the tracer (traced runs)
             and write the counters to TRACE_JSON.

Each other role writes ROLE-PART.json into DIR. The package is imported from
src/ of the checkout that holds this file, never from site-packages.

Times are CPU seconds (user + system) of the process doing the work. The
operations are single-threaded and compute-bound, so on an idle machine
this is their wall time; unlike wall time it leaves out the time a shared
host takes the core away, which moved wall-time figures by 10-20% between
runs of identical code.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

MODULES = ("cli", "driver", "fingerprint", "folding", "instances", "locate",
           "polyfile", "primes", "seeding", "vectors")


def load_package() -> dict:
    pkg = importlib.import_module("sparseconv")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SystemExit(f"sparseconv imported from {pkg.__file__}, not {SRC}")
    return {m: importlib.import_module(f"sparseconv.{m}") for m in MODULES}


MODS = load_package()

import oracles  # noqa: E402  (after the package, so numpy import is shared)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Baselines workers per run. run.py starts one before and one after the
# sparse worker, so the passes of every baseline sample the whole run in
# two processes.
PARTS = 2

EXPECTED_FAILURES = (MODS["driver"].MultiplicationFailed,
                     MODS["primes"].PrimeSamplingError)


# Attempts an operation gets before an explicit Las Vegas failure counts
# as failed. The prime sampler gives up on about 1 call in 1000, and a
# telescoping run makes 180 fingerprint calls: with two attempts,
# `telescoping --seed 6` met a call whose retry gave up too.
ATTEMPTS = 4


class Tally:
    """Operations attempted, failed (raised or wrong), and wrong outputs.

    An explicit Las Vegas failure is retried on the next random stream,
    the remedy the package documents, up to ATTEMPTS attempts in all; the
    operation is counted in `retried` once and the time of every attempt
    stays in the measurement. Such failures strike a few seeds only, so
    counting them in `failed` would make the failed share differ from seed
    to seed; run.py reports them as the end-to-end metric
    first_attempt_share instead.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.retried = 0

    def run(self, op):
        """op(attempt) runs the operation with the stream of that attempt."""
        self.attempted += 1
        for attempt in range(ATTEMPTS):
            try:
                return op(attempt)
            except EXPECTED_FAILURES as exc:
                print(f"attempt {attempt} failed: {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
                self.retried += attempt == 0
        self.failed += 1
        return None

    def judge(self, ok: bool) -> None:
        if not ok:
            self.failed += 1
            self.wrong += 1


def stream(seed: int, name: str, attempt: int):
    """Named random stream of one operation; a retry gets a fresh one."""
    suffix = f"/retry{attempt}" if attempt else ""
    return MODS["seeding"].substream(seed, name + suffix)


def child_cpu() -> float:
    """CPU seconds of every finished child process of this one."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def interleaved_passes(groups: dict) -> dict:
    """Time of each pass of each group, the passes taken in rounds.

    groups maps a metric to (passes, one_pass, clock): passes is the range
    of pass numbers to make, one_pass(n) makes pass n. There are as many
    rounds as the longest range, and each group's passes are spread evenly
    over them, so every group samples the whole phase: the host's speed
    drifts over seconds.
    """
    times = {name: [] for name in groups}
    rounds = max(len(passes) for passes, _, _ in groups.values())
    for r in range(rounds):
        for name, (passes, one_pass, clock) in groups.items():
            count = len(passes)
            if (r + 1) * count // rounds > r * count // rounds:
                start = clock()
                one_pass(passes[len(times[name])])
                times[name].append(clock() - start)
    return times


def part_of(count: int, part: int) -> range:
    """Pass numbers that baselines worker `part` makes out of `count`."""
    return range(count * part // PARTS, count * (part + 1) // PARTS)


def role_sparse(work, tally, result):
    multiply = MODS["driver"].sparse_multiply
    seed = work.seed
    if work.warm is not None:
        wu, wv, warm_ok = work.warm
        warm = tally.run(lambda k: multiply(wu, wv, stream(seed, "warm", k)))
        if warm is not None:
            tally.judge(warm_ok(oracles.terms(warm)))

    outs, ends = [], [time.process_time()]
    for i, (u, v) in enumerate(work.cases):
        outs.append(tally.run(
            lambda k: multiply(u, v, stream(seed, f"multiply/{i}", k))))
        ends.append(time.process_time())
    result["sparse_s"] = ends[-1] - ends[0]
    result["sparse_case_s"] = [b - a for a, b in zip(ends, ends[1:])]
    result["sparse_peak_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, out in enumerate(outs):
        if out is not None:
            tally.judge(work.check(i, oracles.terms(out)))
    result["self_test"] = work.self_test()


def _cli_pass(work, args, tally, snapshots, k):
    """CLI multiply number k in a fresh process. Each pass has its own
    seed, so the median pass samples several prime draws. Exit code 1 (the
    algorithm gave up) is retried with the next seed, like any Las Vegas
    failure."""
    a, b, p = (os.path.join(args.workdir, f) for f in ("a.poly", "b.poly",
                                                       "p.poly"))
    snap = os.path.join(args.workdir, "cli_trace.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    tally.attempted += 1
    for attempt in range(ATTEMPTS):
        cli_seed = 100 * work.seed + 10 * k + attempt
        argv = ["multiply", a, b, "-o", p, "--seed", str(cli_seed)]
        if args.trace:
            cmd = [sys.executable, os.path.abspath(__file__), "cli", snap]
        else:
            cmd = [sys.executable, "-m", "sparseconv.cli"]
        for stale in (p, snap):
            if os.path.exists(stale):
                os.remove(stale)
        proc = subprocess.run(cmd + argv, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, args.deadline - time.time()))
        if args.trace:
            with open(snap, encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
        if proc.returncode == 0:
            break
        print(f"cli attempt {attempt} exit {proc.returncode}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        if proc.returncode != 1 or attempt == ATTEMPTS - 1:
            tally.failed += 1
            return
        tally.retried += attempt == 0
    want = work.expected(work.cli_case)
    printed_ok = proc.stdout.strip() == str(want[1].size)
    tally.judge(printed_ok and os.path.exists(p)
                and work.check(work.cli_case, oracles.read_poly_file(p)))


def role_baselines(work, tally, result, args, snapshots):
    vec = MODS["vectors"]
    fp = MODS["fingerprint"]
    passes = work.passes

    def product_pass(fn, cases, case_s=None):
        for pos, i in enumerate(cases):
            u, v = work.cases[i]
            start = time.process_time()
            out = tally.run(lambda k: fn(u, v))
            if case_s is not None:
                case_s[pos] = time.process_time() - start
            if out is not None:
                tally.judge(work.check(i, oracles.terms(out)))

    everything = range(len(work.cases))
    embedded = [vec.embed_for_product(u, v) for u, v in work.cases]
    true = [vec.from_arrays(*work.expected(i)) for i in everything]
    wrong = [vec.from_arrays(*oracles.corrupt(work.expected(i), work.seed + i))
             for i in everything]

    def verify_pass(claims, want: bool, kind: str, n: int):
        # Each pass draws its own primes and points, so the median pass
        # samples several draws.
        for i in everything:
            x, y = embedded[i]
            said = tally.run(lambda k: fp.equality_test(
                x, y, claims[i], 0.01,
                stream(work.seed, f"{kind}/{i}/{n}", k)))
            if said is not None:
                tally.judge(said is want)

    # Also fills the oracles' caches, so the timed passes pay only for
    # comparing each output.
    result["self_test"] = work.self_test()
    naive_case_s = [0.0] * len(work.cases)      # of the last pass
    cpu = time.process_time
    part = args.part
    result["pass_s"] = interleaved_passes({
        "dense_s": (part_of(passes["dense"], part), lambda n: product_pass(
            vec.poly_multiply_dense, work.dense_cases), cpu),
        "naive_s": (part_of(passes["naive"], part), lambda n: product_pass(
            vec.poly_multiply_naive, everything, naive_case_s), cpu),
        "verify_accept_s": (part_of(passes["verify_accept"], part),
                            lambda n: verify_pass(true, True, "accept", n),
                            cpu),
        "verify_reject_s": (part_of(passes["verify_reject"], part),
                            lambda n: verify_pass(wrong, False, "reject", n),
                            cpu),
        "cli_multiply_s": (part_of(passes["cli"], part), lambda n: _cli_pass(
            work, args, tally, snapshots, n), child_cpu),
    })
    if result["pass_s"]["naive_s"]:
        result["naive_case_s"] = naive_case_s


def run_cli_traced(trace_out: str, argv: list[str]) -> int:
    trace = tracing.Tracer()
    trace.install()
    try:
        return MODS["cli"].main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace.snapshot(), handle)


def main() -> int:
    if sys.argv[1] == "cli":
        return run_cli_traced(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "sparse", "baselines"))
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--part", type=int, choices=range(PARTS), default=0)
    args = parser.parse_args()

    trace = tracing.Tracer()
    if args.trace:
        trace.install()
    work = workloads.build(MODS, args.workload, args.seed, args.workdir)
    result = {"setup_s": time.process_time()}
    tally = Tally()
    snapshots = []
    if args.role == "sparse":
        role_sparse(work, tally, result)
    elif args.role == "baselines":
        role_baselines(work, tally, result, args, snapshots)
    snapshots.append(trace.snapshot())
    result.update(attempted=tally.attempted, failed=tally.failed,
                  wrong=tally.wrong, retried=tally.retried,
                  trace=tracing.merge(snapshots))
    with open(os.path.join(args.workdir, f"{args.role}-{args.part}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
