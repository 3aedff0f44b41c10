"""Benchmark of the sparseconv package: one workload per invocation.

    python3 perfbench/run.py --workload crossover|telescoping
        --seed N [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from its
src/. Each run starts fresh worker processes one after another (set-up
only, baselines part 0, set-up only, sparse, set-up only, baselines part
1; the baselines workers also start the CLI processes), then prints one
JSON line: whether every output was correct,
operations attempted and failed, and the end-to-end metrics, or with
--trace 1 the per-layer metrics of a run with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Roles of the workers a run starts, in order, with their part. Every
# worker sets up, so setup_s is the median of six set-ups: one set-up
# takes about 0.3 s, short enough that the host's speed moves it a lot.
# The two baselines workers bracket the sparse one, so their passes
# sample the whole run.
SCHEDULE = [("setup", 0), ("baselines", 0), ("setup", 0), ("sparse", 0),
            ("setup", 0), ("baselines", 1)]
# Every run, its workers and their CLI processes must end within this.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sparse_s": "s",
    "cli_multiply_s": "s",
    "dense_s": "s",
    "naive_s": "s",
    "verify_accept_s": "s",
    "verify_reject_s": "s",
    "sparse_peak_mb": "MB",
    "first_attempt_share": "ratio",
}


class RunError(RuntimeError):
    pass


def run_worker(role: str, part: int, args, workdir: str,
               deadline: float) -> dict:
    """Start one worker in its own process group and wait for its result.

    On timeout the whole group is killed, CLI children included.
    """
    cmd = [sys.executable, WORKER, role, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--workdir", workdir, "--deadline", repr(deadline),
           "--part", str(part)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError(f"worker {role} exceeded the run limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RunError(f"worker {role} exited with code {code}")
    with open(os.path.join(workdir, f"{role}-{part}.json"), encoding="utf-8") as f:
        return json.load(f)


def collect(results: list, workload: str, trace: bool) -> dict:
    sys.path.insert(0, HERE)
    import tracer as tracing

    sparse = next(r for role, r in results if role == "sparse")
    bases = [r for role, r in results if role == "baselines"]
    parts = [r for _, r in results]
    out = {
        "correct": (sum(r["wrong"] for r in parts) == 0
                    and all(r["self_test"] for r in [sparse] + bases)),
        "attempted": sum(r["attempted"] for r in parts),
        "failed": sum(r["failed"] for r in parts),
    }
    retried = sum(r["retried"] for r in parts)
    print(f"retried explicit failures {retried}", file=sys.stderr)
    if trace:
        snap = tracing.merge([r["trace"] for r in parts])
        out["metrics"] = tracing.layer_metrics(snap, retried)
        print(f"traced sparse_s {sparse['sparse_s']:.4f}", file=sys.stderr)
        return out
    naive_case_s = [r["naive_case_s"] for r in bases if "naive_case_s" in r]
    if workload == "telescoping":
        for algo, times in (("sparse", sparse["sparse_case_s"]),
                            ("naive", naive_case_s[-1])):
            slopes = " ".join(f"{b / a:.2f}"
                              for a, b in zip(times, times[1:]))
            print(f"{algo} per-doubling time ratios, e = 10..14: {slopes}",
                  file=sys.stderr)
    values = {"setup_s": statistics.median(r["setup_s"] for r in parts)}
    values.update((k, sparse[k]) for k in ("sparse_s", "sparse_peak_mb"))
    # Operations that answered without an explicit Las Vegas failure;
    # the retried ones are not counted in `failed` (see worker.Tally).
    values["first_attempt_share"] = 1.0 - retried / out["attempted"]
    for k in END_TO_END:
        if k not in values:
            values[k] = statistics.median(
                t for r in bases for t in r["pass_s"][k])
    out["metrics"] = {k: {"value": values[k], "unit": unit}
                      for k, unit in END_TO_END.items()}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crossover", "telescoping"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=54,
                        help="accepted for a uniform command line; the "
                             "workloads measure fixed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sparseconv",
                                       "__init__.py")):
        print(f"error: no sparseconv sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    deadline = time.time() + RUN_LIMIT_S
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        results = [(role, run_worker(role, part, args, workdir, deadline))
                   for role, part in SCHEDULE]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass                # another run still uses it
    out = collect(results, args.workload, bool(args.trace))
    for name, metric in out["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
