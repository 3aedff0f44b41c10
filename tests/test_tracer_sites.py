"""perfbench's tracer finds every package attribute it patches.

perfbench/tracer.py looks functions up by module and attribute name, and
reads the LocateReport fields of each locate call, so a rename in src/
would otherwise surface only in a traced benchmark run. The tracer is
installed in a fresh process, leaving this one unpatched.
"""

import json
import os
import subprocess
import sys

import sparseconv
from sparseconv import poly_multiply_naive
from sparseconv.instances import blocked_telescoping_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))

CHECK = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from tracer import SITES, Tracer
Tracer().install()
sites = [site for key in SITES for site in SITES[key]]
wrapped = [hasattr(getattr(importlib.import_module("sparseconv." + mod),
                           attr), "__wrapped__") for mod, attr in sites]
print(len(sites), sum(wrapped))
"""

# One traced product of the OPERANDS: the counters perfbench/run.py
# --trace 1 reports.
COUNT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
import numpy as np
from sparseconv import poly_multiply_naive, sparse_multiply
from sparseconv.instances import (InstanceSpec, blocked_telescoping_instance,
                                  gen_instance)
u, v = OPERANDS
want = poly_multiply_naive(u, v)
assert sparse_multiply(u, v, np.random.default_rng(1)) == want
metrics = layer_metrics(tracer.snapshot(), 0)
print(json.dumps({name: m["value"] for name, m in metrics.items()}))
"""


def _count(operands):
    return json.loads(_run(COUNT.replace("OPERANDS", operands)))


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code,
                          os.path.join(ROOT, "perfbench")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_tracer_resolves_every_site():
    assert _run(CHECK).split() == ["18", "18"]


def test_tracer_counts_a_telescoping_product():
    # blocked_telescoping_instance(10): a 32-term product whose first fold
    # recovers it all, so the fingerprint after that fold verifies it and
    # no confirming fold runs
    metrics = _count("blocked_telescoping_instance(10)[:2]")
    assert metrics["locate.reps"] == metrics["locate.calls"] == 1
    assert metrics["locate.heavy_buckets"] > 0
    assert metrics["locate.recovered_terms"] >= 32
    assert metrics["fingerprint.calls"] == metrics["fingerprint.accepts"] == 1
    # the tracer counts three evaluations per point, each of one operand
    u, v = blocked_telescoping_instance(10)[:2]
    terms = u.l0 + v.l0 + poly_multiply_naive(u, v).l0
    assert metrics["fingerprint.points"] >= 1
    assert (metrics["fingerprint.terms_evaluated"]
            == metrics["fingerprint.points"] * terms)


def test_tracer_counts_a_product_whose_first_fold_aborts():
    # some 60k product terms: the first peel's one fold aborts, and the
    # next peel reads the 65536 pairs exactly. No fingerprint runs: the
    # aborted peel's w is empty and the pair reading is proven
    metrics = _count("gen_instance(InstanceSpec(n=1 << 18, terms=256, "
                     "coeff_bound=100, cancel_fraction=0.0, seed=0))")
    assert metrics["locate.aborted_calls"] >= 1
    assert metrics["locate.calls"] == metrics["locate.aborted_calls"]
    assert metrics["fingerprint.calls"] == 0
