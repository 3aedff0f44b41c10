"""The walkthrough scripts in demos/ run to completion.

Demo 05 is left out: it is a scaling benchmark that runs for about a
minute.
"""

import os
import subprocess
import sys

import pytest

import sparseconv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sparseconv.__file__)))


@pytest.mark.parametrize("script", [
    "01_multiply_basics.py",
    "02_folding_and_decoding.py",
    "03_peeling_rounds.py",
    "04_fingerprint_verify.py",
])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
