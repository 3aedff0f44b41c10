"""perfbench's tracer finds every package attribute it patches.

perfbench/tracer.py looks functions up by module and attribute name, so a
rename in src/ would otherwise surface only in a traced benchmark run.
The tracer is installed in a fresh process, leaving this one unpatched.
"""

import os
import subprocess
import sys

import sparseconv

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


def test_tracer_resolves_every_site():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHECK,
                          os.path.join(ROOT, "perfbench")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["18", "18"]
