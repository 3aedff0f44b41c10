"""tools/draw_digest.py: the draws, routes and products of a seeded grid."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "draw_digest.py")

# A change that means to move draws, routes, fingerprints or products
# updates this pin and logs it in CHANGES.md, as the generator digests in
# test_instances.py are kept.
DRAW_DIGEST = "626285b8bc526ff450baebb29630b6e4"


def test_draw_digest_is_pinned():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [DRAW_DIGEST]
