"""tools/draw_digest.py: the draws, routes and products of a seeded grid."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "draw_digest.py")

# A change that means to move draws, routes, fingerprints or products
# updates this pin and logs it in CHANGES.md, as the generator digests in
# test_instances.py are kept.
DRAW_DIGEST = "9ff6151e68706667289dede3570c15bd"


def test_draw_digest_is_pinned():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [DRAW_DIGEST]
