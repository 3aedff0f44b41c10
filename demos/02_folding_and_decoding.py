#!/usr/bin/env python3
"""How a folded bucket encodes coefficient, index, and sign at once.

Folding compresses a length-N vector into m buckets: bucket b sums
coeff_j * w^j over all stored indices j with j = b (mod m), where
w = e^{i*pi/N} is a 2N-th root of unity. When a bucket receives exactly
one term, nothing is lost:

  magnitude of the bucket  ->  |coeff_j|
  phase of the bucket      ->  j itself (as the nearest power of w)

and because w^N = -1, a negative coefficient shows up as phase j + N.
One complex number per surviving term, recovered by rounding the phase.
"""

import numpy as np

from sparseconv import make_sparse_vector
from sparseconv.folding import fold
from sparseconv.locate import decode_indices


def decode(value):
    """Exponent of the power of w nearest to the bucket's phase."""
    return int(decode_indices(np.array([value]), N)[0])


N = 32
x = make_sparse_vector(N, [(3, 5), (11, -2), (26, 7)])
m = 7

print(f"x has terms {x.to_pairs()} in dimension N = {N}")
print(f"folding into m = {m} buckets with w = e^(i*pi/{N})\n")

# fold sums coeff_j * w^j over the stored terms by index mod m.
folded = fold(x, m)
print(f"{'bucket':>6}  {'value':>22}  decoded")
for b, value in enumerate(folded):
    if abs(value) < 1e-9:
        print(f"{b:>6}  {'0':>22}")
        continue
    # decode rounds the phase to the nearest of the 2N powers of w.
    # Exponents in [N, 2N) are the negative-coefficient copies.
    e = decode(value)
    coeff = round(abs(value))
    idx = e
    if e >= N:
        coeff, idx = -coeff, e - N
    print(f"{b:>6}  {value:>22.4f}  z^{idx} * {coeff:+d}")

# Check the decoding against the original terms. 3 % 7, 11 % 7 and
# 26 % 7 are distinct, so every term got a private bucket.
for idx, coeff in x.to_pairs():
    value = folded[idx % m]
    assert round(abs(value)) == abs(coeff)
    e = decode(value)
    assert e == (idx if coeff > 0 else idx + N)
print("\nevery occupied bucket decoded back to its original term")

# The encoding is exactly multiplication by w^j: a term c * z^j lands as
# c * w^j, so the sign flip for c < 0 is a phase shift by pi, i.e. +N.
for idx, coeff in x.to_pairs():
    expected = coeff * np.exp(1j * np.pi * idx / N)
    assert abs(folded[idx % m] - expected) < 1e-9

# Collisions are the failure mode. Fold modulo 8 instead: 3 and 11 now
# share bucket 3, and their sum decodes to a bogus exponent.
bad = fold(x, 8)
clash = bad[3]
e = decode(clash)
print(f"\nfolded mod 8, bucket 3 holds {clash:.4f}")
print(f"which decodes to exponent {e}: neither 3 nor 11, and the "
      f"magnitude {abs(clash):.3f} matches no coefficient")
print("random prime moduli make such collisions rare and independent "
      "from one locate call to the next")
