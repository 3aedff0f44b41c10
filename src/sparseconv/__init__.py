"""Output-sensitive sparse polynomial and cyclic-convolution multiplication.

The cost of the main routine scales with the number of nonzero terms in
the inputs and the output rather than with the full degree, while a
randomized fingerprint keeps the result Las Vegas correct.
"""

from .driver import MultiplicationFailed, sparse_multiply
from .fingerprint import equality_test
from .instances import InstanceSpec, blocked_telescoping_instance, gen_instance
from .polyfile import PolyFileError, parse_poly_file, write_poly_file
from .primes import PrimeSamplingError, miller_rabin, random_prime_in_range
from .seeding import resolve_seed, substream
from .vectors import (EnvelopeError, SparseVector,
                      cyclic_convolve_naive, dense_fft_multiply,
                      embed_for_product, make_sparse_vector,
                      poly_multiply_dense, poly_multiply_naive, zero_vector)

__version__ = "0.1.0"

__all__ = [
    "EnvelopeError",
    "InstanceSpec",
    "MultiplicationFailed",
    "PolyFileError",
    "PrimeSamplingError",
    "SparseVector",
    "blocked_telescoping_instance",
    "cyclic_convolve_naive",
    "dense_fft_multiply",
    "embed_for_product",
    "equality_test",
    "gen_instance",
    "make_sparse_vector",
    "miller_rabin",
    "parse_poly_file",
    "poly_multiply_dense",
    "poly_multiply_naive",
    "random_prime_in_range",
    "resolve_seed",
    "sparse_multiply",
    "substream",
    "write_poly_file",
    "zero_vector",
    "__version__",
]
