"""Named deterministic random streams derived from one user seed.

Each component draws from its own stream so that, for example, changing
how many fingerprint points get consumed cannot shift the primes a locate
regression test sees. Stream identity is the crc32 of its name, mixed
into a SeedSequence with the user seed.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

SEED_ENV_VAR = "SPARSECONV_SEED"
DEFAULT_SEED = 0

GENERATION_STREAM = "generation"
MULTIPLY_STREAM = "multiply"
VERIFY_STREAM = "verify"


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream under the given seed."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def resolve_seed(flag_value: int | None) -> int:
    """Seed precedence: explicit flag, then SPARSECONV_SEED, then 0.

    A seed that is negative, or not an integer, raises ValueError naming
    its source.
    """
    if flag_value is not None:
        seed, source = int(flag_value), "--seed"
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer") from exc
    if seed < 0:
        raise ValueError(
            f"{source} must be a non-negative integer, got {seed}")
    return seed
