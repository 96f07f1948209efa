"""Prime sieving and iterated logarithms.

Everything downstream (local Euler factors, resonator sets) consumes the
tuple of primes sieved here.  The sieve is a plain Eratosthenes bit
array: exact, no probabilistic primality anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import count_text
from .precision import rlog
# unused here; perfbench's tracer patches primes.real (drop it with the
# tracer's patches)
from .precision import real  # noqa: F401

MAX_SIEVE_LIMIT = 100_000_000  # refusal above: a sieve byte per integer


def sieve_primes(limit: int) -> tuple[int, ...]:
    """The primes up to and including ``limit`` (>= 2), ascending, by the
    sieve of Eratosthenes."""
    limit = int(limit)
    if not 2 <= limit <= MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit must lie in [2, {MAX_SIEVE_LIMIT}], got "
            f"{count_text(limit)}"
        )
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(mask)[0])


def iterated_log(T: float, j: int):
    """log applied j times; every intermediate stage must stay positive."""
    if j < 1:
        raise ValueError(f"iteration count must be >= 1, got {j}")
    v = T
    for stage in range(1, j + 1):
        if v <= 0:
            raise ValueError(
                f"iterated log undefined: stage {stage} input {v} <= 0"
            )
        v = rlog(v)
    if v <= 0:
        raise ValueError(f"iterated log is non-positive after {j} stages: {v}")
    return v
