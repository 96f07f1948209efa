"""Prime sieving, prime counting, Mertens products, iterated logarithms.

Everything downstream (local Euler factors, resonator sets, asymptotic
targets) consumes the immutable :class:`PrimeTable` produced here.  The
sieve is a plain Eratosthenes bit array: exact, no probabilistic
primality anywhere.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import count_text
from .precision import DOUBLE, Precision, constants, real, rlog

MAX_SIEVE_LIMIT = 100_000_000  # refusal above: a sieve byte per integer


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending.  Immutable and shareable."""

    limit: int
    primes: tuple[int, ...]


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to and including ``limit`` (>= 2)."""
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
    return PrimeTable(limit, tuple(int(p) for p in np.nonzero(mask)[0]))


def prime_count(table: PrimeTable, y: float) -> int:
    """pi(y): number of primes <= y within the table's range."""
    if y > table.limit:
        raise ValueError(f"y={y} exceeds table limit {table.limit}")
    return bisect.bisect_right(table.primes, y)


class MertensProduct(NamedTuple):
    value: object
    ratio_to_asymptotic: object


def mertens_product(
    table: PrimeTable, x: float, prec: Precision = DOUBLE
) -> MertensProduct:
    """prod_{p<=x} (1 - 1/p)^(-1) and its ratio to e^gamma * log(x).

    The ratio tends to 1 as x grows (Mertens' third theorem); at desk
    scale it is the finite-x deviation we report.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if x > table.limit:
        raise ValueError(f"x={x} exceeds table limit {table.limit}")
    value = real(1, prec)
    for p in table.primes:
        if p > x:
            break
        value = value * p / (p - 1)
    asymptotic = constants(prec).exp_gamma * rlog(x, prec)
    return MertensProduct(value, value / asymptotic)


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
