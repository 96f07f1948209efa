"""Precision contract and mathematical constants.

Every real-valued routine in the combinatorial core (primes, jets,
resonator sums) accepts a :class:`Precision`.  The default is hardware
double; a high-precision mode backed by mpmath with 50 to
:data:`MAX_DIGITS` significant decimal digits can be selected per run
(the ``--precision`` flag of the ``ssum`` and ``prop`` commands).
High-precision mode also sidesteps double-range overflow for resonator
cardinalities like ``1000**1229``.

In double mode Euler's constant and ``e**gamma`` are the stored
50-digit literals rounded to double.  In high-precision mode they are
mpmath's ``euler`` and its exponential at the working precision, so
every accepted digit count gets that many correct digits;
:func:`check_constants` cross-checks either against the literals.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import mpmath

from .errors import AccuracyError

# 50 significant digits each; see check_constants for the consistency test.
EULER_GAMMA_STR = "0.57721566490153286060651209008240243104215933593992"
EXP_GAMMA_STR = "1.7810724179901979852365041031071795491696452143034"

EULER_GAMMA = float(EULER_GAMMA_STR)
EXP_GAMMA = float(EXP_GAMMA_STR)

MAX_DIGITS = 1000  # refusal above: run time grows faster than the digits


@dataclass(frozen=True)
class Precision:
    """Arithmetic mode: ``digits=None`` means hardware double, otherwise
    mpmath reals with that many significant decimal digits (50 to
    MAX_DIGITS)."""

    digits: int | None = None

    def __post_init__(self):
        if self.digits is not None and not 50 <= self.digits <= MAX_DIGITS:
            raise ValueError(
                f"high-precision mode requires 50 to {MAX_DIGITS} digits, "
                f"got {self.digits}"
            )

    @property
    def is_double(self) -> bool:
        return self.digits is None

    @property
    def effective_digits(self) -> int:
        return 17 if self.digits is None else self.digits

    def context(self):
        """Working-precision context: mpmath workdps, or a no-op for double.

        Any function that accumulates in high-precision mode must run its
        arithmetic inside this context; mpmath precision is dynamic.
        """
        if self.is_double:
            return contextlib.nullcontext()
        return mpmath.workdps(self.digits)


DOUBLE = Precision()
HIGH = Precision(50)


@dataclass(frozen=True)
class Constants:
    euler_gamma: object
    exp_gamma: object


def constants(prec: Precision = DOUBLE) -> Constants:
    """Euler's constant and e**gamma at the requested precision."""
    if prec.is_double:
        return Constants(EULER_GAMMA, EXP_GAMMA)
    with mpmath.workdps(prec.digits):
        gamma = +mpmath.euler
        return Constants(gamma, mpmath.exp(gamma))


def check_constants(prec: Precision = DOUBLE) -> None:
    """Self-check: gamma and exp(gamma) must reproduce the 50-digit
    literals, to double rounding or to 48 digits in high precision.

    Raises :class:`AccuracyError` on drift; cheap enough to run at the
    start of every CLI command and in the test suite.
    """
    c = constants(prec)
    if prec.is_double:
        rel = abs(math.exp(c.euler_gamma) - c.exp_gamma) / c.exp_gamma
        tol = 1e-15
    else:
        with mpmath.workdps(prec.digits):
            rel = max(
                abs(c.euler_gamma / mpmath.mpf(EULER_GAMMA_STR) - 1),
                abs(c.exp_gamma / mpmath.mpf(EXP_GAMMA_STR) - 1),
            )
            tol = mpmath.mpf(10) ** -48
    if not rel < tol:
        raise AccuracyError(f"constant self-check failed: rel={rel}")


# Scalar kernels that dispatch on the precision mode.  Code written against
# these works unchanged for floats and mpmath reals.

def real(x, prec: Precision = DOUBLE):
    """Coerce x (int, float, str) to the working real type."""
    if prec.is_double:
        return float(x)
    with mpmath.workdps(prec.digits):
        return mpmath.mpf(x)


def rlog(x, prec: Precision = DOUBLE):
    if prec.is_double:
        return math.log(x)
    with mpmath.workdps(prec.digits):
        return mpmath.log(x)
