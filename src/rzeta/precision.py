"""Precision contract and mathematical constants.

Every real-valued routine in the combinatorial core (primes, jets,
resonator sums) accepts a :class:`Precision`.  The default is hardware
double; a high-precision mode backed by mpmath with 50 to
:data:`MAX_DIGITS` significant decimal digits can be selected per run
(the ``--precision`` flag of the ``ssum`` and ``prop`` commands).
High-precision mode also sidesteps double-range overflow for resonator
cardinalities like ``1000**1229``.

High-precision reals come from a private mpmath context, one per digit
count (:func:`_context`), never from mpmath's global one.  Such a real
carries its context, so every operation on it is rounded at that
context's precision, whatever mpmath's global precision is: no caller
sets a working precision, and none can forget to.  mpmath rounds an
operation at the precision of its left operand (a plain int or float
on the left defers to the real on the right); this package creates no
global-context real, so no operation here is rounded at mpmath's
global precision.

In double mode Euler's constant and ``e**gamma`` are the stored
50-digit literals rounded to double.  In high-precision mode they are
mpmath's ``euler`` and its exponential at the working precision, so
every accepted digit count gets that many correct digits;
:func:`check_constants` cross-checks either against the literals.

This is the one module that imports mpmath, and only inside
:func:`_context`: a double-precision run never loads it.  Nor does it
import typing, about 11 ms of a start-up that has not loaded it; its
:class:`Frozen` gives :class:`Precision`, ``ResonatorSpec`` and
``EvalPoint`` their value semantics without generating code at import.
"""

import functools
import math

from .errors import AccuracyError

# 50 significant digits each; see check_constants for the consistency test.
EULER_GAMMA_STR = "0.57721566490153286060651209008240243104215933593992"
EXP_GAMMA_STR = "1.7810724179901979852365041031071795491696452143034"

EULER_GAMMA = float(EULER_GAMMA_STR)
EXP_GAMMA = float(EXP_GAMMA_STR)

MAX_DIGITS = 1000  # refusal above: run time grows faster than the digits


class Frozen:
    """Base of the immutable value types.  A subclass names its fields in
    ``_fields`` and sets them once, in ``__init__``, through
    :meth:`_init`; instances of one class are equal, and hash equal,
    when their fields are, and no field can be set or deleted after."""

    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__name__}({fields})"


class Precision(Frozen):
    """Arithmetic mode: ``digits=None`` means hardware double, otherwise
    mpmath reals with that many significant decimal digits (50 to
    MAX_DIGITS)."""

    _fields = ("digits",)

    def __init__(self, digits: int | None = None):
        if digits is not None and not 50 <= digits <= MAX_DIGITS:
            raise ValueError(
                f"high-precision mode requires 50 to {MAX_DIGITS} digits, "
                f"got {digits}"
            )
        self._init(digits)

    @property
    def is_double(self) -> bool:
        return self.digits is None

    @property
    def effective_digits(self) -> int:
        return 17 if self.digits is None else self.digits


DOUBLE = Precision()


@functools.cache
def _context(digits: int):
    """The private mpmath context whose reals carry ``digits``
    significant digits; one per digit count, made on first use."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = digits
    return ctx


def exp_gamma(prec: Precision = DOUBLE):
    """e**gamma at the requested precision."""
    if prec.is_double:
        return EXP_GAMMA
    ctx = _context(prec.digits)
    return ctx.exp(+ctx.euler)


def check_constants(prec: Precision = DOUBLE) -> None:
    """Self-check: gamma and exp(gamma) must reproduce the 50-digit
    literals, to double rounding or to 48 digits in high precision.

    Raises :class:`AccuracyError` on drift; cheap enough to run at the
    start of every CLI command and in the test suite.
    """
    eg = exp_gamma(prec)
    if prec.is_double:
        rel = abs(math.exp(EULER_GAMMA) - eg) / eg
        tol = 1e-15
    else:
        ctx = _context(prec.digits)
        rel = max(
            abs(+ctx.euler / ctx.mpf(EULER_GAMMA_STR) - 1),
            abs(eg / ctx.mpf(EXP_GAMMA_STR) - 1),
        )
        tol = ctx.mpf(10) ** -48
    if not rel < tol:
        raise AccuracyError(f"constant self-check failed: rel={rel}")


# Scalar kernels that dispatch on the precision mode.  Code written against
# these works unchanged for floats and mpmath reals.

def real(x, prec: Precision = DOUBLE):
    """Coerce x (int, float, str) to the working real type."""
    if prec.is_double:
        return float(x)
    return _context(prec.digits).mpf(x)


def rlog(x, prec: Precision = DOUBLE):
    if prec.is_double:
        return math.log(x)
    return _context(prec.digits).log(x)


def rsum(terms, prec: Precision = DOUBLE):
    """The sum of ``terms``, rounded once: math.fsum or mpmath.fsum."""
    if prec.is_double:
        return math.fsum(terms)
    return _context(prec.digits).fsum(terms)


def rdot(a, b, prec: Precision = DOUBLE):
    """sum_i a_i b_i: in double the fsum of the rounded products, in high
    precision mpmath.fdot, whose products are exact."""
    if prec.is_double:
        return math.fsum(x * y for x, y in zip(a, b))
    return _context(prec.digits).fdot(a, b)


def real_text(value, prec: Precision) -> str:
    """A high-precision real as a string of its working digits, the form
    a JSON payload carries it in; any other value is refused."""
    if not prec.is_double:
        ctx = _context(prec.digits)
        if isinstance(value, ctx.mpf):
            return ctx.nstr(value, prec.digits)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
