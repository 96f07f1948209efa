"""Error types shared across the package.

Precondition and domain violations raise plain ``ValueError`` with a
descriptive message.  ``AccuracyError`` is reserved for numerical failures
(quadrature that will not converge, an evaluator whose internal error
estimate exceeds its contract): callers that can retry with better
parameters may catch it, and the CLI maps it to a distinct exit code.
"""

import math


class AccuracyError(RuntimeError):
    """A numerical routine could not meet its accuracy contract."""


def count_text(count: int) -> str:
    """A count for a size refusal: exact below 1e15, where a limit it is
    compared with stays readable, to 3 digits up to the double range, and
    as its number of decimal digits past it."""
    if abs(count) < 10**15:
        return str(count)
    try:
        return f"{count:.3g}"
    except OverflowError:  # an int past the double range
        return f"a {_decimal_digits(abs(count))}-digit integer"


def _decimal_digits(n: int) -> int:
    """The decimal digits of n >= 1, exact, from its bit length: str(n)
    refuses an n of more than 4300 digits.  As n >= 2^(bits-1), the
    estimate (with a margin for its rounding) is at most the count, and
    n < 2^bits puts it at most two short."""
    digits = int((n.bit_length() - 1) * math.log10(2) * (1 - 1e-12)) + 1
    while n >= 10**digits:
        digits += 1
    return digits
