"""Error types shared across the package.

Precondition and domain violations raise plain ``ValueError`` with a
descriptive message.  ``AccuracyError`` is reserved for numerical failures
(quadrature that will not converge, an evaluator whose internal error
estimate exceeds its contract): callers that can retry with better
parameters may catch it, and the CLI maps it to a distinct exit code.
"""


class AccuracyError(RuntimeError):
    """A numerical routine could not meet its accuracy contract."""


def count_text(count: int) -> str:
    """A count for a size refusal: exact below 1e15, where a limit it is
    compared with stays readable, and to 3 digits above."""
    if abs(count) < 10**15:
        return str(count)
    try:
        return f"{count:.3g}"
    except OverflowError:  # an int past the double range
        return f"a {len(str(count))}-digit integer"
