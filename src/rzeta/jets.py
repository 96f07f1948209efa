"""Truncated Taylor ("jet") arithmetic at a real center.

A jet stores Taylor-normalized coefficients c_k = f^(k)(center)/k!, so
products are truncated Cauchy convolutions and magnitudes stay tame even
when raw derivatives grow like (log x)^l * l!.  The one consumer that
matters is the Euler product

    F(s) = prod_{p<=x} sum_{v=0}^{b-1} (b-v) * p^(-v*s)

whose l-th derivative at s=1 equals (-1)^l times the weighted divisor
sum computed combinatorially in :mod:`rzeta.resonator`; jets make that
derivative exact (up to rounding) for thousands of primes where
enumeration is hopeless.

Only products are needed, so there is no general composition or
division here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import mpmath

from .precision import DOUBLE, Precision, real, rlog

# 170! is the largest factorial below the double range.
MAX_DOUBLE_ORDER = 170


@dataclass(frozen=True)
class Jet:
    """Taylor-normalized coefficients of an analytic function at a center."""

    center: object
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated Cauchy product; centers and orders must match."""
    if a.center != b.center or a.order != b.order:
        raise ValueError(
            f"jet shape mismatch: center/order ({a.center},{a.order}) vs "
            f"({b.center},{b.order})"
        )
    L = a.order
    ca, cb = a.coeffs, b.coeffs
    if isinstance(ca[0], float) and isinstance(cb[0], float):
        out = tuple(
            math.fsum(ca[i] * cb[k - i] for i in range(k + 1))
            for k in range(L + 1)
        )
    else:
        out = tuple(mpmath.fdot(ca[: k + 1], cb[k::-1]) for k in range(L + 1))
    return Jet(a.center, out)


def jet_identity(center, order: int, prec: Precision = DOUBLE) -> Jet:
    """The multiplicative identity jet (constant function 1)."""
    one = real(1, prec)
    zero = real(0, prec)
    return Jet(center, (one,) + (zero,) * order)


def jet_product(factors: Iterable[Jet], *, prec: Precision = DOUBLE) -> Jet:
    """Fold a non-empty iterable of jets into their product, in the given
    order, at the working precision ``prec``; a generator is read as it
    is folded, so its jets need not all be held at once."""
    with prec.context():
        rest = iter(factors)
        acc = next(rest, None)
        if acc is None:
            raise ValueError("a jet product needs at least one factor")
        for f in rest:
            acc = jet_mul(acc, f)
    return acc


def refuse_double_order(order: int, prec: Precision) -> None:
    """Double mode refuses an order above MAX_DOUBLE_ORDER: the derivative
    ell! c_ell of such a jet needs an ell! beyond the double range."""
    if prec.is_double and order > MAX_DOUBLE_ORDER:
        raise ValueError(
            f"ell={order} exceeds {MAX_DOUBLE_ORDER}: ell! leaves the double "
            "range; use high precision (--precision)"
        )


def local_factor_jet(
    p: int, b: int, order: int, prec: Precision = DOUBLE
) -> Jet:
    """Jet at s=1 of the local Euler factor sum_{v=0}^{b-1} (b-v) p^(-v*s).

    Each term p^(-v*s) expands with derivatives (-v log p)^k p^(-v), so
    c_k = sum_v (b-v) (-v log p)^k p^(-v) / k!; the terms of c_k are those
    of c_(k-1) times -v log p / k, and p^(-v) is built by repeated
    division.

    Cutoff, the one truncation of the Euler product: the sum over v stops
    at the first v past the peak v log p = order of (v log p)^order p^(-v)
    at which the term bound max(1, v log p)^order p^(-v) falls below
    10^-(digits + 9), digits being the working precision (17 in double).
    Each omitted term of each c_k/b, k <= order, lies below the bound at
    its v, and past the peak the bound decreases in v; c_0/b is at least
    1.  The rule depends on the order: at order 40 the peak term of p = 2
    is about 5e46, and a cutoff on p^(-v) alone drops terms far above the
    working precision.

    Double mode refuses an order above MAX_DOUBLE_ORDER.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    refuse_double_order(order, prec)
    # The bound's log is order log(max(1, x)) - x at x = v log p, so no v
    # with x <= max(order, digits_floor) stops the sum.
    digits_floor = (prec.effective_digits + 9) * math.log(10)
    log_p = math.log(p)
    stop = int(max(order, digits_floor) / log_p) + 1
    while order * math.log(stop * log_p) - stop * log_p >= -digits_floor:
        stop += 1
    with prec.context():
        terms = []  # (b-v) p^(-v), then (b-v) (-v log p)^k p^(-v) / k!
        pv = real(1, prec)
        for v in range(min(b, stop)):
            terms.append((b - v) * pv)
            pv = pv / p
        acc = math.fsum if prec.is_double else mpmath.fsum
        coeffs = [acc(terms)]
        if order > 0:
            logp = rlog(p, prec)
            slopes = [-v * logp for v in range(len(terms))]
            for k in range(1, order + 1):
                terms = [t * s / k for t, s in zip(terms, slopes)]
                coeffs.append(acc(terms))
        return Jet(real(1, prec), tuple(coeffs))


def derivative_from_jet(jet: Jet, ell: int):
    """Recover f^(ell)(center) = ell! * c_ell."""
    if ell < 0:
        raise ValueError(f"derivative order must be >= 0, got {ell}")
    if ell > jet.order:
        raise ValueError(
            f"derivative order {ell} exceeds jet order {jet.order}"
        )
    return math.factorial(ell) * jet.coeffs[ell]
