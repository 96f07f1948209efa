"""Divisor-closed resonator sets and their weighted reciprocal sums.

The resonator is built from the integer P = prod_{p<=x} p^(b-1); the set
M of its divisors is divisor-closed, has exactly b^pi(x) elements, and
every k in M appears as a divisor of w(k) = prod_{p<=x} (b - v_p(k))
members of M.  The central quantity is

    S(x; l) = sum_{m in M} sum_{k|m} (log k)^l / k
            = sum_{k in M} w(k) (log k)^l / k,

computed here by two independent routes: the collapsed weighted sum over
enumerated elements (:func:`S_brute`), and the l-th derivative of the
Euler product via jets (:func:`S_jet`), which is the only route that
scales to x = 10^4, b = 10^3.  The tests check both against the literal
nested double sum over m in M and k | m.

Layer decompositions M_0 = {1} <= M_1 <= ... <= M_J = M (by prime
smoothness thresholds x^(j/J)) give the partition lower bound

    S(x; l) >= (log x)^l sum_j ((j-1)/J)^l [L(j) - L(j-1)],

with L(i) = sum_{k in M_i} w(k)/k admitting the exact product form
b^pi(x) * prod_{p <= x^(i/J)} sum_v (1 - v/b) p^(-v).  S/|M| and every
L(i)/|M| are read from one fold of that Euler product's jets
(:func:`_euler_fold`).

Convention: the k=1 term contributes (log 1)^0 = 1 to S(x; 0).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import count_text
from .jets import (
    derivative_from_jet,
    jet_identity,
    jet_product,
    local_factor_jet,
    refuse_double_order,
)
from .precision import DOUBLE, Frozen, Precision, exp_gamma, real, rlog
from .primes import MAX_SIEVE_LIMIT, iterated_log

ENUMERATION_CAP = 10**6
_SCALE_ADVICE = (
    "use high precision (--precision) or the value normalized by |M|"
)


@functools.lru_cache(maxsize=64)
def _primes_upto(limit: int) -> tuple[int, ...]:
    from .primes import sieve_primes

    return sieve_primes(limit)


class ResonatorSpec(Frozen):
    """Parameters (x, b, J): smoothness bound, exponent bound + 1, layers."""

    _fields = ("x", "b", "J")

    def __init__(self, x: float, b: int, J: int = 1):
        if not (math.isfinite(x) and x >= 2):
            raise ValueError(f"x must be finite and >= 2, got {x}")
        for name, value in (("b", b), ("J", J)):
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        self._init(x, b, J)

    @property
    def primes(self) -> tuple[int, ...]:
        return _primes_upto(int(math.floor(self.x)))

    def layer_primes(self, i: int) -> tuple[int, ...]:
        """Primes p <= x^(i/J); boundary primes are included."""
        if not 0 <= i <= self.J:
            raise ValueError(f"layer index {i} outside [0, {self.J}]")
        if i == self.J:
            return self.primes
        threshold = self.x ** (i / self.J)
        return tuple(p for p in self.primes if p <= threshold)


def resonator_cardinality(spec: ResonatorSpec) -> int:
    """|M| = b^pi(x), exact."""
    return spec.b ** len(spec.primes)


def max_element(spec: ResonatorSpec) -> int:
    """The largest element of M (every member divides it), exact."""
    if spec.b == 1:  # M = {1}
        return 1
    v = 1
    for p in spec.primes:
        v *= p ** (spec.b - 1)
    return v


def _refuse_over_cap(primes: tuple[int, ...], b: int, cap: int) -> None:
    if b ** len(primes) > cap:
        raise ValueError(
            f"|M| = {b}^{len(primes)} exceeds enumeration cap {cap}; "
            "raise cap explicitly if this is intentional"
        )


def _refuse_by_pi_bound(spec: ResonatorSpec, log2_limit, limit: str, exc):
    """Refuses before the sieve a |M| = b^pi(x) >= 2^log2_limit, by
    pi(x) > x/ln x for x >= 17 (Rosser & Schoenfeld, Illinois J. Math.
    1962).  As pi(x) > n, the exact test has a factor b >= 2 to spare.
    The sieve refuses an x past its limit itself."""
    x, b = spec.x, spec.b
    if not 17 <= x <= MAX_SIEVE_LIMIT:
        return
    n = math.floor(x / math.log(x) * (1 - 1e-9))  # less a rounding margin
    if n * math.log2(b) >= log2_limit:
        raise exc(
            f"|M| = b^pi(x) > {b}^{n} at --x {x:g} --b {b}, by pi(x) > "
            f"x/ln x (Rosser & Schoenfeld 1962), exceeds {limit}"
        )


def _times(count: int, value, prec: Precision):
    """count * value, for an exact factor of |M| = b^pi(x) and a value
    normalized by it; refuses a count or a product beyond the double
    range."""
    if prec.is_double:
        try:
            product = float(count) * value
        except OverflowError:  # the count alone is past the double range
            product = math.inf
        if not math.isfinite(product):
            raise OverflowError(
                f"b^pi(x) = {count_text(count)} times the value normalized "
                f"by |M| exceeds the double range; {_SCALE_ADVICE}"
            )
        return product
    return real(count, prec) * value


def enumerate_M(spec: ResonatorSpec, cap: int = ENUMERATION_CAP) -> list[int]:
    """All elements of M, the divisors of P, each exactly once, in
    lexicographic exponent order (first prime slowest).  Refuses when
    b^pi(x) exceeds ``cap``."""
    _refuse_over_cap(spec.primes, spec.b, cap)
    elements = [1]
    if spec.b == 1:  # M = {1}
        return elements
    for p in spec.primes:
        elements = [m * p**e for m in elements for e in range(spec.b)]
    return elements


def _weighted_sum(
    primes: tuple[int, ...], b: int, cap: int, prec: Precision, ell: int
):
    """sum w(k) (log k)^l / k over the divisors k of prod p^(b-1), with
    w(k) = prod_p (b - v_p(k)), built prime by prime.

    Double mode sums float arrays; elements beyond the double range come
    out as k = inf, and their terms, below double resolution of any total
    here, as 0; an ell whose terms overflow is refused.  High precision
    sums exact k and w in descending order of k.
    """
    _refuse_over_cap(primes, b, cap)
    if prec.is_double:
        k = np.array([1.0])
        logk = np.array([0.0])
        w = np.array([1.0])
        wfac = (b - np.arange(b)).astype(np.float64)
        for p in primes:
            with np.errstate(over="ignore"):
                pw = np.power(float(p), np.arange(b, dtype=np.float64))
                k = (k[:, None] * pw[None, :]).ravel()
            logpw = np.arange(b) * math.log(p)
            logk = (logk[:, None] + logpw[None, :]).ravel()
            w = (w[:, None] * wfac[None, :]).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(w * logk**ell / k))
        if not math.isfinite(total):
            raise OverflowError(
                f"the terms w(k) (log k)^{ell}/k overflow a double at "
                f"ell={ell}; use high precision (--precision)"
            )
        return total
    elements = [(1, 1, real(0, prec))]
    for p in primes:
        logp = rlog(p, prec)
        elements = [
            (kv * p**e, wv * (b - e), logkv + e * logp)
            for kv, wv, logkv in elements
            for e in range(b)
        ]
    elements.sort(key=lambda t: t[0], reverse=True)
    acc = real(0, prec)
    for kv, wv, logkv in elements:
        acc += wv * logkv**ell / kv
    return acc


def S_brute(
    spec: ResonatorSpec,
    ell: int,
    cap: int = ENUMERATION_CAP,
    prec: Precision = DOUBLE,
) -> float:
    """S(x; l) as the collapsed sum over enumerated M: sum w(k)(log k)^l / k."""
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    _refuse_by_pi_bound(spec, math.log2(cap), f"enumeration cap {cap}",
                        ValueError)
    return _weighted_sum(spec.primes, spec.b, cap, prec, ell)


def _euler_fold(spec: ResonatorSpec, order: int, prec: Precision, layers):
    """Order-``order`` jets at s=1 of prod_{p <= x^(i/J)} f_p(s), one for
    each layer index i in ``layers`` (ascending), with the normalized
    local factor f_p(s) = sum_{v<b} (1 - v/b) p^(-v*s).

    One fold over the ascending primes: each local jet is divided by b,
    and the running product is kept where a layer ends (layers are
    prefixes of the ascending primes).  The product of the last layer
    does not depend on the others; c_0 of the i-th is L(i)/|M|.  At
    b = 1 every normalized local factor is 1, and no jet is built.
    """
    if order < 0:
        raise ValueError(f"ell must be >= 0, got {order}")
    refuse_double_order(order, prec)
    b = spec.b
    products = []
    acc = jet_identity(order, prec)
    done = 0
    for i in layers:
        end = len(spec.layer_primes(i))
        # generators: one layer's jets are folded, not held, at once
        local = (local_factor_jet(p, b, order, prec)
                 for p in (spec.primes[done:end] if b > 1 else ()))
        normalized = (tuple(c / b for c in j) for j in local)
        acc = jet_product(itertools.chain([acc], normalized), prec=prec)
        products.append(acc)
        done = end
    return products


def _s_over(product: tuple, ell: int, prec: Precision):
    """(-1)^l F^(l)(1) from the jet of the normalized product F; refuses
    a value beyond the double range in double mode."""
    # + 0 turns the -0.0 of an odd ell at b = 1 into 0.0
    value = (-1) ** ell * derivative_from_jet(product, ell) + 0
    if prec.is_double and not math.isfinite(value):
        raise OverflowError(
            f"S(x; l)/|M| at ell={ell} exceeds the double range; use high "
            "precision (--precision)"
        )
    return value


def s_over_cardinality_jet(
    spec: ResonatorSpec, ell: int, prec: Precision = DOUBLE
):
    """S(x; l) / |M| via the l-th derivative of the normalized Euler
    product; overflow-safe at any scale the jet route can reach."""
    (product,) = _euler_fold(spec, ell, prec, [spec.J])
    return _s_over(product, ell, prec)


def S_jet(spec: ResonatorSpec, ell: int, prec: Precision = DOUBLE):
    """S(x; l) = (-1)^l F^(l)(1) with F the Euler product of local factors.

    In double mode the value overflows for specs where b^pi(x) exceeds
    the double range; use high precision or the normalized ratio then.
    """
    if prec.is_double:  # float(b^pi(x)) overflows from 2^1024 on
        _refuse_by_pi_bound(spec, 1024, f"the double range; {_SCALE_ADVICE}",
                            OverflowError)
    s_norm = s_over_cardinality_jet(spec, ell, prec)
    return _times(resonator_cardinality(spec), s_norm, prec)


def layer_product(spec: ResonatorSpec, i: int, prec: Precision = DOUBLE):
    """prod_{p <= x^(i/J)} sum_{v=0}^{b-1} (1 - v/b) p^(-v): the layer sum
    normalized by |M|, c_0 of the Euler fold.  Equals 1 at i=0."""
    (product,) = _euler_fold(spec, 0, prec, [i])
    return product[0]


def layer_sum(spec: ResonatorSpec, i: int, prec: Precision = DOUBLE):
    """sum_{k in M_i} w(k)/k by the exact product form b^pi(x) * prod(...)."""
    prod = layer_product(spec, i, prec)
    return _times(resonator_cardinality(spec), prod, prec)


def layer_sum_brute(
    spec: ResonatorSpec,
    i: int,
    cap: int = ENUMERATION_CAP,
    prec: Precision = DOUBLE,
) -> float:
    """sum_{k in M_i} w(k)/k by enumeration of M_i (oracle for layer_sum).

    The weight w is taken with respect to the full spec, so the layer sum
    factors as b^(#primes beyond the threshold) times a sum over the
    prefix set.
    """
    prefix = spec.layer_primes(i)
    rest = len(spec.primes) - len(prefix)
    prefix_sum = _weighted_sum(prefix, spec.b, cap, prec, 0)
    return _times(spec.b**rest, prefix_sum, prec)


def _partition_over(products, spec: ResonatorSpec, ell: int, prec):
    """The partition bound over |M| from the fold's products at the layer
    boundaries 0..J, whose c_0 are the L(i)/|M|."""
    layers = [product[0] for product in products]
    logx = rlog(spec.x, prec)
    J = spec.J
    total = real(0, prec)
    for j in range(1, J + 1):
        frac = real(j - 1, prec) / J
        total += frac**ell * (layers[j] - layers[j - 1])
    return logx**ell * total


def partition_over_cardinality(
    spec: ResonatorSpec, ell: int, prec: Precision = DOUBLE
):
    """Partition lower bound for S(x; l), divided by |M| (overflow-safe)."""
    products = _euler_fold(spec, ell, prec, range(spec.J + 1))
    return _partition_over(products, spec, ell, prec)


def partition_lower_bound(
    spec: ResonatorSpec, ell: int, prec: Precision = DOUBLE
):
    """(log x)^l sum_j ((j-1)/J)^l [L(j) - L(j-1)]; always <= S(x; l)."""
    norm = partition_over_cardinality(spec, ell, prec)
    return _times(resonator_cardinality(spec), norm, prec)


class RiemannBracket(NamedTuple):
    lower: float
    integral: float
    upper: float


def riemann_sum_bracket(ell: int, J: int) -> RiemannBracket:
    """Left Riemann sum of u^l on [0,1] with J panels, bracketing 1/(l+1)."""
    if ell < 0 or J < 1:
        raise ValueError(f"need ell >= 0 and J >= 1, got ell={ell}, J={J}")
    j = np.arange(J, dtype=np.float64)
    lower = float(np.sum((j / J) ** ell)) / J
    return RiemannBracket(lower, 1.0 / (ell + 1), lower + 1.0 / J)


def riemann_lower_prefix(ell: int, J_max: int) -> np.ndarray:
    """Vectorized left Riemann sums: entry J-1 holds the J-panel sum.

    Prefix-sum route used by the bulk bracket sweep; agrees with
    :func:`riemann_sum_bracket` pointwise.
    """
    if ell < 0 or J_max < 1:
        raise ValueError(f"need ell >= 0 and J_max >= 1, got {ell}, {J_max}")
    j = np.arange(J_max, dtype=np.float64)
    powers = j**ell
    csum = np.cumsum(powers)
    J = np.arange(1, J_max + 1, dtype=np.float64)
    return csum / J ** (ell + 1)


def yang_factor(ell: int) -> float:
    """(1 + 1/l)^l: the constant-improvement factor; undefined at l=0."""
    if ell < 1:
        raise ValueError(f"factor undefined for ell={ell}; needs ell >= 1")
    return math.exp(ell * math.log1p(1.0 / ell))


def bound_constants(ell: int, T: float) -> tuple[float, float]:
    """The improved main term e^gamma/(l+1) (log_2 T)^(l+1) and Yang's
    e^gamma l^l/(l+1)^(l+1) (log_2 T - log_3 T)^(l+1), in double.

    Yang's coefficient is written e^gamma/((l+1) (1+1/l)^l), 1 at l=0, so
    no intermediate leaves the double range before the result does.
    Needs ell >= 0 and T > e^e, where log_3 T > 0."""
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if T <= math.exp(math.e):
        raise ValueError(f"need T > e^e, got {T}")
    eg = exp_gamma()
    log2T = iterated_log(T, 2)
    log3T = iterated_log(T, 3)
    new = eg / (ell + 1) * log2T ** (ell + 1)
    factor = yang_factor(ell) if ell >= 1 else 1.0
    yang = eg / ((ell + 1) * factor) * (log2T - log3T) ** (ell + 1)
    return new, yang


class PropositionReport(NamedTuple):
    """Normalized sum vs its asymptotic target, with the error budget."""

    S_over_M: float
    target: float
    ratio: float
    error_budget: float
    partition_bound_over_M: float


def proposition_report(
    spec: ResonatorSpec, ell: int, prec: Precision = DOUBLE
) -> PropositionReport:
    """Compare S(x; l)/|M| against (e^gamma/(l+1)) (log x)^(l+1).

    The error budget 1/J + J log_2(x)/b + J^2/log x is the finite-scale
    size of the neglected terms; the ratio approaches 1 from below as the
    budget shrinks.
    """
    products = _euler_fold(spec, ell, prec, range(spec.J + 1))
    s_over = _s_over(products[-1], ell, prec)
    part = _partition_over(products, spec, ell, prec)
    logx = rlog(spec.x, prec)
    target = exp_gamma(prec) / (ell + 1) * logx ** (ell + 1)
    loglogx = rlog(logx, prec)
    budget = (
        real(1, prec) / spec.J
        + spec.J * loglogx / spec.b
        + real(spec.J, prec) ** 2 / logx
    )
    return PropositionReport(
        S_over_M=s_over,
        target=target,
        ratio=s_over / target,
        error_budget=budget,
        partition_bound_over_M=part,
    )
