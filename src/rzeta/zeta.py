"""Zeta derivatives on the 1-line, two independent ways.

The fast route is the truncated Dirichlet polynomial

    P(t) = sum_{n <= T} (log n)^l / n^(1+it),

which approximates (-1)^l zeta^(l)(1+it) with error O((log log T)^l) for
T <= t <= 2T and l up to (log T)/(log log T).  The oracle route is
Euler-Maclaurin evaluation of zeta itself plus Cauchy-circle
differentiation (trapezoid on a circle around s0, exponentially accurate
for analytic integrands, with a mandatory two-grid agreement check).
One cached ring serves every order l <= 8 at a height.  Its head sum
forms n^(-s0) once per n, with the phase t log n reduced in long double,
and takes the factors n^(-d) of all 128 nodes from a quarter of the
circle; against 30-digit mpmath it is within about 1e-10 relative up to
t = 2e5.
:func:`approx_error_probe` measures the gap between the two on seeded
pseudo-random heights and reports its ratio to the predicted size.

The probe's sampler is a fixed 64-bit linear congruential generator
(Knuth's MMIX constants), so identical seeds give identical heights on
any platform; see :class:`LinearGenerator`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from .errors import AccuracyError, count_text
from .gridsum import exp_sum_at

MAX_DERIVATIVE_ORDER = 8

# The oracle's contract: Euler-Maclaurin order, the refusal bound on its
# first omitted term, and the Cauchy circle (radius, nodes of the coarse
# rule) that turns zeta values into derivatives.
EM_ORDER = 12
_EM_REFUSAL_BOUND = 1e-8
RING_RADIUS = 0.25
RING_NODES = 64

# Refusal before allocating: the most terms a Dirichlet polynomial or an
# Euler-Maclaurin head sum may have (8 bytes or more each).
MAX_SUM_TERMS = 10_000_000
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)

# The ring head's block of n (under 2 kB of temporaries per n at 128 nodes)
# and 2 pi to long-double precision, as a double plus its rounding error.
_HEAD_BLOCK = 2048
_TWO_PI = np.longdouble(2 * math.pi) + np.longdouble(2.4492935982947064e-16)


class RangeAdvisory(UserWarning):
    """Evaluation outside the range where the polynomial is known to
    approximate the zeta derivative (advisory only)."""


@dataclass(frozen=True)
class EvalPoint:
    """A height t, derivative order, and polynomial cutoff T."""

    t: float
    ell: int
    cutoff: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not (math.isfinite(self.cutoff) and self.cutoff >= 1):
            raise ValueError(
                f"cutoff must be finite and >= 1, got {self.cutoff}"
            )
        if not 0 <= self.ell <= MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"ell={self.ell} outside [0, {MAX_DERIVATIVE_ORDER}]"
            )

    def warn_if_off_range(self):
        T = self.cutoff
        if T > 3:
            ell_max = math.log(T) / math.log(math.log(T))
            if self.ell > ell_max:
                warnings.warn(
                    f"ell={self.ell} exceeds the approximation range "
                    f"(log T)/(log_2 T) = {ell_max:.2f}",
                    RangeAdvisory,
                    stacklevel=3,
                )
        if not T <= abs(self.t) <= 2 * T and self.t != 0:
            warnings.warn(
                f"t={self.t} outside [T, 2T] = [{T}, {2 * T}]",
                RangeAdvisory,
                stacklevel=3,
            )


def _double_range_refusal(terms: int, ell: int) -> ValueError:
    return ValueError(
        f"Dirichlet coefficients (log n)^{ell}/n for n <= {terms} leave "
        f"the double range at ell={ell}"
    )


def dirichlet_terms(cutoff: float, ell: int) -> int:
    """floor(cutoff), the term count of P, after refusing more than
    MAX_SUM_TERMS terms or an ell whose coefficients (log n)^l/n, or
    their sum, leave the double range.  Decided in log space, without
    the coefficients: (log n)^l is largest at n = N = floor(cutoff), and
    the sum of the unimodal terms is at most (log N)^(l+1)/(l+1) plus
    the largest term, at n = e^l or at N."""
    terms = math.floor(cutoff)
    if terms > MAX_SUM_TERMS:
        raise ValueError(
            f"Dirichlet polynomial of {count_text(terms)} terms exceeds the "
            f"limit of {MAX_SUM_TERMS}"
        )
    if terms >= 2 and ell > 0:
        log_n = math.log(terms)
        loglog = math.log(log_n)
        top = min(ell, log_n)  # log n at the largest term
        total = np.logaddexp(
            (ell + 1) * loglog - math.log(ell + 1), ell * math.log(top) - top
        )
        if max(ell * loglog, total) > _LOG_DBL_MAX:
            raise _double_range_refusal(terms, ell)
    return terms


def dirichlet_coefficients(cutoff: float, ell: int):
    """(log n, (log n)^l / n) for n <= cutoff, ascending n: the
    frequencies and coefficients of the polynomial P.  Refuses, with
    :func:`dirichlet_terms`, before allocating, and again if the sum is
    not finite."""
    terms = dirichlet_terms(cutoff, ell)
    n = np.arange(1, terms + 1, dtype=np.float64)
    logn = np.log(n)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = logn**ell / n
        total = np.sum(coeffs)
    if not np.isfinite(total):
        raise _double_range_refusal(terms, ell)
    return logn, coeffs


def dirichlet_poly(point: EvalPoint, check_range: bool = False) -> complex:
    """sum_{n <= T} (log n)^l n^(-1) exp(-i t log n), ascending n, fsum."""
    if check_range:
        point.warn_if_off_range()
    logn, w = dirichlet_coefficients(point.cutoff, point.ell)
    return exp_sum_at(logn, w, point.t)


# ------------------------------------------------------- Euler-Maclaurin --

def _em_cut_for(im_s: float) -> int:
    return max(64, int(math.ceil(0.35 * abs(im_s))) + 32)


def _em_cut(height: float, em_order: int) -> int:
    """The head length for heights up to ``height``; every Euler-Maclaurin
    head, general or ring, is refused past MAX_SUM_TERMS here."""
    cut = _em_cut_for(height) + 2 * em_order
    if cut > MAX_SUM_TERMS:
        raise ValueError(
            f"height t = {height:.6g} needs an Euler-Maclaurin head sum "
            f"of {count_text(cut)} terms, over the limit of {MAX_SUM_TERMS}"
        )
    return cut


@functools.lru_cache(maxsize=None)
def _bernoulli_table(n: int) -> tuple:
    """Exact Bernoulli numbers B_0..B_n as fractions, computed once per n."""
    return tuple(Fraction(*mpmath.bernfrac(k)) for k in range(n + 1))


def _em_tail_terms(s: np.ndarray, cut: int, em_order: int):
    """Boundary + Bernoulli corrections for an array of s.  Raises
    AccuracyError where the bound on the first omitted term is too large:
    every Euler-Maclaurin evaluation is refused here and nowhere else."""
    N = float(cut)
    logN = math.log(N)
    npow = np.exp(-s * logN)  # N^(-s)
    tail = npow * N / (s - 1.0) + 0.5 * npow
    bern = _bernoulli_table(2 * em_order + 2)
    rising = s.copy()  # (s)_1 = s
    nshift = npow / N  # N^(-s-1)
    for r in range(1, em_order + 1):
        coef = float(bern[2 * r] / math.factorial(2 * r))
        tail = tail + coef * rising * nshift
        # extend rising factorial (s)_{2r-1} -> (s)_{2r+1}, N^(-s-2r+1) shift
        rising = rising * (s + 2 * r - 1) * (s + 2 * r)
        nshift = nshift / (N * N)
    next_coef = float(abs(bern[-1]) / math.factorial(2 * em_order + 2))
    sigma = s.real
    ratio = np.abs(s + 2 * em_order + 1) / (sigma + 2 * em_order + 1)
    err = next_coef * np.abs(rising) * np.abs(nshift) * ratio
    if np.any(err > _EM_REFUSAL_BOUND):
        raise AccuracyError(
            f"Euler-Maclaurin error estimate {float(np.max(err)):.3e} exceeds "
            f"{_EM_REFUSAL_BOUND}; raise cut or em_order"
        )
    return tail


def zeta_em_array(
    s: np.ndarray, em_order: int = EM_ORDER, cut: int | None = None
) -> np.ndarray:
    """Vectorized Euler-Maclaurin zeta for Re(s) > 0, s != 1."""
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s.real <= 0):
        raise ValueError("Euler-Maclaurin route needs Re(s) > 0")
    if np.any(s == 1):
        raise ValueError("zeta has a pole at s = 1")
    if em_order < 1:
        raise ValueError(f"em_order must be >= 1, got {em_order}")
    if cut is None:
        cut = _em_cut(float(np.max(np.abs(s.imag))), em_order)
    if not 2 <= cut <= MAX_SUM_TERMS:
        raise ValueError(f"cut must lie in [2, {MAX_SUM_TERMS}], got {cut}")

    chunk = max(1, 4_000_000 // max(1, s.size))
    n_all = np.arange(1, cut, dtype=np.float64)
    logn = np.log(n_all)
    flat = s.ravel()
    res = np.zeros_like(flat)
    for start in range(0, n_all.size, chunk):
        ln = logn[start : start + chunk]
        res += np.exp(-np.multiply.outer(flat, ln)).sum(axis=1)
    return (res + _em_tail_terms(flat, cut, em_order)).reshape(s.shape)


def zeta_em(
    s: complex, em_order: int = EM_ORDER, cut: int | None = None
) -> complex:
    """zeta(s) by Euler-Maclaurin summation with an internal error bound."""
    return complex(zeta_em_array(np.array([s]), em_order, cut)[0])


# ------------------------------------------------------- Cauchy circles --

def cauchy_ring(ell: int, radius: float, nodes: int):
    """Offsets r e^(i theta_j) of an n-node circle and the trapezoid weights
    l!/(n r^l) e^(-i l theta_j) that turn values on it into an l-th
    derivative.  The even nodes of a 2n-node ring are the n-node ring."""
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    scale = math.factorial(ell) / (nodes * radius**ell)
    return radius * np.exp(1j * theta), scale * np.exp(-1j * ell * theta)


def _weighted_fsum(vals: np.ndarray, weights: np.ndarray) -> complex:
    terms = vals * weights
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def cauchy_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    s0: complex,
    ell: int,
    radius: float = RING_RADIUS,
    nodes: int = RING_NODES,
) -> complex:
    """f^(ell)(s0) by the trapezoid rule on a circle of given radius.

    f must accept an array of complex points.  No convergence check here;
    :func:`zeta_deriv_cauchy` runs the two-grid test.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 nodes, got {nodes}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    offsets, weights = cauchy_ring(ell, radius, nodes)
    return _weighted_fsum(f(s0 + offsets), weights)


def _ring_head(s0: complex, offsets: np.ndarray, cut: int) -> np.ndarray:
    """sum_{n < cut} n^(-s0-d) at every offset d of a :func:`cauchy_ring`
    whose node count is a multiple of 4.

    n^(-s0) is formed once per n, with t log n reduced mod 2 pi in long
    double, so no phase carries the rounding of a sum s0 + d.  The factors
    n^(-d) come from the first quarter of the circle: d_(N-k) = conj(d_k)
    and d_(k+N/2) = -d_k make the rest conjugates and reciprocals.  n runs
    in blocks, so the working memory does not grow with the cut.
    """
    q = offsets.size // 4
    quarter = offsets[: q + 1]
    t = np.longdouble(s0.imag)
    # sums of [a_n, conj(a_n)] times n^(-d) and times n^(d), d in quarter
    at_d = np.zeros((q + 1, 2), dtype=np.complex128)
    at_minus_d = np.zeros((q + 1, 2), dtype=np.complex128)
    for start in range(1, cut, _HEAD_BLOCK):
        stop = min(start + _HEAD_BLOCK, cut)
        logn_ld = np.log(np.arange(start, stop, dtype=np.longdouble))
        phase = t * logn_ld
        phase -= np.rint(phase / _TWO_PI) * _TWO_PI
        logn = logn_ld.astype(np.float64)
        a = np.exp(-s0.real * logn - 1j * phase.astype(np.float64))
        pair = np.stack([a, a.conj()], axis=1)
        factors = np.exp(-np.multiply.outer(quarter, logn))
        at_d += factors @ pair
        at_minus_d += (1.0 / factors) @ pair
    (p, pc), (r, rc) = at_d.T, at_minus_d.T
    # node k in [0, q) is d_k, in [q, 2q) -conj(d_(2q-k)), in [2q, 3q)
    # -d_(k-2q), and in [3q, 4q) conj(d_(4q-k))
    return np.concatenate(
        [p[:q], rc[q:0:-1].conj(), r[:q], pc[q:0:-1].conj()]
    )


@functools.lru_cache(maxsize=2048)
def _zeta_ring_values(s0r: float, s0i: float) -> np.ndarray:
    """zeta on the 2*RING_NODES circle of radius RING_RADIUS around
    s0r + i s0i, as one read-only array cached per height and shared
    across derivative orders.  The head is :func:`_ring_head`, the tail
    that of :func:`zeta_em_array`."""
    s0 = complex(s0r, s0i)
    offsets, _ = cauchy_ring(0, RING_RADIUS, 2 * RING_NODES)
    s = s0 + offsets
    cut = _em_cut(float(np.max(np.abs(s.imag))), EM_ORDER)
    values = _ring_head(s0, offsets, cut) + _em_tail_terms(s, cut, EM_ORDER)
    values.flags.writeable = False
    return values


def zeta_deriv_cauchy(s0: complex, ell: int) -> complex:
    """zeta^(ell)(s0) on the RING_RADIUS circle with a mandatory
    RING_NODES vs 2*RING_NODES agreement check, to 1e-8 relative to the
    value (absolute below 1).

    One 2*RING_NODES ring is evaluated; the coarse rule is its even nodes
    at twice the weight.
    """
    s0 = complex(s0)
    radius, nodes = RING_RADIUS, 2 * RING_NODES
    if abs(s0 - 1.0) <= radius:
        raise ValueError(
            f"circle of radius {radius} around {s0} encloses the pole at 1"
        )
    if s0.real - radius <= 0:
        raise ValueError("circle dips into Re(s) <= 0, outside the oracle range")
    vals = _zeta_ring_values(s0.real, s0.imag)
    _, weights = cauchy_ring(ell, radius, nodes)
    fine = _weighted_fsum(vals, weights)
    coarse = 2.0 * _weighted_fsum(vals[::2], weights[::2])
    gap = abs(fine - coarse)
    if gap > 1e-8 * max(1.0, abs(fine)):
        raise AccuracyError(
            f"Cauchy two-grid disagreement {gap:.3e} > 1e-8 * max(1, "
            f"{abs(fine):.3e}) at s0={s0}, ell={ell}"
        )
    return fine


# ----------------------------------------------------------------- probe --

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class LinearGenerator:
    """Deterministic 64-bit LCG: state' = (6364136223846793005 * state
    + 1442695040888963407) mod 2^64; uniform deviates are the top 53 bits
    divided by 2^53.  Fixed here so every implementation of the probe
    draws identical heights from the same seed."""

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def uniform(self) -> float:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
        return (self.state >> 11) / float(1 << 53)


class ProbeResult(NamedTuple):
    max_abs_error: float
    bound_ratio: float


def approx_error_probe(
    T: float, sample_count: int, ell: int, seed: int
) -> ProbeResult:
    """Max |(-1)^l zeta^(l)(1+it) - P(t)| over seeded t in [T, 2T], and
    its ratio to (log log T)^l."""
    if T < 100:
        raise ValueError(f"probe needs T >= 100, got {T}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    gen = LinearGenerator(seed)
    heights = [T * (1.0 + gen.uniform()) for _ in range(sample_count)]
    sign = (-1) ** ell
    worst = 0.0
    for t in heights:
        poly = dirichlet_poly(EvalPoint(t, ell, T))
        oracle = zeta_deriv_cauchy(1 + 1j * t, ell)
        worst = max(worst, abs(sign * oracle - poly))
    denom = math.log(math.log(T)) ** ell
    return ProbeResult(worst, worst / denom)
