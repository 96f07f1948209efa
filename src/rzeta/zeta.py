"""Zeta derivatives on the 1-line, two independent ways.

The fast route is the truncated Dirichlet polynomial

    P(t) = sum_{n <= T} (log n)^l / n^(1+it),

which approximates (-1)^l zeta^(l)(1+it) with error O((log log T)^l) for
T <= t <= 2T and l up to (log T)/(log log T).  At one height its terms
are formed once, in blocks of n, so its memory does not grow with T, and
both its value and its local Taylor model sum them.  The oracle route is
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
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, count_text
from .precision import Frozen

MAX_DERIVATIVE_ORDER = 8

# The oracle's contract: Euler-Maclaurin order, the refusal bound on its
# first omitted term, and the Cauchy circle (radius, nodes of the coarse
# rule) that turns zeta values into derivatives.
EM_ORDER = 12
_EM_REFUSAL_BOUND = 1e-8
RING_RADIUS = 0.25
RING_NODES = 64

# Refusal before summing: the most terms a Dirichlet polynomial or an
# Euler-Maclaurin head sum may have.  The polynomial at one height and the
# oracle's ring head run in blocks of n, so for them the limit bounds time,
# not memory.
MAX_SUM_TERMS = 10_000_000
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)

# The polynomial's block of n at one height (about 100 bytes per n).
_POLY_BLOCK = 4096

# Order K of P's local Taylor model: within a scan step, pi/(4 log T), of
# t0 the omitted terms sum to below (pi/4)^19/19! sum c_n = 8e-20 sum c_n.
TAYLOR_ORDER = 18

# The ring head's block of n (under 2 kB of temporaries per n at 128 nodes)
# and 2 pi to long-double precision, as a double plus its rounding error.
_HEAD_BLOCK = 2048
_TWO_PI = np.longdouble(2 * math.pi) + np.longdouble(2.4492935982947064e-16)

# The general Euler-Maclaurin head's block: its s.size x n block of
# complex terms stays under this many bytes (one n per block once s alone
# is larger), so its working memory does not grow with the cut.
_EM_BLOCK_BYTES = 1 << 18


class RangeAdvisory(UserWarning):
    """Evaluation outside the range where the polynomial is known to
    approximate the zeta derivative (advisory only)."""


class EvalPoint(Frozen):
    """A height t, derivative order, and polynomial cutoff T."""

    _fields = ("t", "ell", "cutoff")

    def __init__(self, t: float, ell: int, cutoff: float):
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        if not (math.isfinite(cutoff) and cutoff >= 1):
            raise ValueError(f"cutoff must be finite and >= 1, got {cutoff}")
        if not 0 <= ell <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"ell={ell} outside [0, {MAX_DERIVATIVE_ORDER}]")
        self._init(t, ell, cutoff)

    def warn_if_off_range(self):
        T = self.cutoff
        if T > 3:
            ell_max = math.log(T) / math.log(math.log(T))
            if self.ell > ell_max:
                warnings.warn(
                    f"ell={self.ell} exceeds the approximation range "
                    f"(log T)/(log_2 T) = {ell_max:.2f}",
                    RangeAdvisory,
                    stacklevel=2,
                )
        if not T <= abs(self.t) <= 2 * T and self.t != 0:
            warnings.warn(
                f"t={self.t} outside [T, 2T] = [{T}, {2 * T}]",
                RangeAdvisory,
                stacklevel=2,
            )


def _double_range_refusal(terms: int, ell: int) -> ValueError:
    return ValueError(
        f"Dirichlet coefficients (log n)^{ell}/n for n <= {terms} leave "
        f"the double range at ell={ell}"
    )


def dirichlet_terms(cutoff: float, ell: int) -> int:
    """floor(cutoff), the term count of P, after refusing ell < 0, more
    than MAX_SUM_TERMS terms, or an ell whose coefficients (log n)^l/n, or
    their sum, leave the double range.  Decided in log space, without
    the coefficients: (log n)^l is largest at n = N = floor(cutoff), and
    the sum of the unimodal terms is at most (log N)^(l+1)/(l+1) plus
    the largest term, at n = e^l or at N."""
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
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


def coefficients_at(n, ell: int):
    """(log n, (log n)^l / n) at the float64 array n: the frequencies and
    coefficients of P, formed here and nowhere else."""
    logn = np.log(n)
    return logn, logn**ell / n


def _coefficient_blocks(terms: int, ell: int, block: int):
    """:func:`coefficients_at` for n <= terms in ascending blocks of
    ``block`` n (one empty block if terms < 1).  Refuses, after the last
    block, if the sum of the coefficients is not finite."""
    total = 0.0
    for start in range(1, max(terms, 1) + 1, block):
        n = np.arange(start, min(start + block, terms + 1), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            logn, coeffs = coefficients_at(n, ell)
            total += np.sum(coeffs)
        yield logn, coeffs
    if not np.isfinite(total):
        raise _double_range_refusal(terms, ell)


def dirichlet_coefficients(cutoff: float, ell: int):
    """(log n, (log n)^l / n) for n <= cutoff, ascending n, as two arrays.
    Refuses, with :func:`dirichlet_terms`, before allocating, and again
    if the sum is not finite."""
    terms = dirichlet_terms(cutoff, ell)
    (arrays,) = _coefficient_blocks(terms, ell, max(terms, 1))
    return arrays


def _terms_at(terms: int, ell: int, t: float):
    """(log n, c_n exp(-i t log n)) for n <= terms, in ascending blocks of
    _POLY_BLOCK n: the terms of P at t, formed here and nowhere else.
    Refuses, before the first block, a t whose phases keep no digit."""
    # past 2^53 rad the spacing of doubles is 2 rad: no digit of the
    # phase t log n survives; a NaN or infinite t has none either
    phase = abs(t) * math.log(max(terms, 1))
    if not phase < 2.0**53:
        raise ValueError(
            f"t = {t:g} leaves no digit of the phase at N = "
            f"{terms} terms: |t| log N = {phase:.3g} >= 2^53"
        )
    for logn, coeffs in _coefficient_blocks(terms, ell, _POLY_BLOCK):
        yield logn, coeffs * np.exp(-1j * t * logn)


def dirichlet_poly(point: EvalPoint) -> complex:
    """sum_{n <= T} (log n)^l n^(-1) exp(-i t log n), pairwise within each
    block of _POLY_BLOCK n and in order across blocks, so the working
    memory does not grow with T.  Equal, bit for bit, to the a_0 of
    :func:`taylor_coefficients` at t."""
    terms = dirichlet_terms(point.cutoff, point.ell)
    total = 0j
    for _, values in _terms_at(terms, point.ell, point.t):
        total += values.sum()
    return complex(total)


def taylor_coefficients(cutoff: float, ell: int, t0: float) -> np.ndarray:
    """a_0..a_K, K = TAYLOR_ORDER, with P(t0 + h) = sum_k a_k h^k up to
    (|h| log N)^(K+1)/(K+1)! sum c_n: a_k = sum c_n n^(-i t0) (-i log n)^k
    / k!, from one blocked pass (Odlyzko & Schoenhage, Trans. AMS 1988)."""
    terms = dirichlet_terms(cutoff, ell)
    moments = np.zeros(TAYLOR_ORDER + 1, dtype=np.complex128)
    for logn, weighted in _terms_at(terms, ell, t0):
        for k in range(TAYLOR_ORDER + 1):
            moments[k] += weighted.sum()  # sum c_n n^(-i t0) (log n)^k
            weighted *= logn
    k = np.arange(TAYLOR_ORDER + 1)
    return moments * (-1j) ** k / np.cumprod(np.maximum(k, 1))  # (-i)^k/k!


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
    """Exact Bernoulli numbers B_0..B_n (B_1 = -1/2), computed once per n,
    as (numerator, denominator) pairs in lowest terms with a positive
    denominator, the form of mpmath.bernfrac; from the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1."""
    table = [(1, 1)]
    for m in range(1, n + 1):
        num, den = 0, 1  # -sum_{j<m} C(m+1, j) B_j = (m+1) B_m
        for j, (p, q) in enumerate(table):
            num, den = num * q - math.comb(m + 1, j) * p * den, den * q
        den *= m + 1
        g = math.gcd(num, den)
        table.append((num // g, den // g))
    return tuple(table)


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
        num, den = bern[2 * r]
        coef = num / (den * math.factorial(2 * r))  # correctly rounded
        tail = tail + coef * rising * nshift
        # extend rising factorial (s)_{2r-1} -> (s)_{2r+1}, N^(-s-2r+1) shift
        rising = rising * (s + 2 * r - 1) * (s + 2 * r)
        nshift = nshift / (N * N)
    num, den = bern[-1]
    next_coef = abs(num) / (den * math.factorial(2 * em_order + 2))
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
    """Vectorized Euler-Maclaurin zeta for Re(s) > 0, s != 1.  The head
    sum runs over n in blocks of at most _EM_BLOCK_BYTES of terms."""
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

    flat = s.ravel()
    chunk = max(1, _EM_BLOCK_BYTES // (16 * max(1, flat.size)))
    res = np.zeros_like(flat)
    for start in range(1, cut, chunk):
        stop = min(start + chunk, cut)
        logn = np.log(np.arange(start, stop, dtype=np.float64))
        powers = np.multiply.outer(flat, logn)  # n^(-s), in place
        np.negative(powers, out=powers)
        np.exp(powers, out=powers)
        res += powers.sum(axis=1)
    return (res + _em_tail_terms(flat, cut, em_order)).reshape(s.shape)


# ------------------------------------------------------- Cauchy circles --

def cauchy_ring(ell: int, radius: float, nodes: int):
    """Offsets r e^(i theta_j) of an n-node circle and the trapezoid weights
    l!/(n r^l) e^(-i l theta_j) that turn values on it into an l-th
    derivative.  The even nodes of a 2n-node ring are the n-node ring."""
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    scale = math.factorial(ell) / (nodes * radius**ell)
    return radius * np.exp(1j * theta), scale * np.exp(-1j * ell * theta)


def cauchy_derivative(
    values: np.ndarray, ell: int, radius: float = RING_RADIUS
) -> complex:
    """f^(ell)(s0) by the trapezoid rule from ``values``, f at s0 plus the
    offsets of :func:`cauchy_ring` of the given radius and node count
    ``values.size``.

    No convergence check here; :func:`zeta_deriv_cauchy` runs the
    two-grid test.
    """
    if values.size < 16:
        raise ValueError(f"need at least 16 nodes, got {values.size}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    _, weights = cauchy_ring(ell, radius, values.size)
    terms = values * weights
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


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
        # n^(-d), then n^(d), in one buffer, freed before the next block's
        factors = np.multiply.outer(quarter, logn)
        np.negative(factors, out=factors)
        np.exp(factors, out=factors)
        at_d += factors @ pair
        np.divide(1.0, factors, out=factors)
        at_minus_d += factors @ pair
        del factors
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

    One 2*RING_NODES ring is evaluated; the coarse rule is the
    RING_NODES rule on its even nodes, whose weights are exactly twice
    the fine rule's there.
    """
    s0 = complex(s0)
    radius = RING_RADIUS
    if abs(s0 - 1.0) <= radius:
        raise ValueError(
            f"circle of radius {radius} around {s0} encloses the pole at 1"
        )
    if s0.real - radius <= 0:
        raise ValueError("circle dips into Re(s) <= 0, outside the oracle range")
    vals = _zeta_ring_values(s0.real, s0.imag)
    fine = cauchy_derivative(vals, ell, radius)
    coarse = cauchy_derivative(vals[::2], ell, radius)
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
