"""Resonance engine: smooth weight, moment integrals, certificate, scan.

The mechanism: for any resonator set M with max element at most sqrt(T),
the weighted moments

    M1 = integral |R(t)|^2 phi(t/T) dt,
    M2 = integral P(t) |R(t)|^2 phi(t/T) dt,

with R(t) = sum_{m in M} m^(it) and P the Dirichlet polynomial standing
in for (-1)^l zeta^(l)(1+it), certify that the sup of |P| over [T, 2T]
is at least |M2|/M1, because phi is supported there.  The diagonal terms
give M1 ~ T phihat(0) |M| and M2 ~ T phihat(0) S(x; l), so the
certificate ratio lands near S(x; l)/|M|.

The weight phi is the standard smooth partition-of-unity step: 0 off
[1,2], 1 on [5/4, 7/4], transitions psi(4(t-1)) and psi(4(2-t)) with
psi(u) = g(u)/(g(u)+g(1-u)), g(u) = exp(-1/u).  The exact symmetry
psi(u) + psi(1-u) = 1 makes phihat(0) = 3/4 exactly, which the tests pin.

R and P have finite spectra, so the moments are finite sums: by

    integral (m/(n m'))^(it) phi(t/T) dt = T phihat(T log(n m'/m)),

M1 = T sum_{m, m'} phihat(T log(m'/m)) and M2 = T sum_{m, m'} sum_n c_n
phihat(T log(n m'/m)) for P(t) = sum c_n n^(-it).  Only the window
|xi| < PHI_BAND = 2000 counts (beyond it |phihat| < 1e-15), so each
moment is a sum over the few (n, m, m') in it, at a cost that does not
grow with T: c_n is formed only at the n inside the window, and M1 is
the n = 1 slice of M2's terms, so a certificate enumerates the window
once.  xi is taken from exact integers, so equal fractions n m'/m give
equal xi, and one phihat call serves the window's distinct xi: a
trapezoid rule on one cached grid (2048 intervals for every in-window
xi), exact up to phihat's aliases (Trefethen & Weideman, SIAM Review
2014) and checked against its own even-node half.  This is the one route for each moment;
integrating over [T, 2T] by quadrature, with P or with Euler-Maclaurin
zeta, is kept as the tests' independent reference
(``tests/quadrature_reference.py``).
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, count_text
from .gridsum import exp_sum_on_grid
from .jets import MAX_DOUBLE_ORDER
from .primes import iterated_log
from .resonator import (
    ResonatorSpec,
    bound_constants,
    enumerate_M,
    max_element,
    s_over_cardinality_jet,
)
from .zeta import coefficients_at, dirichlet_coefficients, dirichlet_terms
from .zeta import taylor_coefficients
# unused here; perfbench's tracer patches engine._em_tail_terms and
# engine.integrate_refine (drop both with the tracer's patches)
from .quadrature import integrate_refine  # noqa: F401
from .zeta import _em_tail_terms  # noqa: F401

ENGINE_ELEMENT_CAP = 4096
# Refusal above this many scan points: the guard against out-of-memory
# scans at large T.  A refined scan's process peaks at about 128 bytes
# per point (max RSS: 222 MB at 1.47M points, T = 1e5; 622 MB at 4.84M,
# T = 3e5, step 0.062), so 5M points stay near 650 MB.
MAX_SCAN_POINTS = 5_000_000
# Refusal above this many candidate (n, m, m') in a moment window: about
# a second of work.  A certificate's window holds far fewer (131 at
# x = 3, b = 3, T = 2e4; 945 at x = 5, b = 3, T = 1e7); x = 30, b = 2 at
# T = 1e4, max M far above sqrt(T), would hold about 1e8.
MAX_WINDOW_CANDIDATES = 1_000_000


class ParameterWarning(UserWarning):
    """Degenerate or out-of-regime parameter choices (still computable)."""


# ------------------------------------------------------------ bump weight --

def bump_phi(t):
    """The smooth weight: 0 off [1,2], 1 on [5/4,7/4], C-infinity bridges."""
    t_arr = np.asarray(t, dtype=np.float64)
    # distance to the nearer end in transition widths: psi(s) on (0, 1)
    s = 4.0 * np.minimum(t_arr - 1.0, 2.0 - t_arr)
    out = np.zeros_like(t_arr)
    out[s >= 1.0] = 1.0
    bridge = (s > 0.0) & (s < 1.0)
    with np.errstate(over="ignore"):
        u = s[bridge]
        out[bridge] = 1.0 / (1.0 + np.exp(1.0 / u - 1.0 / (1.0 - u)))
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        return float(out)
    return out


# Effective band of phi: |phihat(xi)| < 1e-15 for |xi| >= PHI_BAND (the
# tests pin it every 50 up to 6000), so phi(t/T) counts as band-limited
# to PHI_BAND / T in the moment integrands.
PHI_BAND = 2000.0
# phihat's trapezoid rule on [1, 2] has N intervals, the least power of
# two with 2 pi N >= PHI_GRID_RATE * (max |xi| + PHI_BAND), max |xi| taken
# at least PHI_BAND so that every in-window xi sees the same 2048
# intervals.  By Poisson summation the rule's error is the aliases
# phihat(xi + 2 pi j N), j != 0 (Trefethen & Weideman, SIAM Review 2014);
# its even-node half aliases at pi N >= 1.2 (|xi| + PHI_BAND), still
# outside the band.
PHI_GRID_RATE = 2.4
# The N-node and even-node sums must agree to this times phihat(0).
PHI_CHECK_TOL = 1e-10
# Refusal above this many intervals (|xi| beyond about 1e7): the cached
# grids, powers of two from 2048 up, hold at most 64 MB together.
MAX_PHI_NODES = 1 << 22
_PHI_BLOCK = 1 << 18  # cosines per block (2 MB), or one row of them


def _phi_nodes(reach: float) -> int:
    """The intervals N of phihat's grid for |xi| <= ``reach``."""
    need = PHI_GRID_RATE * (max(reach, PHI_BAND) + PHI_BAND) / (2 * math.pi)
    if need > MAX_PHI_NODES:
        raise AccuracyError(
            f"phihat at |xi| = {reach:.6g} needs more than the "
            f"{MAX_PHI_NODES}-node budget"
        )
    return 1 << (math.ceil(need) - 1).bit_length()


@functools.cache
def _phi_grid(nodes: int):
    """(k/N, phi(3/2 + k/N)/N, phihat(0) by the rule) for k = 1..N/2: the
    offsets from 3/2 of the nodes right of it and their weights,
    read-only."""
    offsets = np.arange(1, nodes // 2 + 1) / nodes
    weights = bump_phi(1.5 + offsets) / nodes
    offsets.flags.writeable = False
    weights.flags.writeable = False
    return offsets, weights, 1.0 / nodes + 2.0 * math.fsum(weights)


def bump_phi_hat(xi):
    """phihat(xi) = integral phi(u) exp(-i xi u) du, for a scalar or an
    array of xi, by one trapezoid rule sized from the largest |xi|.

    Convention: with this sign, integral (m/n)^(it) phi(t/T) dt equals
    T * phihat(T log(n/m)).  phi is symmetric about 3/2, so the N-node
    sum is exp(-3i xi/2) (1/N + 2 sum_k w_k cos(xi k/N)) with w_k =
    phi(3/2 + k/N)/N, k = 1..N/2.  It must agree with the sum over the
    even nodes alone to PHI_CHECK_TOL * phihat(0), or AccuracyError.
    """
    xi_arr = np.asarray(xi, dtype=np.float64)
    flat = xi_arr.reshape(-1)
    reach = float(np.max(np.abs(flat))) if flat.size else 0.0
    if not math.isfinite(reach):  # a nan or an inf anywhere
        raise ValueError("phihat needs finite xi")
    nodes = _phi_nodes(reach)
    offsets, weights, hat0 = _phi_grid(nodes)
    h = 1.0 / nodes
    rule = np.empty(flat.size)
    rows = max(1, _PHI_BLOCK // offsets.size)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows]
        # row sums, not a matrix product, so a value is the same whatever
        # else is in the call
        terms = np.cos(np.outer(block, offsets)) * weights
        even = terms[:, 1::2].sum(axis=1)  # k = 2, 4, ..
        full = h + 2.0 * (terms[:, 0::2].sum(axis=1) + even)
        gap = float(np.max(np.abs(full - (2.0 * h + 4.0 * even))))
        if gap > PHI_CHECK_TOL * hat0:
            raise AccuracyError(
                f"phihat two-grid disagreement {gap:.3e} > "
                f"{PHI_CHECK_TOL * hat0:.3e} ({nodes} intervals, |xi| up "
                f"to {reach:.6g})"
            )
        rule[start : start + rows] = full
    out = np.exp(-1.5j * flat) * rule
    if xi_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(xi_arr.shape)


def bump_decay_constant(
    alpha: int, xi_min: float = 10.0, xi_max: float = 1e4, samples: int = 60
) -> float:
    """max |phihat(xi)| * xi^alpha over a log grid: the empirical decay
    constant for the |xi|^(-alpha) envelope."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    xs = np.exp(np.linspace(math.log(xi_min), math.log(xi_max), samples))
    return float(np.max(np.abs(bump_phi_hat(xs)) * xs**alpha))


# --------------------------------------------------- theorem parameters --

class TheoremParameters(NamedTuple):
    """The asymptotic parameter choices, clamped to usable values."""

    T: float
    x: float
    b: int
    J: int


def theorem_parameters(T: float) -> TheoremParameters:
    """x = log T/(3 log_2 T), b = floor(log_2 T) (>=1), J = max(1,
    floor(log_3 T / 2)); warns when the resonator degenerates."""
    if T < 100:
        raise ValueError(f"need T >= 100, got {T}")
    logT = iterated_log(T, 1)
    log2T = iterated_log(T, 2)
    x = logT / (3.0 * log2T)
    b = max(1, math.floor(log2T))
    # T >= 100 keeps log_3 T above 0.4
    J = max(1, math.floor(0.5 * iterated_log(T, 3)))
    if x < 2:
        warnings.warn(
            f"x = {x:.4f} < 2: no primes below x, the resonator degenerates "
            "to {1}",
            ParameterWarning,
            stacklevel=2,
        )
    else:
        _warn_if_peak_large(ResonatorSpec(x, b), T, stacklevel=3)
    return TheoremParameters(T=float(T), x=x, b=b, J=J)


# ------------------------------------------------------------- resonator --

def _peak_exceeds_sqrt(spec: ResonatorSpec, T: float) -> bool:
    """(max M)^2 > T, decided exactly.

    A double T is below 2^1024, so a max M of more than 512 bits exceeds
    sqrt(T) for any finite T; below that max M is cheap to build.
    """
    # floor(log2 p) per prime: a lower bound on log2 max M; at b = 1,
    # max M = 1 and no prime is read
    if spec.b > 1 and (
        (spec.b - 1) * sum(p.bit_length() - 1 for p in spec.primes) > 512
    ):
        return T < math.inf
    peak = max_element(spec)
    return peak * peak > T


def _warn_if_peak_large(spec: ResonatorSpec, T: float, stacklevel: int):
    """``stacklevel`` as in :func:`warnings.warn`, counted from here."""
    if _peak_exceeds_sqrt(spec, T):
        warnings.warn(
            "max element > sqrt(T): off-diagonal suppression is not "
            "justified at this T",
            ParameterWarning,
            stacklevel=stacklevel,
        )


# ---------------------------------------------------------------- moments --

def _resonator(spec: ResonatorSpec, T: float):
    """Elements of M as (log m, m), ascending."""
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    elements = enumerate_M(spec, cap=ENGINE_ELEMENT_CAP)
    return sorted((math.log(m), m) for m in elements)


# Slack on the rounded log bounds that pick candidate pairs; membership is
# then decided by the exact |xi| < PHI_BAND test.
_LOG_SLACK = 1e-9


def _window(elements, T: float, terms: int):
    """(n, phihat(xi)) for the (n, m, m') with m, m' in M (``elements``,
    as :func:`_resonator` lists them), n <= terms and |xi| < PHI_BAND,
    xi = T log(n m'/m): integral P(t) |R(t)|^2 phi(t/T)
    dt for P(t) = sum c_n n^(-it) is T times the sum of c_n phihat(xi)
    over them, since integral (m/(n m'))^(it) phi(t/T) dt = T phihat(xi).
    xi is T log1p((n m' - m)/m), the quotient correctly rounded from
    exact integers, so equal fractions give equal xi; one phihat call
    evaluates the distinct xi.  Every in-window n = 1 term is found for
    any ``terms`` >= 1: M1 is their slice.  Refuses past
    MAX_WINDOW_CANDIDATES candidate (n, m, m'), as when max M far
    exceeds sqrt(T).
    """
    logs = [log_m for log_m, _ in elements]
    if terms == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    reach = PHI_BAND / T  # |log(n m'/m)| < reach inside the window
    span = math.log(terms)
    candidates = 0
    ns, xis = [], []
    for log_m, m in elements:
        # 1 <= n <= terms confines log m' to [log m - span, log m] +- reach
        first = bisect.bisect_left(logs, log_m - span - reach - _LOG_SLACK)
        last = bisect.bisect_right(logs, log_m + reach + _LOG_SLACK)
        for log_m2, m2 in elements[first:last]:
            low = min(log_m - log_m2 - reach, span)
            high = min(log_m - log_m2 + reach, span)
            lo = max(1, math.floor(math.exp(low)))
            hi = min(terms, math.ceil(math.exp(high)))
            candidates += hi - lo + 1
            if candidates > MAX_WINDOW_CANDIDATES:
                raise ValueError(
                    f"the moment window at T = {T:g} reaches {candidates} "
                    f"candidate (n, m, m'), beyond the limit of "
                    f"{MAX_WINDOW_CANDIDATES}: max M = "
                    f"{count_text(elements[-1][1])} against sqrt(T) = "
                    f"{math.sqrt(T):.6g}"
                )
            for n in range(lo, hi + 1):
                xi = T * math.log1p((n * m2 - m) / m)
                if abs(xi) < PHI_BAND:
                    ns.append(n)
                    xis.append(xi)
    # the diagonal n = 1, m = m' has xi = 0: ns is never empty here
    distinct, index = np.unique(xis, return_inverse=True)
    return np.array(ns), bump_phi_hat(distinct)[index]


def _sum_M1(T: float, ns, values) -> float:
    """M1 from a window's terms: P = 1 keeps the n = 1 slice."""
    return T * math.fsum(values[ns == 1].real)


def _sum_M2(T: float, ns, values, ell: int) -> complex:
    """M2 from a window's terms, with c_n = (log n)^l/n formed by
    :func:`coefficients_at` only at the n in the window."""
    _, coeffs = coefficients_at(ns.astype(np.float64), ell)
    products = coeffs * values
    return T * complex(math.fsum(products.real), math.fsum(products.imag))


def moment_M1(spec: ResonatorSpec, T: float) -> float:
    """integral |R(t)|^2 phi(t/T) dt = T * sum phihat(T log(m'/m)) over the
    pairs m, m' in M with |T log(m'/m)| < PHI_BAND (the window sum with
    P = 1, its n = 1 slice).  Warns when max M exceeds sqrt(T)."""
    elements = _resonator(spec, T)
    _warn_if_peak_large(spec, T, stacklevel=3)
    return _sum_M1(T, *_window(elements, T, 1))


def moment_M2(spec: ResonatorSpec, T: float, ell: int) -> complex:
    """integral P(t) |R(t)|^2 phi(t/T) dt for the truncated polynomial P
    standing in for (-1)^l zeta^(l)(1+it): its finite spectrum makes the
    moment the window sum T * sum c_n phihat(T log(n m'/m)) over
    |xi| < PHI_BAND, with c_n read only at the n in the window.  0 for
    T < 1, where P is empty.  Warns when max M exceeds sqrt(T)."""
    terms = dirichlet_terms(T, ell)
    elements = _resonator(spec, T)
    _warn_if_peak_large(spec, T, stacklevel=3)
    return _sum_M2(T, *_window(elements, T, terms), ell)


# ------------------------------------------------------------ certificate --

class Certificate(NamedTuple):
    ratio: float
    rhs_prediction: float
    M1: float
    M2_abs: float


def certificate(spec: ResonatorSpec, T: float, ell: int) -> Certificate:
    """|M2|/M1 next to its diagonal prediction S(x; l)/|M|.  Requires max
    element <= sqrt(T).

    The ratio of the exact moments is a lower bound for max |P| on
    [T, 2T], where phi >= 0 is supported.  The computed ratio carries no
    proof of that: the moments drop every term with |xi| >= PHI_BAND on
    a sampled |phihat| < 1e-15, and phihat is checked only against its
    own even-node half.  A certified interval around the ratio is ROADMAP
    item 1.

    Both moments come from one window pass (:func:`moment_M2`'s terms,
    M1 their n = 1 slice as in :func:`moment_M1`) with one phihat call;
    no quadrature runs and P's coefficient array is never built.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if _peak_exceeds_sqrt(spec, T):
        raise ValueError(
            f"max resonator element prod_(p <= {spec.x:g}) p^{spec.b - 1} "
            f"exceeds sqrt(T) = {math.sqrt(T):.1f}"
        )
    if ell > MAX_DOUBLE_ORDER:
        raise ValueError(
            f"ell={ell} exceeds {MAX_DOUBLE_ORDER}: ell! leaves the double "
            "range, and the certificate is computed in double only"
        )
    # T's term count is refused first: within it, S/|M| fits a double
    terms = dirichlet_terms(T, ell)
    rhs = float(s_over_cardinality_jet(spec, ell))
    ns, values = _window(_resonator(spec, T), T, terms)
    m1 = _sum_M1(T, ns, values)
    m2 = _sum_M2(T, ns, values, ell)
    return Certificate(
        ratio=abs(m2) / m1, rhs_prediction=rhs, M1=m1, M2_abs=abs(m2)
    )


# ------------------------------------------------------------------- scan --

class ScanReport(NamedTuple):
    T: float
    ell: int
    grid_step: float
    argmax_t: float
    max_value: float
    certificate_ratio: float | None
    theoretical_constant: float
    yang_constant: float
    grid_points: int
    refined: bool


def scan_max(
    T: float,
    ell: int,
    grid_step: float,
    refine: bool = False,
    spec: ResonatorSpec | None = None,
) -> ScanReport:
    """Grid maximum of |P(t)| over [T, 2T] with optional local refinement.

    The grid is :func:`scan_samples`'s.  Ties in the grid maximum resolve
    to the smallest t.  Refinement maximises |P| within a step of each of
    the 10 largest samples on P's :func:`taylor_coefficients` model
    there, a 257-point grid narrowed four times around its maximum.
    Every refusal comes before the grid is built: a T <= e^e, where the
    bound constants are undefined, and with a ``spec`` the
    certificate's, whose ratio is computed first.
    """
    _check_scan(T, ell, grid_step)
    theo, yang = bound_constants(ell, T)
    cert = None if spec is None else certificate(spec, T, ell).ratio
    t_grid, values = scan_samples(T, ell, grid_step)
    count = t_grid.size
    step = T / (count - 1)
    top = int(np.argmax(values))
    best_t = float(t_grid[top])
    best_v = float(values[top])

    if refine:
        for idx in np.argpartition(values, -10)[-10:]:
            center = float(t_grid[idx])
            model = taylor_coefficients(T, ell, center)[::-1]
            lo = max(T, center - step) - center
            hi = min(2 * T, center + step) - center
            for _ in range(4):
                h = np.linspace(lo, hi, 257)
                amplitude = np.abs(np.polyval(model, h))
                j = int(np.argmax(amplitude))
                lo, hi = h[max(j - 1, 0)], h[min(j + 1, h.size - 1)]
            t_star, v_star = center + float(h[j]), float(amplitude[j])
            if v_star > best_v or (v_star == best_v and t_star < best_t):
                best_t, best_v = t_star, v_star

    return ScanReport(
        T=float(T),
        ell=ell,
        grid_step=step,
        argmax_t=best_t,
        max_value=best_v,
        certificate_ratio=cert,
        theoretical_constant=theo,
        yang_constant=yang,
        grid_points=count,
        refined=refine,
    )


def scan_samples(T: float, ell: int, grid_step: float):
    """The (t, |P(t)|) grid over [T, 2T] that :func:`scan_max` ranges over.

    The step must satisfy grid_step <= pi/(4 log T): the polynomial's
    bandwidth is log T, and this keeps inter-sample wiggle bounded.
    """
    _check_scan(T, ell, grid_step)
    count = int(math.ceil(T / grid_step)) + 1
    step = T / (count - 1)
    logn, coeffs = dirichlet_coefficients(T, ell)
    values = np.abs(exp_sum_on_grid(logn, coeffs, T, step, count))
    return T + step * np.arange(count), values


def _check_scan(T: float, ell: int, grid_step: float) -> None:
    """Refuses a scan's inputs before any work: T < 2, a step that is not
    finite and positive or above pi/(4 log T), a grid of more than
    MAX_SCAN_POINTS points, or a P that :func:`dirichlet_terms` refuses
    (ell < 0 among them)."""
    if T < 2:
        raise ValueError(f"need T >= 2, got {T}")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(
            f"grid_step must be finite and positive, got {grid_step}"
        )
    step_cap = math.pi / (4.0 * math.log(T))
    if grid_step > step_cap:
        raise ValueError(
            f"grid_step {grid_step:.4g} too coarse: needs <= pi/(4 log T) = "
            f"{step_cap:.4g}"
        )
    points = T / grid_step + 1  # a float, inf for a subnormal step
    if points > MAX_SCAN_POINTS:
        raise ValueError(
            f"scan of {points:.3g} grid points (grid_step {grid_step}) "
            f"exceeds the limit of {MAX_SCAN_POINTS}"
        )
    dirichlet_terms(T, ell)
