"""The moments by quadrature: the independent reference for the spectral
window sums of :mod:`rzeta.engine`.

:func:`_moment` integrates a grid evaluator times |R|^2 phi(t/T) over
[T, 2T] by the nested trapezoid rule of :mod:`rzeta.quadrature`, whose
first grid is sized from the integrand's band and whose levels each run
one FFT-gridded transform for the evaluator.  |R|^2 comes from
cumulative phase products instead: for the few-term resonators of these
tests they are faster than the gridded plan on the same grid.  The
evaluator is the Dirichlet polynomial P (or P = 1 for M1), or, for
:func:`oracle_M2`, (-1)^l zeta^(l)(1 + it) by Euler-Maclaurin on zeta's
Cauchy circle, fully independent of P.  Zeta has no finite spectrum, so
that moment has no window sum to compare.
"""

import functools

import numpy as np

from rzeta.engine import PHI_BAND, _resonator, bump_phi
from rzeta.gridsum import _cumprod_grid, exp_sum_on_grid
from rzeta.quadrature import integrate_refine
from rzeta.zeta import (
    EM_ORDER,
    RING_NODES,
    RING_RADIUS,
    _em_cut_for,
    _em_tail_terms,
    cauchy_ring,
    dirichlet_coefficients,
)


def _moment(spec, T, poly, nu_poly):
    """integral of poly * |R|^2 phi(t/T) over [T, 2T] by the trapezoid
    rule, for a grid evaluator ``poly`` of band ``nu_poly``."""
    logs = np.array([log_m for log_m, _ in _resonator(spec, T)])
    ones = np.ones_like(logs)

    def integrand(t0, dt, count):
        r = _cumprod_grid(logs, ones, t0, dt, count)
        u = (t0 + dt * np.arange(count)) / T
        return poly(t0, dt, count) * (r.real**2 + r.imag**2) * bump_phi(u)

    # P's frequencies lie in [-nu_poly, 0] and |R|^2's in +-log max M.
    nu_max = nu_poly + float(logs[-1]) + PHI_BAND / T
    return integrate_refine(integrand, T, 2 * T, nu_max)


def _dirichlet_grid_evaluator(T: float, ell: int):
    """Returns f(t0, dt, count) -> P(t) on uniform grids."""
    logn, coeffs = dirichlet_coefficients(T, ell)

    def evaluate(t0, dt, count):
        return exp_sum_on_grid(logn, coeffs, t0, dt, count)

    return evaluate, float(logn[-1]) if logn.size else 0.0


def _cauchy_grid_evaluator(T: float, ell: int):
    """Returns f(t0, dt, count) -> (-1)^l zeta^(l)(1 + i t) on uniform
    grids, via Euler-Maclaurin on zeta's Cauchy circle collapsed into NUFFT
    coefficients plus vectorized boundary terms.  The coefficients are
    built on the first evaluation, so the node budget refuses first."""
    cut = _em_cut_for(2 * T + RING_RADIUS) + 2 * EM_ORDER
    logn = np.log(np.arange(1, cut, dtype=np.float64))
    # s = 1 + ring + i t
    ring, cauchy_w = cauchy_ring(ell, RING_RADIUS, RING_NODES)
    sign = (-1) ** ell

    @functools.cache
    def ring_coefficients():
        # Collapse the circle into per-n coefficients: sum_j w_j n^(-1-ring_j)
        coeffs = np.zeros(logn.size, dtype=np.complex128)
        for j in range(RING_NODES):
            coeffs += cauchy_w[j] * np.exp(-(1.0 + ring[j]) * logn)
        return coeffs

    def evaluate(t0, dt, count):
        main = exp_sum_on_grid(logn, ring_coefficients(), t0, dt, count)
        t = t0 + dt * np.arange(count)
        tail = np.zeros(count, dtype=np.complex128)
        for j in range(RING_NODES):
            s = (1.0 + ring[j]) + 1j * t
            tail += cauchy_w[j] * _em_tail_terms(s, cut, EM_ORDER)
        return sign * (main + tail)

    return evaluate, float(logn[-1]) if logn.size else 0.0


def _one(t0, dt, count):
    return 1.0


def quadrature_M1(spec, T):
    return float(_moment(spec, T, _one, 0.0).real)


def quadrature_M2(spec, T, ell):
    poly, nu_poly = _dirichlet_grid_evaluator(T, ell)
    return complex(_moment(spec, T, poly, nu_poly))


def oracle_M2(spec, T, ell):
    """M2 with Euler-Maclaurin zeta in place of P."""
    poly, nu_poly = _cauchy_grid_evaluator(T, ell)
    return complex(_moment(spec, T, poly, nu_poly))
