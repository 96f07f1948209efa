"""The moments by quadrature: the independent reference for the spectral
window sums of :mod:`rzeta.engine`.

``engine._moment`` integrates a grid evaluator times |R|^2 phi(t/T) over
[T, 2T] by the nested trapezoid rule (the route the oracle mode runs);
here it gets the Dirichlet polynomial P, or P = 1 for M1.
"""

import numpy as np

from rzeta.engine import _moment
from rzeta.gridsum import exp_sum_on_grid
from rzeta.zeta import dirichlet_coefficients


def _dirichlet_grid_evaluator(T: float, ell: int):
    """Returns f(t0, dt, count) -> P(t) on uniform grids."""
    logn, coeffs = dirichlet_coefficients(T, ell)

    def evaluate(t0, dt, count):
        return exp_sum_on_grid(logn, coeffs, t0, dt, count)

    return evaluate, float(logn[-1]) if logn.size else 0.0


def _one(t0, dt, count):
    return 1.0


def quadrature_M1(spec, T):
    return float(_moment(spec, T, _one, 0.0).real)


def quadrature_M2(spec, T, ell):
    poly, nu_poly = _dirichlet_grid_evaluator(T, ell)
    return complex(_moment(spec, T, poly, nu_poly))
