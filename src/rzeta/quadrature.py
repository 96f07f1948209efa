"""Nested trapezoid rule with Romberg extrapolation.

By Poisson summation the trapezoid rule's error is the integrand's
Fourier transform at the nonzero multiples of 2*pi/h, so for a
band-limited factor times a smooth compactly supported weight the first
grid is sized from the caller's ``max_frequency`` (Trefethen & Weideman,
SIAM Review 2014).  Each refinement halves the step and evaluates only
the new midpoints; Romberg extrapolation handles integrands whose ends do
not vanish.  Integrands receive (t0, dt, count) describing a whole
uniform grid.  The package itself does not call the rule (phihat,
:func:`rzeta.engine.bump_phi_hat`, is one fixed trapezoid grid); it stays
here while perfbench's tracer patches ``engine.integrate_refine`` and
``_level_value``.  The tests' quadrature references of the moments
evaluate a Dirichlet polynomial or Euler-Maclaurin zeta on each level
with one FFT-gridded transform, and the tests check phihat against the
rule.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError

OVERSAMPLING = 1.2  # start-grid 2*pi/h over max_frequency
MAX_LEVEL = 10  # refinements before the integral is refused
# Refusal before any level above this many integrand evaluations: the
# guard against out-of-memory runs.  The tests' quadrature moments cost
# about 180 bytes per node (M2 at T = 1e6: 3.0M nodes, 600 MB peak), so
# this keeps them under a gigabyte.
MAX_NODES_PER_LEVEL = 5_000_000

GridIntegrand = Callable[[float, float, int], np.ndarray]


def _level_value(
    f: GridIntegrand,
    a: float,
    width: float,
    panels: int,
    order: int,
    end_weight: float = 1.0,
) -> tuple[complex, float]:
    """width * sum of f, and of |f|, on a + k*width, k < panels*order
    (``order=1`` for the trapezoid rule), with the end samples weighted
    by ``end_weight``."""
    vals = f(a, width, panels * order)
    mags = np.abs(vals)
    total, mass = np.sum(vals), np.sum(mags)
    if end_weight != 1.0:
        total -= (1.0 - end_weight) * (vals[0] + vals[-1])
        mass -= (1.0 - end_weight) * (mags[0] + mags[-1])
    return complex(width * total), float(width * mass)


def _check_budget(nodes: int, rel_tol: float) -> None:
    if nodes > MAX_NODES_PER_LEVEL:
        raise AccuracyError(
            f"quadrature level of {nodes} nodes exceeds the node budget "
            f"{MAX_NODES_PER_LEVEL} (rel_tol={rel_tol})"
        )


def integrate_refine(
    f: GridIntegrand,
    a: float,
    b: float,
    max_frequency: float,
    rel_tol: float = 1e-8,
) -> complex:
    """Integrate f over [a, b], halving the step until Romberg converges.

    ``f(t0, dt, count)`` must return integrand values on the uniform grid
    t0 + k*dt, k < count.  ``max_frequency`` bounds the integrand's
    angular frequencies; the first grid has 2*pi/h >= OVERSAMPLING times it.
    Two levels agree when they differ by at most ``rel_tol`` times the
    trapezoid sum of |f|, so an integral that cancels to near 0 converges
    as readily as one of constant sign.
    """
    if not b > a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    if not max_frequency >= 0:
        raise ValueError(f"max_frequency must be >= 0, got {max_frequency}")
    span = b - a
    nyquist = OVERSAMPLING * max_frequency * span / (2 * math.pi)
    intervals = max(2, math.ceil(nyquist))
    _check_budget(intervals + 1, rel_tol)
    h = span / intervals
    value, mass = _level_value(f, a, h, intervals + 1, 1, end_weight=0.5)
    row = [value]
    for level in range(1, MAX_LEVEL + 1):
        _check_budget(intervals, rel_tol)
        midpoints, mid_mass = _level_value(f, a + 0.5 * h, h, intervals, 1)
        h *= 0.5
        intervals *= 2
        mass = 0.5 * (mass + mid_mass)
        new = [0.5 * (row[0] + midpoints)]
        for k in range(1, level + 1):
            new.append(new[k - 1] + (new[k - 1] - row[k - 1]) / (4**k - 1))
        if abs(new[-1] - row[-1]) <= rel_tol * mass:
            return new[-1]
        row = new
    raise AccuracyError(
        f"quadrature failed to converge to rel_tol={rel_tol} "
        f"within {MAX_LEVEL} refinements"
    )
