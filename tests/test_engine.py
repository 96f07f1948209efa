"""Weight function, moments, certificate, scan at small scale."""

import inspect
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import rzeta
import rzeta.zeta
from quadrature_reference import oracle_M2, quadrature_M1, quadrature_M2
from rzeta import quadrature
from rzeta.cli import run
from rzeta.engine import (
    PHI_BAND,
    Certificate,
    ParameterWarning,
    bump_decay_constant,
    bump_phi,
    bump_phi_hat,
    certificate,
    moment_M1,
    moment_M2,
    scan_max,
    scan_samples,
    theorem_parameters,
)
from rzeta.errors import AccuracyError
from rzeta.precision import EXP_GAMMA
from rzeta.quadrature import integrate_refine
from rzeta.resonator import ResonatorSpec, enumerate_M
from rzeta.zeta import EvalPoint, dirichlet_poly
from test_gridsum import fsum_sum_at

PHI_HAT_ZERO = 0.75  # exact: plateau 1/2 plus two transitions of 1/8 each


def resonator_eval(elements, t):
    """R(t) = sum over elements of exp(i t log m)."""
    if not elements:
        raise ValueError("resonator needs at least one element")
    logs = np.array([math.log(m) for m in elements])
    return fsum_sum_at(logs, np.ones_like(logs), -t)


def test_bump_plateau_support_exact():
    assert bump_phi(1.5) == 1.0
    assert bump_phi(1.25) == 1.0
    assert bump_phi(1.75) == 1.0
    for t in (0.0, 1.0, 2.0, 2.5, -3.0):
        assert bump_phi(t) == 0.0
    assert bump_phi(1.125) == pytest.approx(0.5, abs=1e-15)


def test_bump_range_and_symmetry():
    t = np.linspace(0.5, 2.5, 4001)
    v = bump_phi(t)
    assert np.all(v >= 0) and np.all(v <= 1)
    mirrored = bump_phi(3.0 - t)
    assert np.max(np.abs(v - mirrored)) < 1e-15


def test_bump_transition_identity():
    # psi(s) + psi(1-s) = 1 translates to phi(1+s/4) + phi(1+(1-s)/4) = 1
    for s in np.linspace(0.01, 0.99, 23):
        assert bump_phi(1 + s / 4) + bump_phi(1 + (1 - s) / 4) == pytest.approx(
            1.0, abs=1e-14
        )


def test_bump_smoothness_via_central_differences():
    # 6th-order central differences stay bounded across the transitions: a
    # jump would blow up like h^-6 ~ 1e18 here, while the true 6th
    # derivative of this transition peaks near 2e10.
    h = 1e-3
    stencil = np.array([1, -6, 15, -20, 15, -6, 1], dtype=float)
    ts = np.linspace(0.99, 1.26, 1001)
    worst = 0.0
    for t in ts:
        pts = bump_phi(t + h * np.arange(-3, 4))
        worst = max(worst, abs(np.dot(stencil, pts)) / h**6)
    assert worst < 1e11


def test_phi_hat_zero_is_three_quarters():
    assert bump_phi_hat(0.0).real == pytest.approx(PHI_HAT_ZERO, abs=1e-10)
    assert abs(bump_phi_hat(0.0).imag) < 1e-10


def test_phi_hat_conjugate_symmetry():
    for xi in (0.7, 5.0, 31.4):
        plus = bump_phi_hat(xi)
        minus = bump_phi_hat(-xi)
        assert minus == pytest.approx(plus.conjugate(), abs=1e-12)


def test_phi_hat_matches_plateau_analytic():
    # For the plateau-only part the transform is elementary; compare the
    # full phihat against direct fine trapezoid as an independent route.
    xi = 7.3
    u = np.linspace(1.0, 2.0, 200_001)
    ref = np.trapezoid(bump_phi(u) * np.exp(-1j * xi * u), u)
    assert bump_phi_hat(xi) == pytest.approx(complex(ref), abs=1e-9)


def test_phi_hat_decay():
    c2 = bump_decay_constant(2, samples=25)
    c3 = bump_decay_constant(3, samples=25)
    assert math.isfinite(c2) and c2 > 0
    assert math.isfinite(c3) and c3 > 0


def test_parseval_style_weight_mass():
    # independent fine-trapezoid quadrature of the weight equals hat(0)
    u = np.linspace(1.0, 2.0, 400_001)
    mass = float(np.trapezoid(bump_phi(u), u))
    assert abs(mass - bump_phi_hat(0.0).real) <= 1e-10


def test_theorem_parameters_values():
    with pytest.warns(ParameterWarning):
        p = theorem_parameters(1e6)
    assert p.x == pytest.approx(1.7538214, rel=1e-5)
    assert p.b == 2
    assert p.J == 1
    with pytest.warns(ParameterWarning):
        p100 = theorem_parameters(100.0)
    assert p100.x < 2
    # b tracks floor(log log T); a height with log log T = e^e would give
    # b = floor(e^e) = 15, but such T overflows a double, so check the
    # floor behaviour at representable heights.
    assert math.floor(math.exp(math.e)) == 15
    p30 = theorem_parameters(1e30)
    assert p30.b == math.floor(math.log(math.log(1e30))) == 4
    assert p30.x == pytest.approx(math.log(1e30) / (3 * math.log(math.log(1e30))))
    with pytest.raises(ValueError):
        theorem_parameters(50.0)


def test_resonator_eval():
    spec = ResonatorSpec(3, 2)
    elems = enumerate_M(spec)
    assert resonator_eval(elems, 0.0) == pytest.approx(4.0, abs=1e-14)
    single = enumerate_M(ResonatorSpec(2, 1))
    assert resonator_eval(single, 17.3) == pytest.approx(1.0, abs=1e-14)
    t = math.pi / math.log(6)
    val = resonator_eval(elems, t)
    expected = (
        1
        + np.exp(1j * t * math.log(2))
        + np.exp(1j * t * math.log(3))
        + np.exp(1j * math.pi)
    )
    assert val == pytest.approx(complex(expected), abs=1e-12)
    assert abs(val) <= 4.0 + 1e-12


def test_quadrature_driver_on_tone():
    # integral of exp(i nu t) over [a, b] has a closed form
    nu, a, b = 9.0, 10.0, 30.0

    def f(t0, dt, count):
        return np.exp(1j * nu * (t0 + dt * np.arange(count)))

    exact = (np.exp(1j * nu * b) - np.exp(1j * nu * a)) / (1j * nu)
    got = integrate_refine(f, a, b, 32)
    assert got == pytest.approx(complex(exact), abs=1e-10)


def _certify_window_xi():
    # every xi a certify job (x = 3, b = 3, T = 2e4) hands to phihat
    calls = []
    original = rzeta.engine.bump_phi_hat

    def recording(xi):
        calls.append(np.array(xi, dtype=float))
        return original(xi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rzeta.engine, "bump_phi_hat", recording)
        for ell in (0, 1, 2):
            certificate(ResonatorSpec(3, 3), 2e4, ell)
    return np.unique(np.concatenate([c.ravel() for c in calls]))


def test_phi_hat_is_integrate_refine_at_absolute_tolerance():
    # the fixed rule reproduces the Romberg quadrature at rel_tol=1e-10, a
    # plain argument, on every xi of the certify window; there is no
    # settings object
    assert not hasattr(rzeta, "QuadratureSettings")
    assert not hasattr(rzeta.quadrature, "QuadratureSettings")
    window = _certify_window_xi()
    assert window.size == 7 and np.all(np.abs(window) < PHI_BAND)
    got = bump_phi_hat(window)
    for xi, value in zip(window, got):

        def integrand(t0, dt, count, xi=xi):
            u = t0 + dt * np.arange(count)
            return bump_phi(u) * np.exp(-1j * xi * u)

        want = integrate_refine(
            integrand, 1.0, 2.0, abs(xi) + PHI_BAND, rel_tol=1e-10
        )
        assert abs(value - want) <= 1e-14, xi


def test_phi_hat_matches_mpmath():
    # phi is even about 3/2, so phihat(xi) = exp(-3i xi/2) (2 sin(xi/4)/xi
    # + 2 integral over [1/4, 1/2] of psi(4(1/2 - v)) cos(xi v) dv), the
    # transition integrated by mpmath at 30 digits
    def psi(u):
        g, h = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
        return g / (g + h)

    xs = [7.3, 547.97948376, -1740.22753979, 1999.0]
    got = bump_phi_hat(np.array(xs))
    with mpmath.workdps(30):
        for xi, value in zip(xs, got):
            x = mpmath.mpf(xi)
            cuts = mpmath.linspace(mpmath.mpf(1) / 4, mpmath.mpf(1) / 2, 9)
            edge = mpmath.quad(
                lambda v: psi(2 - 4 * v) * mpmath.cos(x * v), cuts
            )
            plateau = 2 * mpmath.sin(x / 4) / x
            want = mpmath.exp(-1.5j * x) * (plateau + 2 * edge)
            assert abs(value - complex(want)) <= 1e-15, xi


def test_phi_hat_scalar_is_its_array_entry():
    xs = np.array([[0.0, 7.3], [-1740.2, 1999.0]])
    got = bump_phi_hat(xs)
    assert got.shape == xs.shape and got.dtype == np.complex128
    for xi, value in zip(xs.ravel(), got.ravel()):
        assert isinstance(bump_phi_hat(float(xi)), complex)
        # every in-window xi is summed on the same grid, whatever the batch
        assert bump_phi_hat(float(xi)) == value
    assert bump_phi_hat(np.array([])).shape == (0,)
    with pytest.raises(ValueError, match="finite"):
        bump_phi_hat(np.array([1.0, math.nan]))


def test_phi_hat_vanishes_beyond_the_band():
    # the window sums drop every |xi| >= PHI_BAND on this claim
    xs = np.arange(PHI_BAND, 6000.0 + 1, 50.0)
    assert xs[0] == 2000.0 and xs[-1] == 6000.0
    assert np.max(np.abs(bump_phi_hat(xs))) < 1e-15


def test_phi_hat_refuses_an_aliased_grid(monkeypatch, capsys):
    # 64 intervals: the even-node half (step 1/32) aliases phihat at
    # +-pi 64 ~ 201, inside the band, and the two sums disagree
    monkeypatch.setattr(rzeta.engine, "_phi_nodes", lambda reach: 64)
    with pytest.raises(AccuracyError, match="two-grid"):
        bump_phi_hat(7.3)
    argv = ["resonate", "--x", "3", "--b", "3", "--T", "2e4", "--ell", "1"]
    assert run(argv) == 2
    assert "accuracy failure" in capsys.readouterr().err


def test_phi_hat_refuses_past_its_node_budget():
    with pytest.raises(AccuracyError, match="budget"):
        bump_phi_hat(1e12)


def test_dirichlet_poly_is_within_pairwise_rounding_of_its_fsum_form():
    # the exp-and-fsum form, exactly rounded, is the reference.  P sums
    # pairwise within each block of _POLY_BLOCK n and in order across
    # blocks: a pairwise tree passes each term through log2(block) +
    # blocks roundings, plus the reference's own (Higham, SIAM J. Sci.
    # Comput. 1993); the gap measured is under 2 2^-53 sum c_n.  Exact
    # rounding is not asked for: each phase t log n already carries a
    # rounding of about |t| log n 2^-53.  Cutoffs of one block and around
    # a multiple of it, at each order and at negative t
    block = rzeta.zeta._POLY_BLOCK
    for cutoff in (block, 3 * block - 1, 3 * block, 3 * block + 1):
        n = np.arange(1, cutoff + 1, dtype=np.float64)
        logn = np.log(n)
        depth = math.log2(block) + math.ceil(cutoff / block) + 2
        for ell in (0, 1, 2):
            for t in (0.0, 1234.5, -77.25, 1.5e5 + 0.1,
                      -1.5 * cutoff - 0.3, 2.5e4 + 0.7):
                coeffs = logn**ell / n
                want = fsum_sum_at(logn, coeffs, t)
                bound = depth * 2**-53 * math.fsum(np.abs(coeffs))
                assert abs(dirichlet_poly(EvalPoint(t, ell, cutoff)) - want) <= (
                    bound
                )


def test_quadrature_levels_evaluate_only_new_midpoints():
    # a tone with non-vanishing ends needs several Romberg levels; every
    # node of every level must be new, and together they fill the grid
    a, b, nu = 0.0, 8.0, 3.0
    calls = []

    def f(t0, dt, count):
        calls.append((t0, dt, count))
        return np.exp(1j * nu * (t0 + dt * np.arange(count)))

    got = integrate_refine(f, a, b, nu)
    exact = (np.exp(1j * nu * b) - np.exp(1j * nu * a)) / (1j * nu)
    assert got == pytest.approx(complex(exact), abs=1e-9)
    assert len(calls) >= 4
    first = calls[0][2] - 1  # intervals of the start grid
    assert [c[2] for c in calls[1:]] == [
        first * 2**j for j in range(len(calls) - 1)
    ]
    finest = calls[-1][1] / 2
    index = np.concatenate(
        [(t0 - a + dt * np.arange(count)) / finest for t0, dt, count in calls]
    )
    assert np.max(np.abs(index - np.rint(index))) < 1e-9
    index = np.sort(np.rint(index).astype(int))
    assert np.array_equal(index, np.arange(round((b - a) / finest) + 1))


def test_certify_moments_converge_at_first_refinement(monkeypatch):
    spec = ResonatorSpec(3, 3)
    T = 2e4
    levels = []
    original = quadrature._level_value

    def counting(f, a, width, panels, order, **kwargs):
        levels.append(panels * order)
        return original(f, a, width, panels, order, **kwargs)

    monkeypatch.setattr(quadrature, "_level_value", counting)
    m1 = quadrature_M1(spec, T)
    assert len(levels) == 2
    quadrature_M2(spec, T, 1)
    assert len(levels) == 4
    assert abs(m1 / (0.75 * T * 9) - 1) <= 1e-12


def test_quadrature_start_below_band_refines():
    # (1 + e^(i nu t)) phi(t/T): a start grid whose step is exactly
    # 2 pi/nu aliases the tone onto the constant, doubling it; the
    # midpoint levels no longer alias, and Romberg converges to the truth
    T = 1000.0
    nu = 2 * math.pi * 50 / T
    ref = T * (PHI_HAT_ZERO + bump_phi_hat(-nu * T))
    calls = []

    def f(t0, dt, count):
        calls.append(count)
        t = t0 + dt * np.arange(count)
        return (1.0 + np.exp(1j * nu * t)) * bump_phi(t / T)

    got = integrate_refine(
        f, T, 2 * T, 0.999999 * nu / quadrature.OVERSAMPLING
    )
    assert calls[0] == 51  # 50 intervals of 2 pi/nu: the aliased start
    assert len(calls) > 3  # not accepted at the first refinements
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_quadrature_node_budget_refuses_before_evaluating(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_NODES_PER_LEVEL", 1000)
    calls = []

    def f(t0, dt, count):
        calls.append(count)
        return np.ones(count)

    with pytest.raises(AccuracyError, match="budget"):
        integrate_refine(f, 0.0, 1e4, 50.0)
    assert calls == []


def test_default_node_budget_refuses_large_T_before_evaluating(monkeypatch):
    # the default budget is the out-of-memory guard of the quadrature
    # references: M1 at T = 1e7 needs 6.8M nodes, M2 at T = 3e6 10.6M and
    # the oracle M2 at T = 2e6 6.8M per level; the oracle's ring
    # coefficients wait for the first level, so its refusal is immediate
    levels = []
    original = quadrature._level_value

    def counting(f, a, width, panels, order, **kwargs):
        levels.append(panels * order)
        return original(f, a, width, panels, order, **kwargs)

    monkeypatch.setattr(quadrature, "_level_value", counting)
    spec = ResonatorSpec(3, 3)
    with pytest.raises(AccuracyError, match="budget"):
        quadrature_M1(spec, 1e7)
    with pytest.raises(AccuracyError, match="budget"):
        quadrature_M2(spec, 3e6, 1)
    with pytest.raises(AccuracyError, match="budget"):
        oracle_M2(spec, 2e6, 1)
    assert levels == []


def test_moment_M1_trivial_resonator():
    # M = {1}: the moment is exactly T * phihat(0)
    spec = ResonatorSpec(2, 1)
    T = 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        m1 = moment_M1(spec, T)
    assert m1 == pytest.approx(0.75 * T, rel=1e-6)


def test_moment_M1_diagonal_formula():
    spec = ResonatorSpec(3, 2)
    T = 1e4
    m1 = moment_M1(spec, T)
    assert abs(m1 / (T * 0.75 * 4) - 1) <= 1e-3
    assert m1 > 0


def test_moment_M1_diagonal_dominance_grid():
    # |M1 - T hat(0) |M|| <= c |M|^2 / T with a uniform c <= 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        for x, b, T in [(3, 2, 1e3), (3, 2, 1e4), (3, 3, 1e4), (5, 2, 1e4)]:
            spec = ResonatorSpec(x, b)
            size = len(enumerate_M(spec))
            m1 = moment_M1(spec, T)
            assert abs(m1 - T * 0.75 * size) <= 1e3 * size**2 / T, (x, b, T)


def test_moment_M2_trivial_b1():
    spec = ResonatorSpec(2, 1)
    T = 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        m2 = moment_M2(spec, T, 0)
        m1 = moment_M1(spec, T)
    assert abs(abs(m2) / m1 - 1) <= 0.02


@pytest.mark.parametrize("T", [2e4, 1e5])
def test_spectral_M1_matches_quadrature(T):
    spec = ResonatorSpec(3, 3)
    ref = quadrature_M1(spec, T)
    assert abs(moment_M1(spec, T) - ref) <= 1e-8 * ref


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("T", [2e4, 1e5])
def test_spectral_M2_matches_quadrature(T, ell):
    spec = ResonatorSpec(3, 3)
    ref = quadrature_M2(spec, T, ell)
    assert abs(moment_M2(spec, T, ell) - ref) <= 1e-8 * abs(ref)


# M1 and |M2| for M = divisors of 36 at T = 2e4, to 40 digits: phihat by
# mpmath.quad on the transition, window |xi| < 2 * PHI_BAND
REFERENCE_M1 = 135000.0
REFERENCE_M2_ABS = {
    0: 240833.33333183933369604,
    1: 121172.20670018133817808,
    2: 170403.56003309763928753,
}


@pytest.mark.parametrize("ell", sorted(REFERENCE_M2_ABS))
def test_moments_match_40_digit_reference(ell):
    spec = ResonatorSpec(3, 3)
    assert abs(moment_M1(spec, 2e4) / REFERENCE_M1 - 1) <= 5e-15
    got = abs(moment_M2(spec, 2e4, ell))
    assert abs(got / REFERENCE_M2_ABS[ell] - 1) <= 5e-15


def test_moment_M2_with_no_dirichlet_term_is_zero():
    # T = 0.5: P has floor(T) = 0 terms, and max M = 36 > sqrt(T) warns
    with pytest.warns(ParameterWarning, match="sqrt"):
        assert moment_M2(ResonatorSpec(3, 3), 0.5, 1) == 0j


def test_window_refuses_past_its_candidate_budget():
    # max M = 6469693230 against sqrt(T) = 100: the window would walk about
    # 1e8 candidate (n, m, m'); it stops past 1e6 and names the cause
    start = time.perf_counter()
    with pytest.warns(ParameterWarning, match="sqrt"):
        with pytest.raises(ValueError, match="max M = 6469693230") as info:
            moment_M2(ResonatorSpec(30, 2), 1e4, 0)
    assert time.perf_counter() - start < 2.0
    assert "1000000" in str(info.value) and "T = 10000" in str(info.value)


def test_certificate_moments_run_no_quadrature(monkeypatch):
    # the moments of P are window sums: no grid transform of R or P, no
    # integrate_refine, and one phihat call per moment over distinct xi
    def never(*args, **kwargs):
        raise AssertionError("moment integrand evaluated on a grid")

    calls = []
    original = rzeta.engine.bump_phi_hat

    def counting(xi):
        calls.append(np.array(xi, dtype=float))
        return original(xi)

    monkeypatch.setattr(rzeta.engine, "exp_sum_on_grid", never)
    monkeypatch.setattr(rzeta.engine, "integrate_refine", never)
    monkeypatch.setattr(quadrature, "integrate_refine", never)
    monkeypatch.setattr(rzeta.engine, "bump_phi_hat", counting)
    moment_M2(ResonatorSpec(3, 3), 2e4, 1)
    # one xi per distinct value of xi in the window
    assert len(calls) == 1 and calls[0].size > 1
    cert = certificate(ResonatorSpec(3, 3), 2e4, 1)
    assert len(calls) == 2  # one window pass serves M1 and M2
    for xi in calls:
        assert np.unique(xi).size == xi.size
    assert cert.ratio == pytest.approx(cert.rhs_prediction, rel=1e-6)


# float.hex of M1, Re M2, Im M2, and the certificate's ratio, M1 and |M2|,
# recorded when each moment had its own window pass over P's full
# coefficient array
_MOMENT_BITS = [
    (3, 3, 2e4, 0, "0x1.07ac000000000p+17", "0x1.d660aaaa9e225p+17",
     "0x1.926523ceeb2cep-20", "0x1.c8b0fcd6ddb56p+0",
     "0x1.07ac000000000p+17", "0x1.d660aaaa9e225p+17"),
    (3, 3, 2e4, 1, "0x1.07ac000000000p+17", "0x1.d95434ea4d96ep+16",
     "0x1.6bb35d8957edep-18", "0x1.cb8e8b555ac29p-1",
     "0x1.07ac000000000p+17", "0x1.d95434ea4d96ep+16"),
    (3, 3, 2e4, 2, "0x1.07ac000000000p+17", "0x1.4cd1c7af2a1f8p+17",
     "0x1.48b233181abd2p-16", "0x1.4322b949a902ep+0",
     "0x1.07ac000000000p+17", "0x1.4cd1c7af2a1f8p+17"),
    (3, 3, 1e5, 0, "0x1.4997000000000p+19", "0x1.25fc6aaaaaaaap+20",
     "0x0.0p+0", "0x1.c8b0fcd6e9e05p+0",
     "0x1.4997000000000p+19", "0x1.25fc6aaaaaaaap+20"),
    (3, 3, 1e5, 1, "0x1.4997000000000p+19", "0x1.27d4a112a7ca7p+19",
     "0x0.0p+0", "0x1.cb8e8b55b0a96p-1",
     "0x1.4997000000000p+19", "0x1.27d4a112a7ca7p+19"),
    (3, 3, 1e5, 2, "0x1.4997000000000p+19", "0x1.a006399bb7c7fp+19",
     "0x0.0p+0", "0x1.4322b94a40923p+0",
     "0x1.4997000000000p+19", "0x1.a006399bb7c7fp+19"),
    (3, 3, 1e7, 0, "0x1.017df80000000p+26", "0x1.cb5a66aaaaaaap+26",
     "0x0.0p+0", "0x1.c8b0fcd6e9e06p+0",
     "0x1.017df80000000p+26", "0x1.cb5a66aaaaaaap+26"),
    (3, 3, 1e7, 1, "0x1.017df80000000p+26", "0x1.ce3c3bad262c4p+25",
     "0x0.0p+0", "0x1.cb8e8b55b0a95p-1",
     "0x1.017df80000000p+26", "0x1.ce3c3bad262c4p+25"),
    (3, 3, 1e7, 2, "0x1.017df80000000p+26", "0x1.4504dd01a7943p+26",
     "0x0.0p+0", "0x1.4322b94a40922p+0",
     "0x1.017df80000000p+26", "0x1.4504dd01a7943p+26"),
    (5, 2, 1e4, 0, "0x1.d4bffffffffffp+15", "0x1.77f9fffd3bb9ap+16",
     "-0x1.e70e15bcef64fp-15", "0x1.9aaaaaa7a50abp+0",
     "0x1.d4bffffffffffp+15", "0x1.77f9fffd3bb9ap+16"),
    (5, 2, 1e4, 1, "0x1.d4bffffffffffp+15", "0x1.4c472ae6106c7p+15",
     "-0x1.a1f961ad7a123p-13", "0x1.6aefa999ab8a0p-1",
     "0x1.d4bffffffffffp+15", "0x1.4c472ae6106c7p+15"),
    (5, 2, 1e4, 2, "0x1.d4bffffffffffp+15", "0x1.dcbce6bc1efd5p+15",
     "-0x1.67431560d61fcp-11", "0x1.045cc9ecadaa4p+0",
     "0x1.d4bffffffffffp+15", "0x1.dcbce6bc1efd6p+15"),
]


@pytest.mark.parametrize(
    "case", _MOMENT_BITS, ids=lambda c: f"x{c[0]}-b{c[1]}-T{c[2]:g}-ell{c[3]}"
)
def test_one_window_pass_keeps_every_bit(case):
    # M1 as the n = 1 slice of M2's window, and c_n read only inside it,
    # leave every moment and certificate bit as it was
    x, b, T, ell, *bits = case
    spec = ResonatorSpec(x, b)
    m2 = moment_M2(spec, T, ell)
    cert = certificate(spec, T, ell)
    got = [moment_M1(spec, T), m2.real, m2.imag, cert.ratio, cert.M1,
           cert.M2_abs]
    assert [v.hex() for v in got] == bits


def test_certificate_never_builds_the_coefficient_array(monkeypatch):
    # at T = 1e7 the array of P took 240 MB; the window reads 27 c_n
    def never(*args, **kwargs):
        raise AssertionError("P's coefficient array built")

    monkeypatch.setattr(rzeta.engine, "dirichlet_coefficients", never)
    monkeypatch.setattr(rzeta.zeta, "dirichlet_coefficients", never)
    certificate(ResonatorSpec(3, 3), 1e7, 1)  # warm the phihat grid
    tracemalloc.start()
    try:
        cert = certificate(ResonatorSpec(3, 3), 1e7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert cert.ratio == pytest.approx(cert.rhs_prediction, rel=1e-6)


def test_certificate_small():
    spec = ResonatorSpec(3, 2)
    T = 1e5
    cert = certificate(spec, T, 0)
    assert isinstance(cert, Certificate)
    assert cert.rhs_prediction == pytest.approx(35 / 24, rel=1e-12)
    assert cert.ratio == pytest.approx(35 / 24, rel=0.05)


def test_certificate_enforces_peak_constraint():
    with pytest.raises(ValueError, match="sqrt"):
        certificate(ResonatorSpec(10, 4), 1e4, 0)  # peak 9261000 >> 100
    # T is refused first, not by sqrt(T) in the peak refusal's message
    for T in (-1.0, 0.0):
        with pytest.raises(ValueError, match=f"T must be positive, got {T}"):
            certificate(ResonatorSpec(3, 3), T, 0)


def test_certificate_sqrt_boundary_is_exact():
    spec = ResonatorSpec(3, 3)  # max M = 36, and 36^2 = 1296
    with pytest.raises(ValueError, match="sqrt"):
        certificate(spec, 1295, 0)
    assert certificate(spec, 1296, 0).ratio > 0
    # just below 1296 only the exact integer test can tell
    with pytest.raises(ValueError, match="sqrt"):
        certificate(spec, math.nextafter(1296.0, 0.0), 0)


def test_sqrt_check_never_builds_max_element(monkeypatch):
    def refuse(spec):
        raise AssertionError("max_element built")

    monkeypatch.setattr(rzeta.engine, "max_element", refuse)
    spec = ResonatorSpec(1e5, 2)  # max M has about 43000 digits
    with pytest.raises(ValueError, match=r"sqrt\(T\)"):
        certificate(spec, 2e4, 0)
    with pytest.warns(ParameterWarning, match="sqrt"):
        rzeta.engine._warn_if_peak_large(spec, 2e4, stacklevel=2)


def test_scan_basic():
    T = 2000.0
    report = scan_max(T, 0, 0.05)
    # endpoint t = T is a grid sample
    endpoint = abs(dirichlet_poly(EvalPoint(T, 0, T)))
    assert report.max_value >= endpoint - 1e-12
    assert T <= report.argmax_t <= 2 * T
    assert report.grid_points >= T / 0.05
    assert report.theoretical_constant == pytest.approx(
        EXP_GAMMA * math.log(math.log(T)), rel=1e-12
    )


def test_scan_step_refusal():
    with pytest.raises(ValueError, match="coarse"):
        scan_max(1e4, 0, 1.0)


def test_scan_deterministic_and_refine_monotone():
    a = scan_max(1500.0, 1, 0.05)
    b = scan_max(1500.0, 1, 0.05)
    assert a == b
    r = scan_max(1500.0, 1, 0.05, refine=True)
    assert r.max_value >= a.max_value


def test_scan_refines_on_the_taylor_model_of_P(monkeypatch):
    # the grid's coefficient array is the only one a refined scan builds,
    # and the refined maximum is |P| at a local maximum, from the exact sum
    built = []
    coefficients = rzeta.engine.dirichlet_coefficients

    def counted(*args):
        built.append(args)
        return coefficients(*args)

    monkeypatch.setattr(rzeta.engine, "dirichlet_coefficients", counted)
    T = 2e4
    grid = scan_max(T, 1, 0.068)
    report = scan_max(T, 1, 0.068, refine=True)
    assert built == [(T, 1), (T, 1)]
    assert report.max_value > grid.max_value
    exact = abs(dirichlet_poly(EvalPoint(report.argmax_t, 1, T)))
    assert report.max_value == pytest.approx(exact, rel=1e-11)
    for offset in (-1e-4, 1e-4):
        point = EvalPoint(report.argmax_t + offset, 1, T)
        assert abs(dirichlet_poly(point)) < exact


@pytest.mark.parametrize("T,ell", [(2e4, 300), (1e5, 280)])
def test_scan_refines_where_log_n_to_ell_plus_18_leaves_the_double_range(
    T, ell
):
    # P's coefficients fit, but (log N)^(ell+18) does not: the Taylor
    # moments overflowed with a numpy warning, and the refined scan
    # reported the grid maximum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = scan_max(T, ell, 0.068)
        report = scan_max(T, ell, 0.068, refine=True)
    assert report.max_value > grid.max_value
    logn, coeffs = rzeta.zeta.dirichlet_coefficients(T, ell)
    exact = abs(fsum_sum_at(logn, coeffs, report.argmax_t))
    assert report.max_value == pytest.approx(exact, rel=1e-8)


def test_scan_samples_max_consistency():
    t, v = scan_samples(1200.0, 0, 0.1)
    rep = scan_max(1200.0, 0, 0.1)
    assert rep.max_value >= np.max(v) - 1e-12
    assert t[0] == 1200.0 and t[-1] == pytest.approx(2400.0, rel=1e-12)


def test_scan_certificate_inequality_small():
    # the central mechanism at desk scale: grid sup beats |M2|/M1
    spec = ResonatorSpec(3, 2)
    T = 1e4
    report = scan_max(T, 0, grid_step=0.08, spec=spec)
    assert report.certificate_ratio is not None
    assert report.max_value + 0.01 >= report.certificate_ratio


def test_moment_M2_oracle_vs_dirichlet_tiny():
    # independent integrand routes agree within the approximation error
    spec = ResonatorSpec(3, 2)
    T = 600.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        m2d = moment_M2(spec, T, 1)
        m2o = oracle_M2(spec, T, 1)
        m1 = moment_M1(spec, T)
    bound = 10 * math.log(math.log(T)) * m1
    assert abs(m2d - m2o) <= bound
    # and the oracle mode is not wildly off the main term
    assert abs(m2o) == pytest.approx(abs(m2d), rel=0.2)


def test_moment_M2_has_one_route():
    params = inspect.signature(moment_M2).parameters
    assert list(params) == ["spec", "T", "ell"]


def test_vanishing_moment_converges():
    # M = {1} and ell = 1: S(x; 1) = 0, so M2 cancels to a tiny fraction
    # of its integrand's mass, which is what the agreement test scales by;
    # what is left is the oracle's own error (1e-8 per point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        m2 = oracle_M2(ResonatorSpec(2, 1), 1e3, 1)
        m1 = moment_M1(ResonatorSpec(2, 1), 1e3)
    assert abs(m2) <= 1e-8 * m1


def test_euler_maclaurin_refusal_has_one_home(monkeypatch):
    # the oracle moment refuses through zeta's own check, with its message
    monkeypatch.setattr(rzeta.zeta, "_EM_REFUSAL_BOUND", 0.0)
    message = r"Euler-Maclaurin error estimate .* exceeds"
    with pytest.raises(AccuracyError, match=message):
        rzeta.zeta.zeta_em_array(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        with pytest.raises(AccuracyError, match=message):
            oracle_M2(ResonatorSpec(3, 2), 600, 1)


def test_certificate_refuses_ell_before_the_moments(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("moment computed for a refused ell")

    monkeypatch.setattr(rzeta.engine, "moment_M1", never)
    monkeypatch.setattr(rzeta.engine, "moment_M2", never)
    with pytest.raises(ValueError, match="ell=200"):
        certificate(ResonatorSpec(3, 3), 2e4, 200)
