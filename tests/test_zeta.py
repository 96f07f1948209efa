"""Dirichlet polynomial, Euler-Maclaurin zeta, Cauchy-circle derivatives."""

import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import rzeta.zeta
from rzeta.engine import moment_M2
from rzeta.errors import AccuracyError
from rzeta.resonator import ResonatorSpec
from rzeta.zeta import (
    EvalPoint,
    _bernoulli_table,
    RING_NODES,
    LinearGenerator,
    _zeta_ring_values,
    approx_error_probe,
    cauchy_derivative,
    cauchy_ring,
    dirichlet_coefficients,
    dirichlet_poly,
    dirichlet_terms,
    zeta_deriv_cauchy,
    zeta_em,
    zeta_em_array,
)


def zeta_prime_2_series_oracle():
    """zeta'(2) = -sum log(n)/n^2, accelerated with integral tail terms.

    For f(u) = log(u)/u^2: sum_{n>N} f(n) = (log N + 1)/N - f(N)/2
    - f'(N)/12 + O(N^-4 log N), from the Euler-Maclaurin tail with
    integral (log N + 1)/N.
    """
    N = 2000
    head = math.fsum(math.log(n) / n**2 for n in range(1, N + 1))
    fN = math.log(N) / N**2
    fpN = (1 - 2 * math.log(N)) / N**3
    tail = (math.log(N) + 1) / N - fN / 2 - fpN / 12
    return -(head + tail)


def test_dirichlet_poly_trivial():
    assert dirichlet_poly(EvalPoint(37.0, 0, 1.0)) == 1.0
    assert dirichlet_poly(EvalPoint(0.0, 0, 3.0)) == pytest.approx(11 / 6, rel=1e-15)
    expected = math.log(2) / 2 + math.log(3) / 3
    assert dirichlet_poly(EvalPoint(0.0, 1, 3.0)) == pytest.approx(
        expected, rel=1e-14
    )


def test_dirichlet_poly_conjugate_symmetry():
    gen = LinearGenerator(99)
    for _ in range(100):
        t = 1000.0 * gen.uniform()
        T = 50 + 400 * gen.uniform()
        ell = int(3 * gen.uniform())
        plus = dirichlet_poly(EvalPoint(t, ell, T))
        minus = dirichlet_poly(EvalPoint(-t, ell, T))
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12, abs=1e-12)


def test_evalpoint_validation():
    with pytest.raises(ValueError):
        EvalPoint(math.inf, 0, 10.0)
    with pytest.raises(ValueError):
        EvalPoint(1.0, 0, 0.5)
    with pytest.raises(ValueError):
        EvalPoint(1.0, 9, 10.0)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf])
def test_evalpoint_rejects_non_finite_cutoff(cutoff):
    with pytest.raises(ValueError, match="finite"):
        EvalPoint(1.0, 0, cutoff)


def test_evalpoint_advisory_warning():
    from rzeta.zeta import RangeAdvisory

    with pytest.warns(RangeAdvisory):
        dirichlet_poly(EvalPoint(5.0, 0, 1000.0), check_range=True)


def test_zeta_em_classics():
    assert zeta_em(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta_em(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_em_self_consistency():
    s = 1 + 10j
    a = zeta_em(s, em_order=12, cut=256)
    b = zeta_em(s, em_order=24, cut=512)
    assert abs(a - b) < 1e-10


def test_zeta_em_rejects_pole_and_left_halfplane():
    with pytest.raises(ValueError):
        zeta_em(1.0 + 0j)
    with pytest.raises(ValueError):
        zeta_em(-0.5 + 3j)


def test_zeta_em_refuses_divergent_tail():
    # cut far too small for this height: the internal bound must trip
    with pytest.raises(AccuracyError):
        zeta_em(1 + 500j, em_order=4, cut=8)


def test_zeta_em_array_matches_scalar():
    s = np.array([2.0 + 0j, 1 + 10j, 0.8 + 25j])
    arr = zeta_em_array(s, em_order=14, cut=2048)
    for sv, av in zip(s, arr):
        assert zeta_em(complex(sv), em_order=14, cut=2048) == pytest.approx(
            av, abs=1e-13
        )


def test_zeta_em_halved_steps_stable():
    gen = LinearGenerator(5)
    for _ in range(50):
        t = 10 + (10**4 - 10) * gen.uniform()
        a = zeta_em(1 + 1j * t)
        b = zeta_em(1 + 1j * t, em_order=16, cut=2 * _em_cut(t))
        assert abs(a - b) <= 1e-9


def _em_cut(t):
    from rzeta.zeta import _em_cut_for

    return _em_cut_for(t)


def test_cauchy_on_exp():
    for ell in (0, 1, 3):
        d = cauchy_derivative(np.exp, 0.0, ell, radius=0.5, nodes=32)
        assert d == pytest.approx(1.0, abs=1e-12)


def test_cauchy_exact_on_polynomials():
    coeffs = [2.0, -1.0, 0.5, 3.0, -0.25, 1.5]  # degree 5

    def poly(z):
        return sum(c * z**k for k, c in enumerate(coeffs))

    for ell in range(6):
        expected = math.factorial(ell) * coeffs[ell]
        got = cauchy_derivative(poly, 0.0, ell, radius=0.7, nodes=64)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_zeta_deriv_cauchy_at_2():
    assert zeta_deriv_cauchy(2.0 + 0j, 0) == pytest.approx(
        math.pi**2 / 6, abs=1e-10
    )
    assert zeta_deriv_cauchy(2.0 + 0j, 1) == pytest.approx(
        zeta_prime_2_series_oracle(), abs=1e-8
    )


def test_zeta_deriv_cauchy_pole_guard():
    with pytest.raises(ValueError):
        zeta_deriv_cauchy(1.1 + 0j, 0)


def test_zeta_deriv_cauchy_refuses_a_ring_left_of_re_s_0():
    with pytest.raises(ValueError, match=r"dips into Re\(s\) <= 0"):
        zeta_deriv_cauchy(0.2 + 5j, 0)


def test_zeta_deriv_cauchy_refuses_two_grid_gap_near_pole():
    # 0.05 from the circle to the pole: 64 and 128 nodes disagree, and
    # the reported gap is the gap between the two plain trapezoid rules
    s0 = 1.3 + 0j
    gap = abs(
        cauchy_derivative(zeta_em_array, s0, 0, nodes=128)
        - cauchy_derivative(zeta_em_array, s0, 0, nodes=64)
    )
    assert gap > 1e-8
    with pytest.raises(AccuracyError, match=f"{gap:.3e}"):
        zeta_deriv_cauchy(s0, 0)


def test_coarse_check_is_the_even_nodes_of_the_fine_ring(monkeypatch):
    s0, ell, n = 1 + 700j, 2, 64
    fine_offsets, fine_weights = cauchy_ring(ell, 0.25, 2 * n)
    offsets, weights = cauchy_ring(ell, 0.25, n)
    assert np.array_equal(fine_offsets[::2], offsets)
    assert np.array_equal(2 * fine_weights[::2], weights)
    # the two rules zeta_deriv_cauchy compares, as it sums them
    rules, fsum = [], rzeta.zeta._weighted_fsum

    def recording(vals, weights):
        rules.append(fsum(vals, weights))
        return rules[-1]

    monkeypatch.setattr(rzeta.zeta, "_weighted_fsum", recording)
    value = zeta_deriv_cauchy(s0, ell)
    monkeypatch.undo()
    ring = _zeta_ring_values(s0.real, s0.imag)
    fine = cauchy_derivative(lambda z: ring, s0, ell, nodes=2 * n)
    from_even = cauchy_derivative(lambda z: ring[::2], s0, ell, nodes=n)
    assert value == fine == rules[0]
    assert from_even == 2 * rules[1]
    # zeta_em_array rounds each phase Im(s) log n, about 700 * 6 * 2^-53
    # = 5e-13 rad, and its terms n^(-0.75) over n < 300 sum to below 20
    em = zeta_em_array(s0 + fine_offsets)
    assert np.max(np.abs(ring - em)) <= 1e-11
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s0, derivative=ell))
    assert abs(value - ref) <= 1e-11 * abs(ref)


def test_one_ring_evaluation_per_height():
    misses = _zeta_ring_values.cache_info().misses
    for k, t in enumerate((1234.5, 1345.6, 1456.7), start=1):
        for ell in (0, 1, 2):
            zeta_deriv_cauchy(1 + 1j * t, ell)
        assert _zeta_ring_values.cache_info().misses == misses + k


def test_ring_values_are_one_read_only_array_per_height():
    assert list(inspect.signature(_zeta_ring_values).parameters) == [
        "s0r",
        "s0i",
    ]
    ring = _zeta_ring_values(1.0, 2345.6)
    assert ring.dtype == np.complex128 and ring.shape == (2 * RING_NODES,)
    assert _zeta_ring_values(1.0, 2345.6) is ring
    with pytest.raises(ValueError, match="read-only"):
        ring[0] = 0


def test_lcg_reference_sequence():
    gen = LinearGenerator(42)
    seq = [gen.uniform() for _ in range(3)]
    # frozen reference: state' = (6364136223846793005*state + 1442695040888963407) mod 2^64
    state = 42
    expect = []
    for _ in range(3):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        expect.append((state >> 11) / 2**53)
    assert seq == expect


def test_probe_deterministic():
    a = approx_error_probe(1000.0, 1, 0, seed=7)
    b = approx_error_probe(1000.0, 1, 0, seed=7)
    assert a == b


def test_probe_small():
    res = approx_error_probe(1000.0, 5, 0, seed=123)
    assert res.bound_ratio <= 10
    res1 = approx_error_probe(1000.0, 5, 1, seed=123)
    assert res1.bound_ratio <= 10


def test_probe_validation():
    with pytest.raises(ValueError):
        approx_error_probe(50.0, 5, 0, seed=1)
    with pytest.raises(ValueError):
        approx_error_probe(1000.0, 0, 0, seed=1)


def test_bernoulli_table_is_exact():
    table = _bernoulli_table(26)
    assert len(table) == 27
    for k, value in enumerate(table):
        assert value == Fraction(*mpmath.bernfrac(k))
    assert _bernoulli_table(26) is table  # computed once


def test_dirichlet_coefficients_refuse_the_double_range():
    # (log n)^400/n passes 1e308 below n = 2e4: refused, without a numpy
    # warning, before any NaN reaches an integrand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ell=400"):
            dirichlet_coefficients(2e4, 400)
        logn, coeffs = dirichlet_coefficients(2e4, 170)
    assert np.all(np.isfinite(coeffs))


@pytest.mark.parametrize(
    "T, ell_star", [(10, 852), (100, 465), (2e4, 310), (1e5, 291), (1e6, 271)]
)
def test_dirichlet_terms_refuse_where_the_array_overflows(T, ell_star):
    # the log-space decision matches the array's own overflow around the
    # least ell the array route refuses
    n = np.arange(1, math.floor(T) + 1, dtype=np.float64)
    for ell in range(ell_star - 2, ell_star + 2):
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = not np.isfinite(np.sum(np.log(n) ** ell / n))
        assert overflows == (ell >= ell_star)
        if overflows:
            with pytest.raises(ValueError, match=f"double range at ell={ell}"):
                dirichlet_terms(T, ell)
        else:
            assert dirichlet_terms(T, ell) == n.size
    # the window reaches n = 39 only, and (log 39)^400/39 is finite
    with pytest.raises(ValueError, match="ell=400"):
        moment_M2(ResonatorSpec(3, 3), 2e4, 400)


def test_ring_memory_is_bounded_by_its_block():
    # the head runs over n in blocks: one ring at t = 1.5e5 (52k terms
    # at 128 nodes) peaked at 129 MB when it was formed at full length
    _zeta_ring_values.cache_clear()
    tracemalloc.start()
    try:
        zeta_deriv_cauchy(1 + 150123.4j, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_long_double_carries_the_oracle_phase():
    # the ring head reduces t log n mod 2 pi in long double; where long
    # double is the 53-bit double the oracle falls back to about 1e-10
    assert np.finfo(np.longdouble).nmant >= 63, (
        "the oracle's phase accuracy needs a long double with a 64-bit "
        f"significand or wider; this platform has {np.finfo(np.longdouble)}"
    )
