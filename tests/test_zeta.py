"""Dirichlet polynomial, Euler-Maclaurin zeta, Cauchy-circle derivatives."""

import inspect
import math
import re
import tracemalloc
import warnings

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
    _coefficient_blocks,
    RING_NODES,
    LinearGenerator,
    _zeta_ring_values,
    approx_error_probe,
    cauchy_derivative,
    cauchy_ring,
    dirichlet_coefficients,
    dirichlet_poly,
    dirichlet_terms,
    taylor_coefficients,
    zeta_deriv_cauchy,
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
        EvalPoint(5.0, 0, 1000.0).warn_if_off_range()


def test_zeta_em_classics():
    assert zeta_em_array(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zeta_em_array(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_em_self_consistency():
    s = 1 + 10j
    a = zeta_em_array(s, em_order=12, cut=256)
    b = zeta_em_array(s, em_order=24, cut=512)
    assert abs(a - b) < 1e-10


def test_zeta_em_rejects_pole_and_left_halfplane():
    with pytest.raises(ValueError):
        zeta_em_array(1.0 + 0j)
    with pytest.raises(ValueError):
        zeta_em_array(-0.5 + 3j)


def test_zeta_em_refuses_divergent_tail():
    # cut far too small for this height: the internal bound must trip
    with pytest.raises(AccuracyError):
        zeta_em_array(1 + 500j, em_order=4, cut=8)


def test_zeta_em_array_matches_scalar():
    s = np.array([2.0 + 0j, 1 + 10j, 0.8 + 25j])
    arr = zeta_em_array(s, em_order=14, cut=2048)
    for sv, av in zip(s, arr):
        assert zeta_em_array(sv, em_order=14, cut=2048) == pytest.approx(
            av, abs=1e-13
        )


def test_zeta_em_halved_steps_stable():
    gen = LinearGenerator(5)
    for _ in range(50):
        t = 10 + (10**4 - 10) * gen.uniform()
        a = zeta_em_array(1 + 1j * t)
        b = zeta_em_array(1 + 1j * t, em_order=16, cut=2 * _em_cut(t))
        assert abs(a - b) <= 1e-9


def _em_cut(t):
    from rzeta.zeta import _em_cut_for

    return _em_cut_for(t)


def test_cauchy_on_exp():
    offsets, _ = cauchy_ring(0, 0.5, 32)
    for ell in (0, 1, 3):
        d = cauchy_derivative(np.exp(offsets), ell, radius=0.5)
        assert d == pytest.approx(1.0, abs=1e-12)


def test_cauchy_exact_on_polynomials():
    coeffs = [2.0, -1.0, 0.5, 3.0, -0.25, 1.5]  # degree 5

    def poly(z):
        return sum(c * z**k for k, c in enumerate(coeffs))

    offsets, _ = cauchy_ring(0, 0.7, 64)
    for ell in range(6):
        expected = math.factorial(ell) * coeffs[ell]
        got = cauchy_derivative(poly(offsets), ell, radius=0.7)
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
    fine, coarse = (s0 + cauchy_ring(0, 0.25, n)[0] for n in (128, 64))
    gap = abs(
        cauchy_derivative(zeta_em_array(fine), 0)
        - cauchy_derivative(zeta_em_array(coarse), 0)
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
    rules, rule = [], rzeta.zeta.cauchy_derivative

    def recording(*args):
        rules.append(rule(*args))
        return rules[-1]

    monkeypatch.setattr(rzeta.zeta, "cauchy_derivative", recording)
    value = zeta_deriv_cauchy(s0, ell)
    monkeypatch.undo()
    ring = _zeta_ring_values(s0.real, s0.imag)
    fine = cauchy_derivative(ring, ell)
    from_even = cauchy_derivative(ring[::2], ell)
    assert value == fine == rules[0]
    assert from_even == rules[1]
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
    # B_50 is the highest entry em_order = 24 reads
    table = _bernoulli_table(50)
    assert len(table) == 51
    for k, value in enumerate(table):
        assert value == mpmath.bernfrac(k)
    assert _bernoulli_table(50) is table  # computed once


def test_dirichlet_coefficients_refuse_the_double_range():
    # (log n)^400/n passes 1e308 below n = 2e4: refused, without a numpy
    # warning, before any NaN reaches an integrand
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ell=400"):
            dirichlet_coefficients(2e4, 400)
        logn, coeffs = dirichlet_coefficients(2e4, 170)
    assert np.all(np.isfinite(coeffs))


def test_coefficient_blocks_refuse_a_sum_past_the_double_range():
    # dirichlet_terms refuses such an ell in log space first, so only a
    # direct call reaches the check made after the last block
    with pytest.raises(
        ValueError,
        match=re.escape("(log n)^400/n for n <= 1000000 leave the double"),
    ):
        list(_coefficient_blocks(10**6, 400, 4096))


@pytest.mark.parametrize(
    "build",
    [dirichlet_terms, dirichlet_coefficients,
     lambda T, ell: taylor_coefficients(T, ell, 1.5 * T)],
    ids=["terms", "coefficients", "taylor"],
)
def test_negative_ell_is_refused_before_any_coefficient(build):
    # (log n)^-1/n divided by zero at n = 1 with a numpy warning, and was
    # then refused as leaving the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ell must be >= 0, got -1$"):
            build(100, -1)


@pytest.mark.parametrize("T", [1e3, 2e4, 1e5])
def test_taylor_model_matches_the_exact_sum_within_its_bound(T):
    # 20 seeded (t0, h) with |h| <= pi/(4 log T), a scan step: the bound
    # is the phase rounding of both routes plus the model's truncation
    step = math.pi / (4 * math.log(T))
    gen = LinearGenerator(27)
    for i in range(20):
        ell = (0, 1, 2, 9)[i % 4]
        logn, coeffs = dirichlet_coefficients(T, ell)
        t0 = T * (1 + gen.uniform())
        t = t0 + step * (2 * gen.uniform() - 1)
        a = taylor_coefficients(T, ell, t0)
        assert a.shape == (19,)
        if ell <= 8:
            exact = dirichlet_poly(EvalPoint(t, ell, T))
        else:  # EvalPoint refuses ell > 8
            exact = np.sum(coeffs * np.exp(-1j * t * logn))
        rounding = math.fsum(coeffs * (t * logn + 4)) * 2**-53
        truncation = (math.pi / 4) ** 19 / math.factorial(19) * sum(coeffs)
        assert abs(np.polyval(a[::-1], t - t0) - exact) <= (
            rounding + truncation
        )


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
    # at 128 nodes) peaked at 129 MB when it was formed at full length,
    # and at 3.4 MB with three block-sized temporaries alive; one buffer
    # per block reads 1.57 MB
    _zeta_ring_values.cache_clear()
    tracemalloc.start()
    try:
        zeta_deriv_cauchy(1 + 150123.4j, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9e6


def test_polynomial_memory_is_bounded_by_its_block():
    # P at one height runs over n in blocks: 2e5 terms peaked near 10 MB
    # when its arrays were formed at full length
    point = EvalPoint(3e5, 1, 2e5)
    tracemalloc.start()
    try:
        dirichlet_poly(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_euler_maclaurin_memory_is_bounded_by_its_block():
    # the general head runs over n in blocks of bytes: at a cut of about
    # 7e5 it peaked at 33.6 MB when n and log n were formed at full length
    tracemalloc.start()
    try:
        value = zeta_em_array(1 + 2e6j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    with mpmath.workdps(20):
        ref = complex(mpmath.zeta(mpmath.mpc(1, 2e6)))
    # each phase t log n is rounded in double: 3.2e-10 here
    assert abs(value - ref) < 1e-8 * abs(ref)


def test_long_double_carries_the_oracle_phase():
    # the ring head reduces t log n mod 2 pi in long double; where long
    # double is the 53-bit double the oracle falls back to about 1e-10
    assert np.finfo(np.longdouble).nmant >= 63, (
        "the oracle's phase accuracy needs a long double with a 64-bit "
        f"significand or wider; this platform has {np.finfo(np.longdouble)}"
    )


@pytest.mark.parametrize("T", [1e3, 3 * 4096 + 1, 1e5])
def test_taylor_model_at_its_center_is_the_polynomial(T):
    # one evaluator: a_0 and P sum the same terms in the same order
    for ell in (0, 2, 8):
        for t in (1.5 * T + 0.3, -1.5 * T - 0.3):
            a = taylor_coefficients(T, ell, t)
            assert a[0] == dirichlet_poly(EvalPoint(t, ell, T))


def test_polynomial_forms_its_terms_in_one_pass(monkeypatch):
    passes = []
    blocks = rzeta.zeta._coefficient_blocks

    def counted(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(rzeta.zeta, "_coefficient_blocks", counted)
    dirichlet_poly(EvalPoint(1.5e4, 1, 1e4))
    assert len(passes) == 1


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e17])
def test_taylor_model_refuses_a_phase_with_no_digits(t):
    # |t| log N >= 2^53, or no number at all: every moment would be NaN
    # or meaningless
    with pytest.raises(ValueError) as refused:
        taylor_coefficients(1e4, 1, t)
    want = (f"t = {t:g} leaves no digit of the phase at N = 10000 terms: "
            f"|t| log N = {abs(t) * math.log(1e4):.3g} >= 2^53")
    assert str(refused.value) == want
    if math.isfinite(t):  # EvalPoint refuses the others first
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            dirichlet_poly(EvalPoint(t, 1, 1e4))


def test_taylor_model_refuses_ell_before_the_phase_and_the_sum_after():
    with pytest.raises(ValueError, match="ell must be >= 0"):
        taylor_coefficients(1e4, -1, math.nan)
    # a coefficient sum past the double range is refused after the last
    # block, so the phase is refused first
    with pytest.raises(ValueError, match="no digit of the phase"):
        list(rzeta.zeta._terms_at(10**6, 400, math.nan))
