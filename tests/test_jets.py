"""Jet arithmetic against closed-form Taylor data."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rzeta.jets import (
    Jet,
    derivative_from_jet,
    jet_identity,
    jet_mul,
    jet_product,
    local_factor_jet,
)
from rzeta.precision import HIGH


def exp_jet(order, scale=1.0):
    """Jet of exp(scale * u) at u=0: c_k = scale^k / k!."""
    return Jet(0.0, tuple(scale**k / math.factorial(k) for k in range(order + 1)))


def geometric_jet(order):
    """Jet of 1/(1-u) at 0: all coefficients 1."""
    return Jet(0.0, (1.0,) * (order + 1))


def test_empty_product_is_refused():
    # an empty product has no center or order to build an identity jet at
    with pytest.raises(ValueError, match="at least one factor"):
        jet_product([])


def test_jet_product_takes_factors_and_prec_only():
    assert list(inspect.signature(jet_product).parameters) == [
        "factors",
        "prec",
    ]


def test_polynomial_product_exact():
    a = Jet(0.0, (1.0, 1.0, 0.0))   # 1 + u
    b = Jet(0.0, (1.0, -1.0, 0.0))  # 1 - u
    assert jet_mul(a, b).coeffs == (1.0, 0.0, -1.0)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        jet_mul(Jet(0.0, (1.0, 0.0)), Jet(1.0, (1.0, 0.0)))
    with pytest.raises(ValueError):
        jet_mul(Jet(0.0, (1.0, 0.0)), Jet(0.0, (1.0, 0.0, 0.0)))


def test_exp_product_matches_closed_form():
    # exp(u) * exp(u) = exp(2u); exp(u) * exp(-u) = 1
    order = 6
    twice = jet_mul(exp_jet(order), exp_jet(order))
    for k, c in enumerate(twice.coeffs):
        assert c == pytest.approx(2.0**k / math.factorial(k), rel=1e-12)
    one = jet_mul(exp_jet(order), exp_jet(order, -1.0))
    assert one.coeffs[0] == pytest.approx(1.0, rel=1e-14)
    for c in one.coeffs[1:]:
        assert abs(c) < 1e-14


def test_geometric_product_matches_closed_form():
    # 1/(1-u)^2 has Taylor coefficients k+1
    order = 6
    sq = jet_mul(geometric_jet(order), geometric_jet(order))
    for k, c in enumerate(sq.coeffs):
        assert c == pytest.approx(k + 1, rel=1e-13)


def test_derivative_extraction():
    j = exp_jet(5)
    for ell in range(6):
        assert derivative_from_jet(j, ell) == pytest.approx(1.0, rel=1e-12)
    assert derivative_from_jet(Jet(0.0, (5.0, 0.0, 3.0)), 2) == 6.0
    with pytest.raises(ValueError):
        derivative_from_jet(j, 6)


def test_local_factor_b1_is_constant_one():
    j = local_factor_jet(2, 1, 3)
    assert j.coeffs == (1.0, 0.0, 0.0, 0.0)


def test_local_factor_p2_b2():
    # 2 + 2^(-s) at s=1: value 2.5, derivative -(log 2)/2, second (log 2)^2/2
    j = local_factor_jet(2, 2, 2)
    assert j.coeffs[0] == pytest.approx(2.5, rel=1e-15)
    assert j.coeffs[1] == pytest.approx(-math.log(2) / 2, rel=1e-14)
    assert j.coeffs[2] == pytest.approx(math.log(2) ** 2 / 4, rel=1e-14)


def test_local_factor_p3_b2_order0():
    j = local_factor_jet(3, 2, 0)
    assert j.coeffs[0] == pytest.approx(2 + 1 / 3, rel=1e-15)


def test_scalar_product_of_local_values():
    f = jet_product([local_factor_jet(2, 2, 0), local_factor_jet(3, 2, 0)])
    assert f.coeffs[0] == pytest.approx(35 / 6, rel=1e-14)


def test_local_factor_product_first_derivative():
    # -F'(1) for x=3, b=2 equals log2 + (2/3)log3 + (1/6)log6
    f = jet_product([local_factor_jet(2, 2, 1), local_factor_jet(3, 2, 1)])
    expected = math.log(2) + (2 / 3) * math.log(3) + (1 / 6) * math.log(6)
    assert -derivative_from_jet(f, 1) == pytest.approx(expected, rel=1e-13)


def test_local_factor_high_precision():
    import mpmath

    j = local_factor_jet(2, 2, 2, HIGH)
    with mpmath.workdps(50):
        assert abs(j.coeffs[1] + mpmath.log(2) / 2) < mpmath.mpf(10) ** -48


small_jets = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=4, max_size=4
).map(lambda cs: Jet(0.0, tuple(cs)))


@settings(max_examples=60, deadline=None)
@given(small_jets, small_jets, small_jets)
def test_product_associative_commutative(a, b, c):
    lhs = jet_mul(jet_mul(a, b), c)
    rhs = jet_mul(a, jet_mul(b, c))
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert u == pytest.approx(v, rel=1e-12, abs=1e-12)
    ab, ba = jet_mul(a, b), jet_mul(b, a)
    for u, v in zip(ab.coeffs, ba.coeffs):
        assert u == pytest.approx(v, rel=1e-14, abs=1e-14)


def test_fold_order_independence_within_contract():
    jets = [local_factor_jet(p, 3, 4) for p in (2, 3, 5, 7, 11, 13)]
    fwd = jet_product(jets)
    rev = jet_product(jets[::-1])
    for u, v in zip(fwd.coeffs, rev.coeffs):
        assert u == pytest.approx(v, rel=1e-12)


def test_identity_jet():
    j = jet_identity(1.0, 3)
    k = local_factor_jet(5, 2, 3)
    assert jet_mul(j, k).coeffs == k.coeffs


def test_double_order_limit():
    # ell! c_ell needs ell! as a double: 170! is the last that fits
    assert len(local_factor_jet(3, 2, 170).coeffs) == 171
    with pytest.raises(ValueError, match="ell=171.*--precision"):
        local_factor_jet(3, 2, 171)
    assert len(local_factor_jet(3, 2, 171, HIGH).coeffs) == 172
