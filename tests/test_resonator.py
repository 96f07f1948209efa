"""Resonator sets, weighted sums, partition bound.

The oracle here is deliberately naive: enumerate the divisor-closed set
as exact integers with ``Fraction`` arithmetic and evaluate the sums
literally, with no multiplicity collapse and no Euler products.
"""

import bisect
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

import rzeta
from rzeta.errors import count_text
from rzeta.precision import DOUBLE, Precision
from rzeta.primes import sieve_primes
from rzeta.resonator import (
    ENUMERATION_CAP,
    ResonatorSpec,
    S_brute,
    S_jet,
    bound_constants,
    enumerate_M,
    layer_product,
    layer_sum,
    layer_sum_brute,
    max_element,
    partition_lower_bound,
    partition_over_cardinality,
    proposition_report,
    resonator_cardinality,
    riemann_lower_prefix,
    riemann_sum_bracket,
    s_over_cardinality_jet,
    yang_factor,
    _refuse_by_pi_bound,
)
from rzeta.zeta import EvalPoint

HIGH = Precision(50)


# ---------------------------------------------------------------- oracle --

def oracle_primes(x):
    return [p for p in range(2, int(x) + 1) if all(p % d for d in range(2, p))]


def oracle_M(x, b):
    """All divisors of prod p^(b-1) as exact ints."""
    vals = [1]
    for p in oracle_primes(x):
        vals = [v * p**e for v in vals for e in range(b)]
    return sorted(vals)


def oracle_S(x, b, ell):
    """Literal double sum over m and k|m, exact k, float log powers."""
    total = Fraction(0) if ell == 0 else 0.0
    for m in oracle_M(x, b):
        for k in range(1, m + 1):
            if m % k == 0:
                if ell == 0:
                    total += Fraction(1, k)
                else:
                    total += math.log(k) ** ell / k
    return total


def S_nested(spec: ResonatorSpec, ell: int) -> float:
    """S(x; l) as the literal double sum over m in M and divisors k | m.

    Oracle route: makes no use of the multiplicity collapse, so it checks
    both S_brute and S_jet.  Cost |M|^2; small specs only.
    """
    elements = enumerate_M(spec)
    return math.fsum(
        math.log(k) ** ell / k for m in elements for k in elements if m % k == 0
    )


def oracle_layer(x, b, J, i):
    """sum over k in M_i of w(k)/k, exact rational."""
    primes = oracle_primes(x)
    thr = x ** (i / J)
    total = Fraction(0)
    for exps in itertools.product(range(b), repeat=len(primes)):
        if any(e > 0 and p > thr for p, e in zip(primes, exps)):
            continue
        k = math.prod(p**e for p, e in zip(primes, exps))
        w = math.prod(b - e for e in exps)
        total += Fraction(w, k)
    return total


def reference_s_over_m(x, b, ell_max, dps=120):
    """[S(x; l)/|M| for l <= ell_max] at ``dps`` digits: the Taylor
    coefficients of each normalized local factor summed over every
    v < b (no cutoff), multiplied as power series."""
    with mpmath.workdps(dps):
        prod = [mpmath.mpf(1)] + [mpmath.mpf(0)] * ell_max
        for p in oracle_primes(x):
            logp = mpmath.log(p)
            local = [
                mpmath.fsum(
                    (1 - mpmath.mpf(v) / b) * (-v * logp) ** k
                    * mpmath.mpf(p) ** -v
                    for v in range(b)
                ) / math.factorial(k)
                for k in range(ell_max + 1)
            ]
            prod = [
                mpmath.fsum(prod[i] * local[k - i] for i in range(k + 1))
                for k in range(ell_max + 1)
            ]
        return [
            (-1) ** ell * math.factorial(ell) * prod[ell]
            for ell in range(ell_max + 1)
        ]


def rel_error(value, ref):
    with mpmath.workdps(120):
        return abs(mpmath.mpf(value) / ref - 1)


# ----------------------------------------------------------------- tests --

def test_cardinality():
    assert resonator_cardinality(ResonatorSpec(3, 2)) == 4
    assert resonator_cardinality(ResonatorSpec(10, 3)) == 81
    assert resonator_cardinality(ResonatorSpec(2, 5)) == 5


def test_max_element():
    assert max_element(ResonatorSpec(3, 2)) == 6
    assert max_element(ResonatorSpec(3, 3)) == 36
    assert max_element(ResonatorSpec(10, 2)) == 210


def test_enumerate_small_sets():
    spec = ResonatorSpec(3, 2)
    vals = sorted(enumerate_M(spec))
    assert vals == [1, 2, 3, 6]
    assert enumerate_M(ResonatorSpec(3, 1)) == [1]
    vals5 = sorted(enumerate_M(ResonatorSpec(5, 2)))
    assert vals5 == [1, 2, 3, 5, 6, 10, 15, 30]  # divisors of 30
    assert vals5 == oracle_M(5, 2)


def test_enumerate_cap_refusal():
    with pytest.raises(ValueError, match="cap"):
        enumerate_M(ResonatorSpec(30, 4), cap=1000)
    with pytest.raises(ValueError, match="cap"):
        S_brute(ResonatorSpec(30, 4), 0, cap=1000)  # in double
    with pytest.raises(ValueError, match="cap"):
        S_brute(ResonatorSpec(30, 4), 0, cap=1000, prec=HIGH)
    with pytest.raises(ValueError, match="cap"):
        layer_sum_brute(ResonatorSpec(30, 4), 1, cap=1000)
    # |M| is named as a power: 1000^9592 has too many digits to print
    with pytest.raises(ValueError, match="1000\\^9592 exceeds enumeration cap"):
        enumerate_M(ResonatorSpec(1e5, 1000))
    # S_brute decides it from pi(x) > x/ln x, before the sieve
    with pytest.raises(
        ValueError, match="1000\\^8685 at --x 100000 --b 1000.* enumeration cap"
    ):
        S_brute(ResonatorSpec(1e5, 1000), 0)


@pytest.mark.parametrize("log2_limit", [math.log2(ENUMERATION_CAP), 1024],
                         ids=["cap", "double"])
def test_pi_bound_refuses_only_what_the_exact_test_refuses(log2_limit):
    # at each x, the smallest b the bound refuses already has b^pi(x)
    # past the limit: past the cap, or a count float() cannot hold
    primes = sieve_primes(5000)

    def refused(x, b):
        try:
            _refuse_by_pi_bound(ResonatorSpec(x, b), log2_limit, "", ValueError)
        except ValueError:
            return True
        return False

    for x in range(17, 5001, 31):
        # not refused at b = 1; refused at 2^(limit + 1), where n >= 1
        low, high = 1, 2 ** (math.ceil(log2_limit) + 1)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if refused(x, mid) else (mid, high)
        count = high ** bisect.bisect_right(primes, x)
        if log2_limit == 1024:
            with pytest.raises(OverflowError):
                float(count)
        else:
            assert count > ENUMERATION_CAP
    # below 17 the bound is not known to hold, and past the sieve's limit
    # the sieve refuses x itself
    assert not refused(16.9, 10**9) and not refused(1.1e8, 2)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="finite"):
        ResonatorSpec(x, 2)


@pytest.mark.parametrize("b, J", [(2.5, 1), (2.0, 1), (3, 1.5), ("3", 1)])
def test_spec_rejects_non_integer_b_and_J(b, J):
    with pytest.raises(ValueError, match="integer"):
        ResonatorSpec(3, b, J)


@pytest.mark.parametrize(
    "build, field, refused, message",
    [
        (lambda: Precision(50), "digits", lambda: Precision(49),
         "high-precision mode requires 50 to 1000 digits, got 49"),
        (lambda: ResonatorSpec(3, 3), "x", lambda: ResonatorSpec(3, 0),
         "b must be an integer >= 1, got 0"),
        (lambda: EvalPoint(1.5e4, 1, 1e4), "t",
         lambda: EvalPoint(1.5e4, 9, 1e4), "ell=9 outside [0, 8]"),
    ],
    ids=["Precision", "ResonatorSpec", "EvalPoint"],
)
def test_value_types_are_frozen_and_equal_by_value(
    build, field, refused, message
):
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 60)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before
    twin = build()
    assert twin is not value and twin == value and hash(twin) == hash(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()


def test_elements_are_divisors_in_exponent_order():
    spec = ResonatorSpec(13, 3)
    elements = enumerate_M(spec)
    peak = max_element(spec)
    assert all(type(m) is int and peak % m == 0 for m in elements)
    # lexicographic exponent order, first prime slowest
    assert elements == [
        math.prod(p**e for p, e in zip(spec.primes, exps))
        for exps in itertools.product(range(spec.b), repeat=len(spec.primes))
    ]
    # M is the integers it holds: no element class is exported
    assert not hasattr(rzeta.resonator, "FactoredElement")


def test_S_small_values():
    spec = ResonatorSpec(3, 2)
    assert S_brute(spec, 0) == pytest.approx(35 / 6, rel=1e-14)
    assert S_nested(spec, 0) == pytest.approx(float(oracle_S(3, 2, 0)), rel=1e-14)
    expected1 = math.log(2) + (2 / 3) * math.log(3) + (1 / 6) * math.log(6)
    assert S_brute(spec, 1) == pytest.approx(expected1, rel=1e-13)
    assert S_nested(spec, 1) == pytest.approx(expected1, rel=1e-13)
    assert S_jet(spec, 0) == pytest.approx(35 / 6, rel=1e-13)
    assert S_jet(spec, 1) == pytest.approx(expected1, rel=1e-13)


def test_S_trivial_resonator():
    for x in (2, 5, 17):
        spec = ResonatorSpec(x, 1)
        assert S_brute(spec, 0) == 1.0
        assert S_jet(spec, 0) == pytest.approx(1.0, rel=1e-15)
        for ell in (1, 2, 3):
            assert S_brute(spec, ell) == 0.0
            assert abs(S_jet(spec, ell)) < 1e-15


def test_S_routes_agree_spot():
    spec = ResonatorSpec(13, 3)
    for ell in (0, 2, 4):
        sb = S_brute(spec, ell)
        assert S_jet(spec, ell) == pytest.approx(sb, rel=1e-10)
        assert S_nested(spec, ell) == pytest.approx(sb, rel=1e-10)


def test_S_brute_high_precision_agrees():
    spec = ResonatorSpec(7, 2)
    for ell in (0, 1, 3):
        hi = S_brute(spec, ell, prec=HIGH)
        assert float(hi) == pytest.approx(S_brute(spec, ell), rel=1e-12)
        hj = S_jet(spec, ell, prec=HIGH)
        with mpmath.workdps(50):
            assert abs(hi - hj) <= abs(hi) * mpmath.mpf(10) ** -40 + mpmath.mpf(10) ** -40
    # against sum w(k) (log k)^l / k over exponent tuples, exact k and w,
    # summed at 80 digits: the 50-digit sum keeps 48 digits at l >= 1
    for x, b in [(13, 3), (7, 4), (5, 6)]:
        primes = oracle_primes(x)
        for ell in (1, 3, 10):
            hi = S_brute(ResonatorSpec(x, b), ell, prec=HIGH)
            with mpmath.workdps(80):
                terms = []
                for exps in itertools.product(range(b), repeat=len(primes)):
                    k = math.prod(p**e for p, e in zip(primes, exps))
                    w = math.prod(b - e for e in exps)
                    terms.append(w * mpmath.log(k) ** ell / k)
                ref = mpmath.fsum(terms)
                assert abs(hi - ref) <= ref * mpmath.mpf(10) ** -48, (x, b, ell)


def test_layer_sums():
    spec = ResonatorSpec(3, 2, J=2)
    assert layer_sum(spec, 0) == pytest.approx(4.0, rel=1e-15)
    assert layer_sum(spec, 1) == pytest.approx(4.0, rel=1e-15)  # x^(1/2) < 2
    assert layer_sum(spec, 2) == pytest.approx(35 / 6, rel=1e-14)
    spec1 = ResonatorSpec(3, 2, J=1)
    assert layer_sum(spec1, 1) == pytest.approx(35 / 6, rel=1e-14)
    with pytest.raises(ValueError):
        layer_sum(spec, 3)


def test_layer_identity_exact_oracle():
    for x, b, J in [(3, 2, 2), (10, 2, 3), (12, 3, 2), (6, 4, 5)]:
        spec = ResonatorSpec(x, b, J)
        for i in range(J + 1):
            exact = oracle_layer(x, b, J, i)
            assert layer_sum(spec, i) == pytest.approx(float(exact), rel=1e-12)
            assert layer_sum_brute(spec, i) == pytest.approx(
                float(exact), rel=1e-12
            )
            hi = layer_sum_brute(spec, i, prec=HIGH)
            with mpmath.workdps(50):
                ref = mpmath.mpf(exact.numerator) / exact.denominator
                assert abs(hi - ref) <= ref * mpmath.mpf(10) ** -45


def test_boundary_prime_included():
    # x=4, J=2: x^(1/2) = 2 exactly, so p=2 belongs to layer 1
    spec = ResonatorSpec(4, 2, J=2)
    assert spec.layer_primes(1) == (2,)
    assert layer_sum(spec, 1) == pytest.approx(
        float(oracle_layer(4, 2, 2, 1)), rel=1e-13
    )
    # exact powers put a prime on a layer boundary (8^(1/3) = 2,
    # 27^(1/3) = 9^(1/2) = 3, 25^(1/2) = 5, 121^(1/2) = 11), or, as
    # rounded, a hair below one (125^(1/3) = 4.999...); each layer must
    # hold what the literal filter p <= x^(i/J) keeps
    for x, J in [(8, 3), (27, 3), (9, 2), (25, 2), (121, 2), (125, 3)]:
        spec = ResonatorSpec(x, 2, J=J)
        for i in range(J + 1):
            literal = tuple(
                p for p in oracle_primes(x) if p <= x ** (i / J)
            )
            assert spec.layer_primes(i) == literal, (x, J, i)
    assert ResonatorSpec(27, 2, J=3).layer_primes(1) == (2, 3)
    assert ResonatorSpec(125, 2, J=3).layer_primes(1) == (2, 3)


def test_partition_bound_values():
    spec = ResonatorSpec(3, 2, J=1)
    assert partition_lower_bound(spec, 0) == pytest.approx(11 / 6, rel=1e-13)
    for spec_any in (ResonatorSpec(10, 3, J=1), ResonatorSpec(5, 2, J=1)):
        for ell in (1, 2, 5):
            assert partition_lower_bound(spec_any, ell) == 0.0
    spec22 = ResonatorSpec(3, 2, J=2)
    expected = math.log(3) * 0.5 * (35 / 6 - 4)
    assert partition_lower_bound(spec22, 1) == pytest.approx(expected, rel=1e-13)
    assert partition_lower_bound(spec22, 1) <= S_brute(spec22, 1)


def test_partition_below_S_with_strictness():
    for x, b, J in [(3, 2, 2), (10, 3, 2), (13, 2, 4), (30, 2, 5)]:
        spec = ResonatorSpec(x, b, J)
        for ell in range(4):
            lo = partition_lower_bound(spec, ell)
            s = S_jet(spec, ell)
            assert lo <= s + abs(s) * 1e-12
            if ell >= 1 and J >= 2 and b >= 2 and x >= 3:
                assert lo < s


def test_partition_monotone_in_J_reported():
    # empirical observation on this grid; reported, not asserted by theory
    vals = [
        partition_lower_bound(ResonatorSpec(100, 50, J), 1) for J in (1, 2, 4, 8)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_riemann_bracket():
    assert riemann_sum_bracket(0, 5) == pytest.approx((1.0, 1.0, 1.2))
    assert riemann_sum_bracket(1, 2) == pytest.approx((0.25, 0.5, 0.75))
    lo, integral, up = riemann_sum_bracket(2, 4)
    assert lo == pytest.approx(7 / 32, rel=1e-15)
    assert integral == pytest.approx(1 / 3, rel=1e-15)
    assert up == pytest.approx(7 / 32 + 0.25, rel=1e-14)


def test_riemann_prefix_matches_scalar():
    for ell in (0, 1, 3, 17, 50):
        pref = riemann_lower_prefix(ell, 1000)
        for J in (1, 2, 7, 100, 999, 1000):
            assert pref[J - 1] == pytest.approx(
                riemann_sum_bracket(ell, J).lower, rel=1e-12, abs=1e-15
            )


def test_yang_factor():
    assert yang_factor(1) == 2.0
    assert yang_factor(2) == pytest.approx(2.25, rel=1e-15)
    assert yang_factor(10) == pytest.approx(1.1**10, rel=1e-12)
    with pytest.raises(ValueError):
        yang_factor(0)


@pytest.mark.parametrize("ell", [-1, -2])
def test_bound_constants_refuses_negative_ell(ell):
    # -1 divided by zero in e^gamma/(l+1); -2 returned negative constants
    with pytest.raises(ValueError, match=f"ell must be >= 0, got {ell}"):
        bound_constants(ell, 1e4)


def test_yang_factor_increasing_below_e():
    ells = [1, 2, 3, 5, 10, 100, 10**4, 10**6 - 1, 10**6]
    vals = [yang_factor(e) for e in ells]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < math.e


def test_proposition_small():
    rep = proposition_report(ResonatorSpec(3, 2, J=1), 0)
    assert rep.S_over_M == pytest.approx(35 / 24, rel=1e-12)
    assert rep.target == pytest.approx(1.9567, rel=1e-4)
    assert rep.ratio == pytest.approx(0.745, abs=0.002)
    assert rep.partition_bound_over_M == pytest.approx(11 / 24, rel=1e-12)


def test_proposition_trivial_b1():
    for x in (3, 10, 100):
        rep = proposition_report(ResonatorSpec(x, 1, J=1), 0)
        assert rep.S_over_M == pytest.approx(1.0, rel=1e-14)


def test_proposition_scales_without_overflow():
    # The x=10^4, b=10^3 regime: |M| is astronomically large, the
    # normalized report must still come out finite and close to 1.
    rep = proposition_report(ResonatorSpec(10**4, 10**3, J=3), 0)
    assert rep.ratio >= 0.9
    assert rep.error_budget < 1.5
    assert rep.partition_bound_over_M <= rep.S_over_M


def test_S_jet_overflow_guard():
    with pytest.raises(OverflowError, match="b\\^pi"):
        S_jet(ResonatorSpec(10**4, 10**3), 0)
    v = S_jet(ResonatorSpec(10**4, 10**3), 0, prec=HIGH)
    assert v > 0
    # every |M|-scaled value refuses the same way
    spec = ResonatorSpec(10**4, 10**3, J=3)
    with pytest.raises(OverflowError, match="b\\^pi"):
        layer_sum(spec, 1)
    with pytest.raises(OverflowError, match="b\\^pi"):
        partition_lower_bound(spec, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ResonatorSpec(1.5, 2)
    with pytest.raises(ValueError):
        ResonatorSpec(3, 0)
    with pytest.raises(ValueError):
        ResonatorSpec(3, 2, 0)


def test_s_over_m_against_120_digit_reference():
    # the local jets are divided by b, so no rounded 1/b biases the
    # 168 factors the same way
    spec = ResonatorSpec(1000, 7)
    ref = reference_s_over_m(1000, 7, 3)
    for ell in range(4):
        assert rel_error(s_over_cardinality_jet(spec, ell), ref[ell]) < 5e-15
        hi = s_over_cardinality_jet(spec, ell, HIGH)
        assert rel_error(hi, ref[ell]) < 3e-50


@pytest.mark.parametrize("ell", [20, 40])
def test_local_cutoff_follows_the_order(ell):
    # at p = 2 the terms (v log 2)^ell 2^(-v) peak near 2e17 (ell = 20)
    # and 5e46 (ell = 40); a cutoff on 2^(-v) alone drops terms far
    # above the working precision
    spec = ResonatorSpec(5, 400)
    ref = reference_s_over_m(5, 400, ell)[ell]
    assert rel_error(s_over_cardinality_jet(spec, ell), ref) < 1e-14
    assert rel_error(s_over_cardinality_jet(spec, ell, HIGH), ref) < 1e-48


@pytest.mark.parametrize("prec", [DOUBLE, HIGH], ids=["double", "high"])
def test_proposition_reads_the_public_values(prec):
    for spec, ell in [
        (ResonatorSpec(30, 4, J=3), 2),
        (ResonatorSpec(100, 50, J=4), 1),
        (ResonatorSpec(3, 1, J=2), 1),
    ]:
        rep = proposition_report(spec, ell, prec)
        assert rep.S_over_M == s_over_cardinality_jet(spec, ell, prec)
        assert rep.partition_bound_over_M == partition_over_cardinality(
            spec, ell, prec
        )


def test_euler_fold_holds_no_layer_of_jets():
    # the fold reads its local jets from a generator: the 9592 primes
    # below 1e5 cost one jet at a time, not a list of 9592 jets
    spec = ResonatorSpec(1e5, 2)
    assert len(spec.primes) == 9592  # cached now, so not counted
    tracemalloc.start()
    try:
        s_over_cardinality_jet(spec, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak


def test_count_text_past_4300_digits():
    # str() refuses an int of more than 4300 digits; 8^78498 has 70891
    assert count_text(8**78498) == "a 70891-digit integer"
    assert count_text(-(10**5000)) == "a 5001-digit integer"
    assert count_text(10**400 - 1) == "a 400-digit integer"


def test_layer_sum_past_the_double_range_names_the_count():
    # |M| = 8^78498 at x = 1e6: the refusal reports its digits
    with pytest.raises(OverflowError, match="a 70891-digit integer") as info:
        layer_sum(ResonatorSpec(1e6, 8), 1)
    assert "exceeds the double range" in str(info.value)
