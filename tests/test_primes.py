"""Prime table, Mertens products, iterated logs."""

import math
from fractions import Fraction

import mpmath
import pytest

from rzeta import precision
from rzeta.errors import AccuracyError
from rzeta.precision import HIGH, Precision, check_constants, constants
from rzeta.primes import (
    PrimeTable,
    iterated_log,
    mertens_product,
    prime_count,
    sieve_primes,
)


def segmented_count(limit, block=10_000):
    """Independent prime-count oracle: trial-division-seeded segmented sieve."""
    base = []
    n = 2
    while n * n <= limit:
        if all(n % p for p in base):
            base.append(n)
        n += 1
    count = 0
    lo = 2
    while lo <= limit:
        hi = min(lo + block - 1, limit)
        flags = [True] * (hi - lo + 1)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            for m in range(start, hi + 1, p):
                flags[m - lo] = False
        count += sum(flags)
        lo = hi + 1
    return count + sum(1 for p in base if p * p > limit and p <= limit)


def is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_small_tables():
    assert sieve_primes(3).primes == (2, 3)
    t10 = sieve_primes(10)
    assert t10.primes == (2, 3, 5, 7)
    assert prime_count(t10, 10) == 4


def test_table_invariants():
    t = sieve_primes(2000)
    assert all(is_prime_trial(p) for p in t.primes)
    assert list(t.primes) == sorted(set(t.primes))
    assert prime_count(t, t.limit) == len(t.primes)


def test_pi_1e4_against_segmented_sieve():
    t = sieve_primes(10**4)
    assert len(t.primes) == 1229
    assert segmented_count(10**4) == 1229


def test_prime_count_queries():
    t10 = sieve_primes(10)
    assert prime_count(t10, 1.9) == 0
    t100 = sieve_primes(100)
    assert prime_count(t100, math.sqrt(100)) == 4
    with pytest.raises(ValueError):
        prime_count(t10, 11)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_mertens_small_exact():
    t = sieve_primes(100)
    assert mertens_product(t, 3).value == pytest.approx(3.0, rel=1e-15)
    m10 = mertens_product(t, 10)
    # direct 4-factor product: 2 * 3/2 * 5/4 * 7/6 = 35/8
    assert m10.value == pytest.approx(float(Fraction(35, 8)), rel=1e-15)
    expected_ratio = 4.375 / (constants().exp_gamma * math.log(10))
    assert m10.ratio_to_asymptotic == pytest.approx(expected_ratio, rel=1e-12)


def test_mertens_1e4_near_asymptotic():
    t = sieve_primes(10**4)
    m = mertens_product(t, 10**4)
    # independent route: product accumulated as an exact fraction, coarsely
    frac = Fraction(1)
    for p in t.primes:
        frac *= Fraction(p, p - 1)
    assert m.value == pytest.approx(float(frac), rel=1e-12)
    assert abs(m.ratio_to_asymptotic - 1) <= 0.05


def test_mertens_ratio_improves_along_decades():
    t = sieve_primes(10**4)
    devs = [
        abs(mertens_product(t, 10**e).ratio_to_asymptotic - 1) for e in (2, 3, 4)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_mertens_monotone_in_x():
    t = sieve_primes(200)
    values = [mertens_product(t, p).value for p in t.primes[1:]]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_mertens_domain_errors():
    t = sieve_primes(100)
    with pytest.raises(ValueError):
        mertens_product(t, 1.5)
    with pytest.raises(ValueError):
        mertens_product(t, 101)


def test_iterated_log():
    assert iterated_log(math.e, 1) == pytest.approx(1.0, rel=1e-15)
    assert iterated_log(math.exp(math.e), 2) == pytest.approx(1.0, rel=1e-14)
    assert iterated_log(10**6, 2) == pytest.approx(2.6257919144760113, rel=1e-12)
    with pytest.raises(ValueError):
        iterated_log(1.0, 2)  # log(1) = 0: next stage undefined
    with pytest.raises(ValueError):
        iterated_log(2.0, 2)  # log(log 2) < 0


def test_constants_self_check():
    check_constants()
    check_constants(HIGH)
    c = constants()
    assert c.euler_gamma == pytest.approx(0.5772156649015329, abs=1e-16)
    assert math.exp(c.euler_gamma) == pytest.approx(c.exp_gamma, rel=1e-15)


@pytest.mark.parametrize("digits", [50, 60, 120])
def test_high_precision_gamma_has_every_digit(digits):
    prec = Precision(digits)
    check_constants(prec)
    c = constants(prec)
    with mpmath.workdps(digits + 10):
        tol = mpmath.mpf(10) ** -digits
        assert abs(c.euler_gamma / mpmath.euler - 1) <= tol
        assert abs(c.exp_gamma / mpmath.exp(mpmath.euler) - 1) <= tol


def test_constant_drift_raises_accuracy_error(monkeypatch):
    # a literal correct to only 20 digits must fail the 48-digit check
    monkeypatch.setattr(precision, "EULER_GAMMA_STR", "0.57721566490153286061")
    with pytest.raises(AccuracyError, match="self-check"):
        check_constants(HIGH)


def test_high_precision_mertens():
    t = sieve_primes(50)
    mh = mertens_product(t, 30, HIGH)
    md = mertens_product(t, 30)
    assert float(mh.value) == pytest.approx(md.value, rel=1e-13)
    # 50-digit mode really carries extra digits: recompute as exact fraction
    frac = Fraction(1)
    for p in t.primes:
        if p <= 30:
            frac *= Fraction(p, p - 1)
    import mpmath

    with mpmath.workdps(50):
        ref = mpmath.mpf(frac.numerator) / frac.denominator
        assert abs(mh.value - ref) < mpmath.mpf(10) ** -45
