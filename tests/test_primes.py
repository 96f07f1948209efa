"""Prime sieve, iterated logs, constants."""

import math

import mpmath
import pytest

from rzeta import precision
from rzeta.errors import AccuracyError
from rzeta.precision import Precision, check_constants, exp_gamma
from rzeta.primes import iterated_log, sieve_primes

HIGH = Precision(50)


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
    assert sieve_primes(3) == (2, 3)
    assert sieve_primes(10) == (2, 3, 5, 7)


def test_table_invariants():
    t = sieve_primes(2000)
    assert all(is_prime_trial(p) for p in t)
    assert list(t) == sorted(set(t))


def test_pi_1e4_against_segmented_sieve():
    assert len(sieve_primes(10**4)) == 1229
    assert segmented_count(10**4) == 1229


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


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
    gamma = precision.EULER_GAMMA
    assert gamma == pytest.approx(0.5772156649015329, abs=1e-16)
    assert math.exp(gamma) == pytest.approx(exp_gamma(), rel=1e-15)


@pytest.mark.parametrize("digits", [50, 60, 120])
def test_high_precision_gamma_has_every_digit(digits):
    prec = Precision(digits)
    check_constants(prec)
    value = exp_gamma(prec)
    with mpmath.workdps(digits + 10):
        tol = mpmath.mpf(10) ** -digits
        assert abs(value / mpmath.exp(mpmath.euler) - 1) <= tol


def test_constant_drift_raises_accuracy_error(monkeypatch):
    # a literal correct to only 20 digits must fail the 48-digit check
    monkeypatch.setattr(precision, "EULER_GAMMA_STR", "0.57721566490153286061")
    with pytest.raises(AccuracyError, match="self-check"):
        check_constants(HIGH)
