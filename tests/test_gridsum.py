"""Gridded exponential-sum evaluation vs direct summation."""

import math

import numpy as np
import pytest

from rzeta import gridsum
from rzeta.gridsum import (
    _cumprod_grid,
    _direct_grid,
    _nufft_grid,
    exp_sum_on_grid,
    next_smooth,
)


def fsum_sum_at(omega, coeffs, t):
    """S(t) at one t, each component the exactly rounded fsum of its
    terms: the scalar reference."""
    omega = np.asarray(omega, dtype=np.float64)
    vals = np.asarray(coeffs) * np.exp(-1j * t * omega)
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def brute(omega, coeffs, t0, dt, count):
    t = t0 + dt * np.arange(count)
    return np.array(
        [np.sum(coeffs * np.exp(-1j * tt * omega)) for tt in t]
    )


@pytest.mark.parametrize(
    "seed,n,count",
    # the last input spans two full spreading blocks and a ragged third
    [
        (0, 50, 300),
        (1, 400, 2000),
        (2, 3, 97),
        (4, 2 * gridsum._SPREAD_BLOCK + 1, 300),
    ],
)
def test_nufft_matches_direct_random(seed, n, count):
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0, 30, n)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    t0 = rng.uniform(0, 1000)
    dt = rng.uniform(0.01, 0.8)
    ref = brute(omega, coeffs, t0, dt, count)
    fast = _nufft_grid(omega, coeffs, t0, dt, count)
    scale = np.sum(np.abs(coeffs))
    assert np.max(np.abs(fast - ref)) < 1e-11 * scale


def test_auto_routes_agree():
    rng = np.random.default_rng(3)
    n, count = 500, 5000
    omega = np.sort(rng.uniform(0, 12, n))
    coeffs = rng.normal(size=n) / np.arange(1, n + 1)
    auto = exp_sum_on_grid(omega, coeffs, 100.0, 0.05, count)
    direct = _direct_grid(omega, coeffs, 100.0, 0.05, count)
    assert np.max(np.abs(auto - direct)) < 1e-11 * np.sum(np.abs(coeffs))


def test_harmonic_sum_grid():
    # sum over n <= N of n^(-1-it): frequencies log n, coefficients 1/n
    n = np.arange(1, 2001)
    omega = np.log(n)
    coeffs = 1.0 / n
    out = _nufft_grid(omega, coeffs, 0.0, 0.25, 1200)
    # t = 0 entry is the exact harmonic number
    assert out[0].real == pytest.approx(np.sum(coeffs), rel=1e-12)
    assert abs(out[0].imag) < 1e-12
    # a random interior entry against the scalar evaluator
    t = 0.0 + 0.25 * 777
    ref = fsum_sum_at(omega, coeffs, t)
    assert out[777] == pytest.approx(ref, abs=1e-11)


def test_large_phase_offset():
    rng = np.random.default_rng(7)
    n = 200
    omega = rng.uniform(0, 14, n)
    coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)) / 10
    t0 = 1.0e6
    out = _nufft_grid(omega, coeffs, t0, 0.4, 600)
    ref = brute(omega, coeffs, t0, 0.4, 600)
    assert np.max(np.abs(out - ref)) < 2e-9 * np.sum(np.abs(coeffs))


def test_empty_and_validation():
    out = exp_sum_on_grid(np.array([]), np.array([]), 0.0, 0.1, 5)
    assert np.all(out == 0)
    with pytest.raises(ValueError):
        exp_sum_on_grid(np.array([1.0]), np.array([1.0]), 0.0, 0.1, 0)


def test_determinism():
    rng = np.random.default_rng(11)
    omega = rng.uniform(0, 20, 300)
    coeffs = rng.normal(size=300) + 0j
    a = _nufft_grid(omega, coeffs, 50.0, 0.1, 4000)
    b = _nufft_grid(omega, coeffs, 50.0, 0.1, 4000)
    assert np.array_equal(a, b)


def test_cumprod_matches_direct():
    rng = np.random.default_rng(13)
    omega = np.log(np.array([1, 2, 3, 4, 6, 9, 12, 18, 36], dtype=float))
    coeffs = np.ones_like(omega) + 0j
    count = 600_000
    fast = _cumprod_grid(omega, coeffs, 1e5, 0.43, count)
    # spot-check a handful of positions against the scalar evaluator
    for k in rng.integers(0, count, 12):
        ref = fsum_sum_at(omega, coeffs, 1e5 + 0.43 * int(k))
        assert abs(fast[k] - ref) < 2e-10 * omega.size


def test_plan_reuse_matches_oneshot():
    from rzeta.gridsum import UniformGridPlan

    rng = np.random.default_rng(17)
    omega = rng.uniform(0, 25, 5000)
    plan = UniformGridPlan(omega, 0.2, 3000)
    for t0 in (10.0, 11.1):
        coeffs = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        a = plan.run(coeffs, t0)
        b = _direct_grid(omega, coeffs, t0, 0.2, 3000)
        assert np.max(np.abs(a - b)) < 1e-11 * np.sum(np.abs(coeffs))


def test_few_sources_on_long_grid():
    # the 9-term resonator of M = divisors of 36 on the M2 grid over
    # [T, 2T] at T = 2e4: the plan, and the cumulative-product reference
    omega = np.log(np.array([1, 2, 3, 4, 6, 9, 12, 18, 36], dtype=float))
    coeffs = np.ones_like(omega)
    t0, count = 2e4, 65_536
    dt = t0 / count
    direct = _direct_grid(omega, coeffs, t0, dt, count)
    for route in (exp_sum_on_grid, _cumprod_grid):
        gap = np.max(np.abs(route(omega, coeffs, t0, dt, count) - direct))
        assert gap < 1e-11 * np.sum(np.abs(coeffs))


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("n", [1, 2, 7, 11, 97, 1000, 1031, 131_144, 999_999])
def test_next_smooth_is_smallest_5_smooth_at_least_n(n):
    m = next_smooth(n)
    assert m >= n and _is_5_smooth(m)
    assert not any(_is_5_smooth(k) for k in range(n, m))


@pytest.mark.parametrize("n", [1, 9, 64, 65])
def test_auto_route_depends_on_source_count_only(monkeypatch, n):
    # a few sources on a 10-point grid: a small problem, yet the plan
    rng = np.random.default_rng(n)
    omega = rng.uniform(0, 12, n)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    taken = []
    for name in ("_direct_grid", "_cumprod_grid", "_nufft_grid"):
        original = getattr(gridsum, name)

        def spy(*args, _name=name, _original=original):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(gridsum, name, spy)
    auto = exp_sum_on_grid(omega, coeffs, 300.0, 0.3, 10)
    assert taken == ["_nufft_grid"]
    ref = _direct_grid(omega, coeffs, 300.0, 0.3, 10)
    assert np.max(np.abs(auto - ref)) < 1e-11 * np.sum(np.abs(coeffs))
