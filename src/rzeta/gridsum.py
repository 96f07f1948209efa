"""Fast evaluation of exponential sums on uniform grids.

``scan``'s grid, and the tests' quadrature reference, evaluate

    S(t) = sum_n c_n * exp(-i * t * omega_n)

at many equally spaced t = t0 + k*dt.  For a uniform grid the
integer mode structure e^(-i*t*omega) = e^(-i*t0*omega) * e^(-i*k*(dt*omega))
turns this into a type-1 nonuniform FFT: spread each source phase onto an
oversampled uniform grid with a truncated Gaussian kernel, FFT, and
deconvolve (Dutt-Rokhlin gridding).  A plan reuses its stencil offsets and
deconvolution factors.  Accuracy is a few 1e-14 relative to sum|c|; the
unit tests pin it against direct summation.

The plan is the one production route, whatever the number of sources.
Two references stand beside it and no caller routes to them: chunked
direct evaluation, :func:`_direct_grid`, which the gridsum tests compare
against, and cumulative phase products, :func:`_cumprod_grid`, which the
tests' quadrature reference uses for |R|^2 of a resonator of a few terms.
"""

from __future__ import annotations

import math

import numpy as np

# Source*target operations per chunk of the direct reference evaluation.
DIRECT_LIMIT = 2_000_000

# Gridding parameters: half-width of the spreading kernel in fine-grid
# points, and the oversampled-grid safety margin.  tau is tied to these in
# _nufft_grid; with w=16 the kernel truncation and aliasing errors are both
# around exp(-pi*w/sqrt(2)) ~ 4e-16 before deconvolution amplification.
KERNEL_HALF_WIDTH = 16

# The cumulative-product reference re-anchors its phases every this many
# grid points, which keeps its drift near direct evaluation's rounding.
CUMPROD_CHUNK = 4096

# Sources spread per block: about 5 MB of stencil temporaries.
_SPREAD_BLOCK = 4096


def next_smooth(n: int) -> int:
    """The smallest integer >= n with prime factors 2, 3, 5 only."""
    n = max(int(n), 1)
    bits = n.bit_length() + 1  # every 3^i 5^j below 2n has i, j < bits
    odd = (3**i * 5**j for i in range(bits) for j in range(bits))
    return min(p << ((n - 1) // p).bit_length() for p in odd)


def _direct_grid(omega, coeffs, t0, dt, count):
    omega = np.asarray(omega, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    out = np.empty(count, dtype=np.complex128)
    chunk = max(1, DIRECT_LIMIT // max(1, omega.size))
    for start in range(0, count, chunk):
        k = np.arange(start, min(start + chunk, count), dtype=np.float64)
        t = t0 + k * dt
        out[start : start + k.size] = np.exp(-1j * np.outer(t, omega)) @ coeffs
    return out


class UniformGridPlan:
    """Reusable gridding plan: a fixed (omega, dt, count) geometry.

    The spreading stencil depends only on the phases dt*omega, so repeated
    transforms with different coefficients or grid origins reuse the
    stencil offsets and the deconvolution factors.
    """

    def __init__(self, omega, dt: float, count: int):
        self.omega = np.asarray(omega, dtype=np.float64)
        self.dt = float(dt)
        self.count = int(count)

        w = KERNEL_HALF_WIDTH
        self.shift = count // 2
        self.mr = next_smooth(2 * count + 4 * w + 8)
        self.tau = math.pi * w * math.sqrt(2.0) / self.mr**2
        h = 2.0 * math.pi / self.mr
        self.h = h

        phi = np.mod(self.dt * self.omega, 2.0 * math.pi)
        # Source n lands at fine-grid point m0 + d, d = -w..w, a distance
        # delta - d*h from its phase.
        self.m0 = np.rint(phi / h).astype(np.int64)
        self.delta = phi - self.m0 * h
        self.offsets = np.arange(-w, w + 1)
        # Mode-shift phases so |k'| <= ~count/2 <= mr/4 keeps aliasing tame.
        self.mode_phase = np.exp(-1j * self.shift * phi)

        kprime = np.arange(count) - self.shift
        self.out_idx = np.where(kprime >= 0, kprime, self.mr + kprime)
        self.decon = h / (2.0 * math.sqrt(math.pi * self.tau)) * np.exp(
            kprime.astype(np.float64) ** 2 * self.tau
        )

    def run(self, coeffs, t0: float) -> np.ndarray:
        """S_k = sum_n c_n exp(-i (t0 + k dt) omega_n), k = 0..count-1."""
        c = (
            np.asarray(coeffs, dtype=np.complex128)
            * np.exp(-1j * t0 * self.omega)
            * self.mode_phase
        )
        grid = np.zeros(self.mr, dtype=np.complex128)
        for start in range(0, c.size, _SPREAD_BLOCK):
            block = slice(start, start + _SPREAD_BLOCK)
            gap = self.delta[block, None] - self.offsets * self.h
            kernel = np.exp(-(gap**2) / (4.0 * self.tau))
            idx = np.mod(self.m0[block, None] + self.offsets, self.mr)
            np.add.at(grid, idx, c[block, None] * kernel)
        spectrum = np.fft.fft(grid)
        return spectrum[self.out_idx] * self.decon


def _nufft_grid(omega, coeffs, t0, dt, count):
    return UniformGridPlan(omega, dt, count).run(coeffs, t0)


def _cumprod_grid(omega, coeffs, t0, dt, count):
    """Reference for a few sources: advance phases by cumulative products.

    Chunks of ``CUMPROD_CHUNK`` points are re-anchored with a fresh
    exponential so rounding drift stays at the chunk scale.  Its cost is
    sources x points, so it beats the plan only for a handful of sources.
    """
    omega = np.asarray(omega, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    ratio = np.exp(-1j * dt * omega)
    out = np.empty(count, dtype=np.complex128)
    for start in range(0, count, CUMPROD_CHUNK):
        n = min(CUMPROD_CHUNK, count - start)
        z = np.empty((omega.size, n), dtype=np.complex128)
        z[:, 0] = coeffs * np.exp(-1j * (t0 + start * dt) * omega)
        if n > 1:
            z[:, 1:] = ratio[:, None]
            np.cumprod(z, axis=1, out=z)
        out[start : start + n] = z.sum(axis=0)
    return out


def exp_sum_on_grid(
    omega, coeffs, t0: float, dt: float, count: int
) -> np.ndarray:
    """S_k = sum_n c_n exp(-i (t0 + k dt) omega_n) for k = 0..count-1,
    through the gridded FFT plan for any number of sources."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _nufft_grid(omega, coeffs, t0, dt, count)
