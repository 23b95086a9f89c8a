"""Scalar kernels of the fractional calculus for long-memory Gaussian noise.

Everything in this module is built around the covariance density of a
fractional Brownian motion with Hurst exponent H in (1/2, 1),

    cov_density(u) = H*(2H - 1)*|u|^(2H - 2),

which is integrable but singular at u = 0.  Naive quadrature across the
singularity is first-order inaccurate (the exponent 2H - 2 lies in (-1, 0)),
so every integral that touches the diagonal is evaluated through exact
closed-form cell masses:

* ``cov_cell_integral``    -- double integral of the density over a rectangle
* ``cov_segment_integral`` -- single integral of the shifted density
* ``cov_segment_moment``   -- first moment of the shifted density

On top of these sit the Riemann-Liouville fractional integral/derivative
pair (product integration, exact for piecewise-linear data on uniform
grids) and the square-integrable Volterra kernel that represents the
long-memory process as an integral transform of ordinary Brownian motion.

All functions are pure and ufunc-like over numpy arrays; there is no
shared mutable state.

Only numpy and the standard library load with this module, because every
command imports it.  A heavy import (``scipy.special``, ``numpy.polynomial``)
stays inside the function that needs it, so its cost is paid only when that
function runs; Gauss-Legendre rules are built on first use and then cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "HurstParam",
    "FracOrder",
    "SampledFunction",
    "cov_density",
    "cov_cell_integral",
    "cov_segment_integral",
    "cov_segment_moment",
    "frac_integral",
    "frac_derivative",
    "volterra_kernel",
    "calibrate_kernel_scale",
    "kernel_scale_beta_formula",
]


@dataclass(frozen=True)
class HurstParam:
    """Validated Hurst exponent, restricted to the long-memory regime.

    Attributes
    ----------
    h : float
        Hurst exponent, strictly inside (1/2, 1).
    """

    h: float

    def __post_init__(self) -> None:
        h = float(self.h)
        if not (0.5 < h < 1.0):
            raise ValueError(f"Hurst exponent must lie in (1/2, 1), got {h}")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class FracOrder:
    """Order of a fractional integration/differentiation operator.

    Attributes
    ----------
    alpha : float
        Order, strictly inside (0, 1).
    """

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (0.0 < a < 1.0):
            raise ValueError(f"fractional order must lie in (0, 1), got {a}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class SampledFunction:
    """A scalar function sampled on a strictly increasing time grid.

    The fractional operators interpret the samples as a piecewise-linear
    interpolant, and require the grid to be uniform and to start at 0.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 1 or grid.size != values.size:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid.size < 2:
            raise ValueError("need at least two sample points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        steps = np.diff(self.grid)
        return bool(np.allclose(steps, steps[0], rtol=rtol, atol=0.0))

    def require_uniform_from_zero(self) -> None:
        if abs(float(self.grid[0])) > 1e-14:
            raise ValueError("grid must start at 0")
        if not self.is_uniform():
            raise ValueError("grid must be uniform")


def cov_density(u, hurst: HurstParam):
    """Covariance density H(2H-1)|u|^(2H-2) of the long-memory increments.

    Symmetric and strictly positive; diverges at u = 0 (integrable
    singularity), so u = 0 is a domain error.  Callers that integrate
    across the diagonal must use the exact cell integrals instead.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u == 0.0):
        raise ValueError("cov_density is singular at u = 0; use cell integrals")
    h = hurst.h
    out = h * (2.0 * h - 1.0) * np.abs(u) ** (2.0 * h - 2.0)
    return out if out.ndim else float(out)


def cov_cell_integral(a, b, c, d, hurst: HurstParam):
    """Exact integral of ``cov_density(u - v)`` over [a, b] x [c, d].

    Uses the closed form

        0.5*(|b-c|^2H + |a-d|^2H - |a-c|^2H - |b-d|^2H),

    obtained from the double antiderivative -|w|^(2H)/2 of the density.
    The formula is exact across the diagonal singularity and equals the
    covariance of the process increments over the two intervals.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(b < a) or np.any(d < c):
        raise ValueError("need a <= b and c <= d")
    p = 2.0 * hurst.h
    out = 0.5 * (
        np.abs(b - c) ** p + np.abs(a - d) ** p - np.abs(a - c) ** p - np.abs(b - d) ** p
    )
    return out if out.ndim else float(out)


def cov_segment_integral(t0, t1, t, hurst: HurstParam):
    """Exact ``integral_{t0}^{t1} cov_density(t - theta) d theta`` for t0 <= t1 <= t.

    Equals H*[(t-t0)^(2H-1) - (t-t1)^(2H-1)]; finite even when t1 == t.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t1 < t0) or np.any(t < t1):
        raise ValueError("need t0 <= t1 <= t")
    h = hurst.h
    q = 2.0 * h - 1.0
    out = h * ((t - t0) ** q - (t - t1) ** q)
    return out if out.ndim else float(out)


def cov_segment_moment(t0, t1, t, hurst: HurstParam):
    """Exact first moment ``integral_{t0}^{t1} theta * cov_density(t - theta) d theta``.

    Together with :func:`cov_segment_integral` this integrates any linear
    factor exactly against the singular density on a cell, which is the
    backbone of the product-integration rules used by the drift engine.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t1 < t0) or np.any(t < t1):
        raise ValueError("need t0 <= t1 <= t")
    h = hurst.h
    p = 2.0 * h
    m0 = cov_segment_integral(t0, t1, t, hurst)
    out = t * m0 - 0.5 * (p - 1.0) * ((t - t0) ** p - (t - t1) ** p)
    return out if out.ndim else float(out)


def _frac_integral_values(values: np.ndarray, step: float, alpha: float) -> np.ndarray:
    """Riemann-Liouville integral of the piecewise-linear interpolant.

    For each cell [t_{k-m}, t_{k-m+1}] the kernel factor (t_k - s)^(alpha-1)
    is integrated exactly against the two linear hat contributions, which
    makes the rule exact for globally linear data and second-order accurate
    for smooth data.
    """
    from scipy.special import gamma as _gamma

    n = values.size - 1
    a = alpha
    m = np.arange(1, n + 1, dtype=float)
    upper = (m * step) ** a
    lower = ((m - 1.0) * step) ** a
    p0 = (upper - lower) / a                                   # integral of kernel
    p1 = ((m * step) ** (a + 1.0) - ((m - 1.0) * step) ** (a + 1.0)) / (a + 1.0)
    w_left = (p1 - (m - 1.0) * step * p0) / step               # weight on f_{k-m}
    w_right = (m * step * p0 - p1) / step                      # weight on f_{k-m+1}

    # Convolution weights per lag; the lag-k term would wrongly include
    # w_right(k+1), so subtract that boundary piece explicitly.
    conv = np.zeros(n + 1)
    conv[0] = w_right[0]
    conv[1:] = w_left
    conv[1:n] += w_right[1:]
    full = np.convolve(values, conv)[: n + 1]
    # conv[k] carries w_right(k+1) for 1 <= k <= n-1 only; at those output
    # indices the convolution picked up a phantom w_right(k+1)*f_0 term.
    correction = np.zeros(n + 1)
    if n >= 2:
        correction[1:n] = w_right[1:] * values[0]
    out = (full - correction) / _gamma(a)
    out[0] = 0.0
    return out


def frac_integral(f: SampledFunction, order: FracOrder) -> SampledFunction:
    """Fractional integral I^alpha f on the grid of ``f``.

    ``f`` must live on a uniform grid starting at 0.  The rule integrates
    the weakly singular kernel exactly against the piecewise-linear
    interpolant of ``f``, so constants and linear functions are mapped to
    their exact fractional integrals up to rounding.
    """
    f.require_uniform_from_zero()
    out = _frac_integral_values(f.values, f.step, order.alpha)
    return SampledFunction(f.grid, out)


def frac_derivative(f: SampledFunction, order: FracOrder) -> SampledFunction:
    """Fractional derivative D^alpha f, the left inverse of I^alpha.

    Requires f(0) = 0 (otherwise the Riemann-Liouville kernel contributes a
    divergent boundary term).  Computed as I^(1-alpha) applied to the exact
    piecewise-constant slope of ``f``, i.e. the classical L1 scheme; exact
    for linear data.  The composition D^alpha(I^alpha g) recovers smooth g
    to discretization accuracy; when g(0) != 0 the first few nodes carry a
    boundary layer, so accuracy statements are for g vanishing at 0.
    """
    f.require_uniform_from_zero()
    if abs(float(f.values[0])) > 1e-12:
        raise ValueError("frac_derivative requires f(0) = 0")
    from scipy.special import gamma as _gamma

    a = order.alpha
    step = f.step
    n = f.values.size - 1
    slopes = np.diff(f.values) / step
    # integral of (t_k - s)^(-alpha) over cell at lag m, divided by Gamma(1-a)
    m = np.arange(1, n + 1, dtype=float)
    cell = ((m * step) ** (1.0 - a) - ((m - 1.0) * step) ** (1.0 - a)) / (1.0 - a)
    out = np.zeros(n + 1)
    out[1:] = np.convolve(slopes, cell)[:n]
    out /= _gamma(1.0 - a)
    return SampledFunction(f.grid, out)


@cache
def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` points mapped to [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def volterra_kernel(t, s, hurst: HurstParam, scale: float):
    """Volterra kernel K(t, s) mapping white noise onto the long-memory process.

        K(t, s) = scale * s^(1/2 - H) * integral_s^t (u-s)^(H-3/2) u^(H-1/2) du

    for 0 < s < t.  The inner integrand has an integrable endpoint
    singularity at u = s; substituting v = (u-s)^(H-1/2) flattens it to a
    smooth function, which fixed-order Gauss-Legendre then resolves to
    near machine precision.  Broadcasts over array arguments.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= t):
        raise ValueError("volterra_kernel requires 0 < s < t")
    h = hurst.h
    p = h - 0.5
    t, s = np.broadcast_arrays(t, s)
    vmax = (t - s) ** p
    x01, w01 = _gauss_legendre_01(48)
    nodes = vmax[..., None] * x01            # v in (0, (t-s)^p)
    inner = (s[..., None] + nodes ** (1.0 / p)) ** p
    integral = (vmax / p) * (inner * w01).sum(axis=-1)
    out = scale * s ** (-p) * integral
    return out if out.ndim else float(out)


def kernel_scale_beta_formula(hurst: HurstParam) -> float:
    """Closed-form normalizing constant [H(2H-1)/B(2-2H, H-1/2)]^(1/2).

    Independent cross-check for :func:`calibrate_kernel_scale`; the two
    agree to a few tenths of a percent at moderate grid sizes.
    """
    from scipy.special import beta as _beta

    h = hurst.h
    return math.sqrt(h * (2.0 * h - 1.0) / _beta(2.0 - 2.0 * h, h - 0.5))


def calibrate_kernel_scale(hurst: HurstParam, n: int = 1024) -> float:
    """Normalize the Volterra kernel so the process has unit variance at t = 1.

    Returns the scale making the discretized ``integral_0^1 K(1, s)^2 ds``
    equal to 1, with the integral evaluated by the same midpoint-cell rule
    the path generator uses at resolution ``n``.  Deterministic for fixed
    (H, n).  Calibrating at the generator's own resolution makes the
    discrete variance of the simulated process exact at the horizon by
    self-similarity of the kernel.
    """
    n = int(n)
    if n < 64:
        raise ValueError("calibration grid must have at least 64 cells")
    mids = (np.arange(n) + 0.5) / n
    vals = volterra_kernel(1.0, mids, hurst, scale=1.0)
    raw = float(np.sum(vals**2) / n)
    return 1.0 / math.sqrt(raw)
