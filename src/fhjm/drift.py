"""No-arbitrage drift functional for long-memory forward-rate dynamics.

For deterministic factor volatilities, discounted bond prices keep their
time-zero expectation exactly when the forward-rate drift equals

    drift(t, x) = sum_j [ sigma_j(t, x) * integral_0^t IV_j(theta, x + t) phi(t - theta) d theta
                        + (integral_0^x sigma_j(t, y) dy)
                          * integral_0^t sigma_j(theta, x + t - theta) phi(t - theta) d theta ],

where phi is the singular covariance density of the driving noise and
IV_j(s, T) = integral_0^{T-s} sigma_j(s, x) dx.  The theta-integrals are
evaluated by product integration: the smooth factor is interpolated
piecewise-linearly and the singular density is integrated exactly per cell
(zeroth and first moments m0, m1 in closed form).  The moments are folded
into hat-function node weights once per time slice: a cell [a, b] of width
h adds (b*m0 - m1)/h to its left node and (m1 - a*m0)/h to its right node,
so every theta-integral is one product ``w @ curve`` of the weights with
the factor curve sampled at the nodes.  The rule is therefore exact
for the flat-volatility model, whose drift has the closed form

    sigma^2 * (2*x*H*t^(2H-1) + (H - 1/2)*t^(2H)),

and second-order accurate in general.  Closed forms for both built-in
models are provided as independent oracles.

The module also evaluates the expectation kernel e(t, T) driving the ODE
for E exp(-integral of the discounted-price integrand), its time integral
(equal to half the Gaussian variance of that integrand), and the
least-squares market-price-of-risk inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import write_rows
from .kernels import (
    HurstParam,
    cov_segment_integral,
    cov_segment_moment,
)
from .vol import TabulatedVol, VolatilitySpec, eval_vol, integrated_vol

__all__ = [
    "DriftField",
    "drift_field",
    "ho_lee_drift",
    "hull_white_drift",
    "exp_damped_cov_integral",
    "expectation_kernel",
    "log_expectation",
    "solve_market_price_of_risk",
    "write_drift_csv",
]


@dataclass(frozen=True)
class DriftField:
    """Forward-rate drift sampled on a (time x maturity) grid, units 1/time^2.

    Row 0 (t = 0) is identically zero: every theta-integral over [0, 0]
    vanishes.  Immutable once built; safe to share across simulation paths.
    """

    t_points: np.ndarray
    x_points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t_points, dtype=float)
        x = np.asarray(self.x_points, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size, x.size):
            raise ValueError("values shape must be (len(t_points), len(x_points))")
        object.__setattr__(self, "t_points", t)
        object.__setattr__(self, "x_points", x)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.t_points[1] - self.t_points[0])

    @property
    def dx(self) -> float:
        return float(self.x_points[1] - self.x_points[0])

    def zeroed(self) -> "DriftField":
        """Same grids, all-zero drift (negative-control experiments)."""
        return DriftField(self.t_points, self.x_points, np.zeros_like(self.values))

    @cached_property
    def _cumulative_trapezoid(self) -> np.ndarray:
        """Trapezoid of every row over [0, x_k] for every k; column 0 is zero."""
        out = np.zeros_like(self.values)
        cells = (self.values[:, 1:] + self.values[:, :-1]) * (0.5 * self.dx)
        np.cumsum(cells, axis=1, out=out[:, 1:])
        return out

    def maturity_integral(self, i, span):
        """Trapezoid of row i over [0, span]; span must sit on the x-grid.

        ``i`` and ``span`` broadcast: arrays of rows and spans are read off
        one cumulative trapezoid along x.  Scalar inputs give a float.
        """
        dx = self.dx
        span = np.asarray(span, dtype=float)
        k = np.rint(span / dx).astype(int)
        off_grid = np.abs(k * dx - span) > 1e-9 * max(dx, 1.0)
        if np.any(off_grid | (k < 0) | (k >= self.x_points.size)):
            raise ValueError("span must be a grid multiple inside the x range")
        out = self._cumulative_trapezoid[i, k]
        return out if np.ndim(out) else float(out)


def _hat_weights(t, hurst: HurstParam, n_cells: int):
    """Nodes and weights of the product rule against phi(t - theta) on [0, t].

    integral_0^t f(theta) phi(t - theta) d theta of the piecewise-linear
    interpolant of f on ``n_cells`` uniform cells equals ``w @ f(nodes)``:
    each cell's exact moments m0, m1 are split between its two nodes.  An
    array of positive times gives one row of nodes and weights per time.
    """
    t = np.asarray(t, dtype=float)
    nodes = np.linspace(0.0, t, n_cells + 1, axis=-1)
    a, b = nodes[..., :-1], nodes[..., 1:]
    m0 = cov_segment_integral(a, b, t[..., None], hurst)
    m1 = cov_segment_moment(a, b, t[..., None], hurst)
    weights = np.zeros_like(nodes)
    weights[..., :-1] = (b * m0 - m1) / (b - a)
    weights[..., 1:] += (m1 - a * m0) / (b - a)
    return nodes, weights


def drift_field(
    spec: VolatilitySpec,
    hurst: HurstParam,
    t_points: np.ndarray,
    x_points: np.ndarray,
    theta_cells: int = 1024,
) -> DriftField:
    """Evaluate the no-arbitrage drift on the product grid by product integration.

    ``t_points`` must be uniform starting at 0; ``x_points`` uniform
    starting at 0 (they may extend past the simulation maturity span --
    the simulator needs arguments up to x_max + t_star).  Each time slice
    integrates over ``theta_cells`` uniform cells regardless of how early
    the slice sits, which keeps the factor-interpolation error uniformly
    small even where the two closed-form terms nearly cancel.
    """
    t_points = np.asarray(t_points, dtype=float)
    x_points = np.asarray(x_points, dtype=float)
    n = t_points.size - 1
    values = np.zeros((n + 1, x_points.size))
    reach = x_points[-1] + t_points[-1]  # largest maturity argument, x + t
    if any(isinstance(f, TabulatedVol) and reach > f.x_grid[-1] + 1e-12 for f in spec.factors):
        import warnings

        warnings.warn(
            "tabulated volatility extrapolated flat beyond its x-table for x + t arguments",
            RuntimeWarning,
            stacklevel=2,
        )
    for i in range(1, n + 1):
        values[i] = _drift_row(spec, hurst, float(t_points[i]), x_points, theta_cells)
    return DriftField(t_points=t_points, x_points=x_points, values=values)


def _drift_row(
    spec: VolatilitySpec,
    hurst: HurstParam,
    t: float,
    x_points: np.ndarray,
    theta_cells: int,
) -> np.ndarray:
    """One time slice of the drift: each theta-integral is one hat-weight product.

    Tabulated factors extrapolate flat in x beyond their table (the
    integrands reach x + t).
    """
    thetas, w = _hat_weights(t, hurst, theta_cells)
    th = thetas[:, None]
    x_plus_t = (x_points + t)[None, :]
    row = np.zeros(x_points.size)
    for j in range(1, spec.dims + 1):
        iv = integrated_vol(spec, j, th, x_plus_t)
        sig = eval_vol(spec, j, th, x_plus_t - th, extrapolate="flat")
        row += eval_vol(spec, j, t, x_points, extrapolate="flat") * (w @ iv)
        row += integrated_vol(spec, j, t, t + x_points) * (w @ sig)
    return row


def ho_lee_drift(sigma: float, hurst: HurstParam, t, x):
    """Closed-form drift for the flat-volatility model.

    sigma^2 * (2*x*H*t^(2H-1) + (H - 1/2)*t^(2H)); the second term is the
    exact value of t*I0(t) - I1(t) for the density moments I0, I1.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    h = hurst.h
    out = sigma**2 * (2.0 * x * h * t ** (2.0 * h - 1.0) + (h - 0.5) * t ** (2.0 * h))
    return out if out.ndim else float(out)


_DAMP_GAUSS_N = 96
_DAMP_X, _DAMP_W = np.polynomial.legendre.leggauss(_DAMP_GAUSS_N)
_DAMP_X01 = 0.5 * (_DAMP_X + 1.0)
_DAMP_W01 = 0.5 * _DAMP_W


def exp_damped_cov_integral(decay: float, hurst: HurstParam, t):
    """J(t) = integral_0^t exp(-decay*u) * cov_density(u) du, exactly regularized.

    Substituting w = u^(2H-1) absorbs the u^(2H-2) singularity into the
    measure: J(t) = H * integral_0^{t^(2H-1)} exp(-decay * w^(1/(2H-1))) dw,
    a smooth integrand handled by fixed-order Gauss-Legendre.
    """
    t = np.asarray(t, dtype=float)
    h = hurst.h
    q = 2.0 * h - 1.0
    wmax = t**q
    nodes = wmax[..., None] * _DAMP_X01
    vals = np.exp(-decay * nodes ** (1.0 / q))
    out = h * wmax * (vals * _DAMP_W01).sum(axis=-1)
    return out if out.ndim else float(out)


def hull_white_drift(sigma: float, decay: float, hurst: HurstParam, t, x):
    """Closed-form drift for the exponentially damped volatility model.

    (sigma^2/a) e^(-a x) [I0(t) + J(t)] - (2 sigma^2/a) e^(-2 a x) J(t),
    with I0 the exact density integral and J the damped integral above.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    h = hurst.h
    a = float(decay)
    i0 = h * t ** (2.0 * h - 1.0)
    j = exp_damped_cov_integral(a, hurst, t)
    out = (sigma**2 / a) * np.exp(-a * x) * (i0 + j) - (2.0 * sigma**2 / a) * np.exp(
        -2.0 * a * x
    ) * j
    return out if out.ndim else float(out)


def expectation_kernel(
    spec: VolatilitySpec, hurst: HurstParam, t, maturity: float, n_cells: int = 512
):
    """e(t, T) = sum_j IV_j(t, T) * integral_0^t IV_j(theta, T) phi(t - theta) d theta.

    The exponential of integral_0^t e(s, T) ds is the expected growth factor
    of the discounted price's stochastic exponent; the no-arbitrage drift
    cancels it exactly.  Product integration by hat-function weights, exact
    for the flat model.  ``t`` may be an array (one cell set per time, one
    value each); a scalar gives a float.
    """
    t = np.asarray(t, dtype=float)
    maturity = float(maturity)
    if not np.all((0.0 <= t) & (t <= maturity)):
        raise ValueError("need 0 <= t <= T")
    out = np.zeros(t.shape)
    live = t > 0.0
    if np.any(live):
        times = t[live]
        thetas, w = _hat_weights(times, hurst, n_cells)
        for j in range(1, spec.dims + 1):
            inner = (w * integrated_vol(spec, j, thetas, maturity)).sum(axis=-1)
            out[live] += integrated_vol(spec, j, times, maturity) * inner
    return out if out.ndim else float(out)


def _psi2(w, p):
    return 0.5 * np.abs(w) ** p


def _psi3(w, p):
    return np.sign(w) * np.abs(w) ** (p + 1.0) / (2.0 * (p + 1.0))


def _psi4(w, p):
    return np.abs(w) ** (p + 2.0) / (2.0 * (p + 1.0) * (p + 2.0))


def _bilinear_cov_moments(edges: np.ndarray, hurst: HurstParam):
    """Exact (1, u, v, uv)-moments of the covariance density on all cell pairs.

    Built from repeated antiderivatives of the density, so the moments are
    exact across the diagonal singularity.  Returns four (n, n) arrays.
    """
    p = 2.0 * hurst.h
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    c = edges[:-1][None, :]
    d = edges[1:][None, :]

    def corner(func, extra=None):
        if extra is None:
            return func(b - c, p) - func(a - c, p) - func(b - d, p) + func(a - d, p)
        # terms of the form u^k psi(u - w) evaluated on the four corners
        fb_c = extra(b) * func(b - c, p)
        fa_c = extra(a) * func(a - c, p)
        fb_d = extra(b) * func(b - d, p)
        fa_d = extra(a) * func(a - d, p)
        return fb_c - fa_c - fb_d + fa_d

    q00 = corner(_psi2)
    # Q10 = [u psi2(u-w) - psi3(u-w)] corner-evaluated
    q10 = corner(_psi2, extra=lambda u: u) - corner(_psi3)
    # The first moment of the density has antiderivative (p-1)*psi2, so the
    # inner v-moment carries a (p-1) weight and Q11 = [u^2 psi2
    # - (p+1) u psi3 + (p+1) psi4] corner-evaluated (p = 2H).
    q11 = (
        corner(_psi2, extra=lambda u: u**2)
        - (p + 1.0) * corner(_psi3, extra=lambda u: u)
        + (p + 1.0) * corner(_psi4)
    )
    q01 = q10.T
    return q00, q10, q01, q11


def log_expectation(
    spec: VolatilitySpec, hurst: HurstParam, t: float, maturity, n_cells: int = 512
):
    """integral_0^t e(s, T) ds, evaluated as half the Gaussian variance.

    By symmetry of the covariance density the time integral of the
    expectation kernel equals

        0.5 * sum_j double-integral over [0,t]^2 of
              IV_j(u, T) IV_j(v, T) phi(u - v) du dv,

    which is computed with piecewise-linear factors integrated exactly
    against the density's bilinear cell moments -- exact for the flat
    model, second order otherwise.  The moments depend only on t: several
    maturities share one moment set and get an array of values back.
    """
    t = float(t)
    mats = [float(T) for T in np.atleast_1d(maturity)]
    if not all(0.0 <= t <= T for T in mats):
        raise ValueError("need 0 <= t <= T")
    out = np.zeros(len(mats))
    if t > 0.0:
        edges = np.linspace(0.0, t, n_cells + 1)
        q00, q10, q01, q11 = _bilinear_cov_moments(edges, hurst)
        a, b = edges[:-1], edges[1:]
        for m, T in enumerate(mats):
            total = 0.0
            for j in range(1, spec.dims + 1):
                iv = np.asarray(integrated_vol(spec, j, edges, T), dtype=float)
                slope = (iv[1:] - iv[:-1]) / (b - a)
                intercept = iv[:-1] - slope * a
                total += 0.5 * (
                    intercept @ q00 @ intercept
                    + intercept @ q01 @ slope
                    + slope @ q10 @ intercept
                    + slope @ q11 @ slope
                )
            out[m] = total
    return out if np.ndim(maturity) else float(out[0])


def solve_market_price_of_risk(
    spec: VolatilitySpec,
    hurst: HurstParam,
    alpha_field: DriftField,
    i: int,
    theta_cells: int = 1024,
):
    """Least-squares gamma with sum_j gamma_j sigma_j(t, .) ~ target(t, .) - alpha(t, .).

    ``alpha_field`` is a candidate physical drift sampled on the field
    grids; the right-hand side is the no-arbitrage drift minus alpha at
    time index ``i``.  Returns (gamma, residual_norm, rank) with the
    residual in the discrete L2 norm of the x-grid; a near-zero residual
    means the model admits the constant-expectation measure change.
    Rank-deficient factor systems fall back to the pseudo-inverse with the
    rank reported.
    """
    t = float(alpha_field.t_points[i])
    x_points = alpha_field.x_points
    if i == 0:
        target = np.zeros(x_points.size)
    else:
        target = _drift_row(spec, hurst, t, x_points, theta_cells)
    rhs = target - alpha_field.values[i]
    cols = np.stack(
        [np.asarray(eval_vol(spec, j, t, x_points, extrapolate="flat"), dtype=float)
         for j in range(1, spec.dims + 1)],
        axis=1,
    )
    gamma, _, rank, _ = np.linalg.lstsq(cols, rhs, rcond=None)
    residual = float(np.linalg.norm(cols @ gamma - rhs) * np.sqrt(alpha_field.dx))
    return gamma, residual, int(rank)


def write_drift_csv(field: DriftField, fileobj) -> None:
    """Rows (t, x, value), fixed order, 17 significant digits."""
    write_rows(fileobj, ["t", "x", "value"], field.t_points, (field.x_points,), [field.values])
