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
so every theta-integral is the sum ``w @ curve`` of the weights times
the factor curve sampled at the nodes.  The rule is therefore exact
for the flat-volatility model, whose drift has the closed form

    sigma^2 * (2*x*H*t^(2H-1) + (H - 1/2)*t^(2H)),

and second-order accurate in general.  For the built-in factors both
curves depend only on the lag s = t - theta and the maturity x, in the
form alpha + beta*s + gamma*exp(-decay*s) with coefficients in x, so each
drift row needs only three theta-sums, m0 = sum(w), m1 = sum(w*s) and
E = sum(w*exp(-decay*s)), times curves in x: the same weights and nodes,
summed in another order.  Every exponent stays <= 0.  Tables depend on
theta and x separately; for them the curves are evaluated on the whole
(theta, x) array and summed by one product per curve.  Closed forms for
both built-in models are provided as independent oracles.

The module also evaluates the expectation kernel e(t, T) driving the ODE
for E exp(-integral of the discounted-price integrand), its time integral
(equal to half the Gaussian variance of that integrand), and the
least-squares market-price-of-risk inversion.  The time integral shares no
quadrature with the drift: the density is stationary and self-similar, so
the bilinear moments of two cells of width h are h^(2H) times unit-cell
moments of their lag, and each quadratic form is one convolution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._table import write_rows
from .kernels import (
    HurstParam,
    cov_segment_integral,
    cov_segment_moment,
    _gauss_legendre_01,
)
from .vol import ExpDecayVol, FlatVol, TabulatedVol, VolatilitySpec, eval_vol, integrated_vol

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


def _cell_count(value, name: str) -> int:
    """``value`` if it is an integer >= 1, else a ValueError naming ``name``."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


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


def _warn_if_table_read_flat(spec: VolatilitySpec, reach: float) -> None:
    """RuntimeWarning when a tabulated factor is read flat outside its x-columns.

    A drift at times up to t and maturities up to x integrates every factor
    in x from 0 up to x + t, which ``reach`` bounds.  The warning points at
    the caller of the function that calls this one.
    """
    if any(isinstance(f, TabulatedVol) and (f.x_grid[0] > 1e-12 or reach > f.x_grid[-1] + 1e-12)
           for f in spec.factors):
        import warnings

        warnings.warn(
            "tabulated volatility extrapolated flat outside its x-table for x + t arguments",
            RuntimeWarning,
            stacklevel=3,
        )


# t-rows of the drift field that share one hat-weight array
BLOCK_ROWS = 16


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
    small even where the two closed-form terms nearly cancel.  The rows
    are built ``BLOCK_ROWS`` at a time, each row with the bits it has on
    its own.
    """
    theta_cells = _cell_count(theta_cells, "theta_cells")
    t_points = np.asarray(t_points, dtype=float)
    x_points = np.asarray(x_points, dtype=float)
    n = t_points.size - 1
    values = np.zeros((n + 1, x_points.size))
    _warn_if_table_read_flat(spec, x_points[-1] + t_points[-1])
    for start in range(1, n + 1, BLOCK_ROWS):
        block = slice(start, min(start + BLOCK_ROWS, n + 1))
        values[block] = _drift_rows(spec, hurst, t_points[block], x_points, theta_cells)
    return DriftField(t_points=t_points, x_points=x_points, values=values)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows, each one BLAS dot as ``a[r] @ b[r]``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _theta_sums(factor, t: np.ndarray, nodes: np.ndarray, w: np.ndarray, x: np.ndarray):
    """The two theta-integrals of one factor at the times ``t`` (rows, 1), as (rows, x) curves.

    Returns ``w @ IV(theta, x + t)`` and ``w @ sigma(theta, x + t - theta)``
    row by row (a curve flat in x as a (rows, 1) column).  A built-in
    factor depends on the lag s = t - theta only through m0 = sum(w),
    m1 = sum(w*s) and E = sum(w*exp(-decay*s)):

        flat:       sigma*(x*m0 + m1)                  and  sigma*m0
        exp-decay:  (sigma/a)*(m0 - exp(-a*x)*E)       and  sigma*exp(-a*x)*E

    A table is evaluated on each row's whole (theta, x) array, flat outside
    its x-columns (the integrands reach x + t).
    """
    if isinstance(factor, FlatVol):
        m0 = w.sum(axis=-1, keepdims=True)
        m1 = _row_dots(w, t - nodes)[:, None]
        return factor.sigma * (x * m0 + m1), factor.sigma * m0
    if isinstance(factor, ExpDecayVol):
        a = factor.decay
        damp = np.exp(-a * x)
        m0 = w.sum(axis=-1, keepdims=True)
        e = _row_dots(w, np.exp(-a * (t - nodes)))[:, None]
        return (factor.sigma / a) * (m0 - damp * e), factor.sigma * damp * e
    iv_w = np.empty((t.shape[0], x.size))
    sig_w = np.empty((t.shape[0], x.size))
    for r in range(t.shape[0]):
        th = nodes[r, :, None]
        span = np.maximum(x + t[r] - th, 0.0)
        iv_w[r] = w[r] @ factor.integral_in_x(th, span)
        sig_w[r] = w[r] @ factor(th, span)
    return iv_w, sig_w


def _drift_rows(
    spec: VolatilitySpec,
    hurst: HurstParam,
    ts: np.ndarray,
    x_points: np.ndarray,
    theta_cells: int,
) -> np.ndarray:
    """Time slices of the drift at the positive times ``ts``, from their hat weights.

    Each factor adds sigma(t, x) * (w @ IV) + IV(t, t + x) * (w @ sigma);
    ``_theta_sums`` reduces both theta-integrals to three sums for the
    built-ins and keeps the dense (theta, x) product for tables only.  The
    weights are taken row-major, so each row's sums run in the order of
    a one-row call.
    """
    thetas, w = (np.ascontiguousarray(a) for a in _hat_weights(ts, hurst, theta_cells))
    t = ts[:, None]
    rows = np.zeros((ts.size, x_points.size))
    for j, factor in enumerate(spec.factors, start=1):
        iv_w, sig_w = _theta_sums(factor, t, thetas, w, x_points)
        rows += eval_vol(spec, j, t, x_points) * iv_w
        rows += integrated_vol(spec, j, t, t + x_points) * sig_w
    return rows


def _drift_row(spec: VolatilitySpec, hurst: HurstParam, t: float, x_points, theta_cells: int):
    """The drift's time slice at one time t > 0."""
    return _drift_rows(spec, hurst, np.array([float(t)]), x_points, theta_cells)[0]


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
    x01, w01 = _gauss_legendre_01(96)
    nodes = wmax[..., None] * x01
    vals = np.exp(-decay * nodes ** (1.0 / q))
    out = h * wmax * (vals * w01).sum(axis=-1)
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
    spec: VolatilitySpec, hurst: HurstParam, t, maturity, n_cells: int = 512
):
    """e(t, T) = sum_j IV_j(t, T) * integral_0^t IV_j(theta, T) phi(t - theta) d theta.

    The exponential of integral_0^t e(s, T) ds is the expected growth factor
    of the discounted price's stochastic exponent; the no-arbitrage drift
    cancels it exactly.  Product integration by hat-function weights, exact
    for the flat model.  ``t`` and ``maturity`` broadcast against each
    other, one value per (t, T) pair; every distinct t gets one cell set,
    shared by all its maturities.  Scalars give a float.
    """
    n_cells = _cell_count(n_cells, "n_cells")
    t, maturity = np.broadcast_arrays(np.asarray(t, dtype=float),
                                      np.asarray(maturity, dtype=float))
    if not np.all((0.0 <= t) & (t <= maturity)):
        raise ValueError("need 0 <= t <= T")
    out = np.zeros(t.shape)
    live = t > 0.0
    if np.any(live):
        times, mats = t[live], maturity[live]
        values = np.zeros(times.size)
        distinct, row = np.unique(times, return_inverse=True)
        thetas, w = _hat_weights(distinct, hurst, n_cells)
        maturities, which = np.unique(mats, return_inverse=True)
        for m, T in enumerate(maturities):
            pick = np.flatnonzero(which == m)
            # Fortran order, as _hat_weights returns its rows, keeps numpy's
            # summation order: the same bits as a call with this T alone
            th, wt = np.asfortranarray(thetas[row[pick]]), np.asfortranarray(w[row[pick]])
            for j in range(1, spec.dims + 1):
                inner = (wt * integrated_vol(spec, j, th, T)).sum(axis=-1)
                values[pick] += integrated_vol(spec, j, times[pick], T) * inner
        out[live] = values
    return out if out.ndim else float(out)


def _lag_moments(n_cells: int, hurst: HurstParam):
    """Bilinear moments M_kl(D) of the density between two unit cells at lag D.

    M_kl(D) = integral over [0, 1]^2 of x^k y^l phi(D + x - y) dx dy for
    D = -(n-1) .. n-1, at index D + n - 1, exact across the singularity.
    With p = 2H, G2 = |w|^p/2, G3 = sign(w)|w|^(p+1)/(2(p+1)) and
    G4 = |w|^(p+2)/(2(p+1)(p+2)) (G4' = G3, G3' = G2, G2'' = phi) and the
    second difference d2(g)(D) = g(D+1) - 2g(D) + g(D-1):

        M00 = d2(G2)                       M10 = G2(D+1) - G2(D) - d2(G3)
        M01 = d2(G3) - G2(D) + G2(D-1)     M11 = G3(D+1) - G3(D-1) - G2(D) - d2(G4)
    """
    p = 2.0 * hurst.h
    w = np.arange(-n_cells, n_cells + 1, dtype=float)  # every D - 1, D, D + 1
    g2 = 0.5 * np.abs(w) ** p
    g3 = np.sign(w) * np.abs(w) ** (p + 1.0) / (2.0 * (p + 1.0))
    g4 = np.abs(w) ** (p + 2.0) / (2.0 * (p + 1.0) * (p + 2.0))
    lo, mid, hi = slice(None, -2), slice(1, -1), slice(2, None)
    d2g3 = g3[hi] - 2.0 * g3[mid] + g3[lo]
    m00 = g2[hi] - 2.0 * g2[mid] + g2[lo]
    m10 = g2[hi] - g2[mid] - d2g3
    m01 = d2g3 - (g2[mid] - g2[lo])
    m11 = g3[hi] - g3[lo] - g2[mid] - (g4[hi] - 2.0 * g4[mid] + g4[lo])
    return m00, m10, m01, m11


def log_expectation(
    spec: VolatilitySpec, hurst: HurstParam, t: float, maturity, n_cells: int = 512
):
    """integral_0^t e(s, T) ds, evaluated as half the Gaussian variance.

    By symmetry of the covariance density the time integral of the
    expectation kernel equals 0.5 * sum_j of the double integral over
    [0, t]^2 of IV_j(u, T) IV_j(v, T) phi(u - v) du dv.  On n = ``n_cells``
    cells of width h = t/n, IV_j is taken linear on cell i, v_i + d_i*x with
    v_i its left-edge value and d_i = v_{i+1} - v_i, and integrated exactly:
    exact for the flat model, second order otherwise.  As phi(h*w) =
    h^(2H-2) phi(w), cells i and k contribute h^(2H) times the unit-cell
    ``_lag_moments`` at lag D = i - k, so with the lag sums
    C(u, w)(D) = sum_i u_i w_{i-D}, one convolution each, the value is

        0.5 * h^(2H) * sum_j [M00.C(v,v) + M10.C(d,v) + M01.C(v,d) + M11.C(d,d)].

    Several maturities share one moment set and get an array of values back.
    """
    n_cells = _cell_count(n_cells, "n_cells")
    t = float(t)
    mats = [float(T) for T in np.atleast_1d(maturity)]
    if not all(0.0 <= t <= T for T in mats):
        raise ValueError("need 0 <= t <= T")
    out = np.zeros(len(mats))
    if t > 0.0:
        edges = np.linspace(0.0, t, n_cells + 1)
        scale = 0.5 * (t / n_cells) ** (2.0 * hurst.h)
        m00, m10, m01, m11 = _lag_moments(n_cells, hurst)
        for m, T in enumerate(mats):
            total = 0.0
            for j in range(1, spec.dims + 1):
                iv = np.asarray(integrated_vol(spec, j, edges, T), dtype=float)
                v, d = iv[:-1], np.diff(iv)
                # C(u, w) at lag D sits at index D + n - 1 of convolve(u, w[::-1])
                total += (
                    m00 @ np.convolve(v, v[::-1])
                    + m10 @ np.convolve(d, v[::-1])
                    + m01 @ np.convolve(v, d[::-1])
                    + m11 @ np.convolve(d, d[::-1])
                )
            out[m] = scale * total
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
    theta_cells = _cell_count(theta_cells, "theta_cells")
    t = float(alpha_field.t_points[i])
    x_points = alpha_field.x_points
    if i == 0:
        target = np.zeros(x_points.size)
    else:
        target = _drift_row(spec, hurst, t, x_points, theta_cells)
    rhs = target - alpha_field.values[i]
    cols = np.stack(
        [np.asarray(eval_vol(spec, j, t, x_points), dtype=float)
         for j in range(1, spec.dims + 1)],
        axis=1,
    )
    gamma, _, rank, _ = np.linalg.lstsq(cols, rhs, rcond=None)
    residual = float(np.linalg.norm(cols @ gamma - rhs) * np.sqrt(alpha_field.dx))
    return gamma, residual, int(rank)


def write_drift_csv(field: DriftField, fileobj) -> None:
    """Rows (t, x, value), fixed order, 17 significant digits."""
    write_rows(fileobj, ["t", "x", "value"], field.t_points, (field.x_points,), [field.values])
