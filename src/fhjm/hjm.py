"""Forward-rate surface simulation and bond pricing on the triangular grid.

The forward curve follows transport dynamics: today's curve is shifted
left while the no-arbitrage drift and the volatility-weighted noise
increments are layered on top.  On grids with equal time and maturity
spacing the mild-solution sum

    r_{t_i}(x_k) = init(t_i + x_k)
                 + sum_{l<i} drift(t_l, x_k + t_i - t_l) * dt
                 + sum_j sum_{l<i} sigma_j(t_l, x_k + t_i - t_l) * dbeta_j_l

telescopes into the exact one-step recursion

    r_{t_{i+1}}(x_k) = r_{t_i}(x_{k+1}) + drift(t_i, x_{k+1}) * dt
                     + sum_j sigma_j(t_i, x_{k+1}) * dbeta_j_i,

which this module uses (same values to rounding, linear cost).  The
stochastic term is a left-point Riemann-Stieltjes sum, the correct
pathwise reading for deterministic integrands against Hoelder paths with
exponent above 1/2.

Bond prices integrate the curve by trapezoid, the money account
accumulates the short rate by trapezoid, and ``closed_form_bond``
reprices bonds through the exponential formula

    P(t,T) = P(0,T) * exp{ int_0^t [r_s(0) - IA(s,T)] ds
                           - sum_j int_0^t IV_j(s,T) dbeta_j_s },

an independent oracle for the surface-integration route.

The volatility is deterministic, so the recursion, the bond trapezoid
and the money-account trapezoid are all linear in the increments, and
the discounted price Z = P / S0 on the simulation grid is affine in them:

    log Z(t_i, T) = c(i, T) + sum_j sum_{l<i} g_j(l, T) * dbeta_j_l.

``c`` collects the initial curve and the drift: it is log Z on the path
whose increments are all zero, run through the surface route itself.  For
``g`` write C_j(l, q) = dx * (sigma_j(t_l, x_0)/2 + sigma_j(t_l, x_1) + ...
+ sigma_j(t_l, x_q)/2), the cumulative trapezoid of row l of the
volatility cube.  dbeta_j_l reaches r_{t_i}(x_k) through
sigma_j(t_l, x_{k+i-l}) for every i > l, so with T = t_s:

    log P(t_i, T):  -dx * trapz_k<=s-i sigma_j(t_l, x_{k+i-l})
                     = -[C_j(l, s - l) - C_j(l, i - l)],
    log S0(t_i):     dt * trapz_p<=i sigma_j(t_l, x_{p-l}) over p > l
                     = C_j(l, i - l) - dt * sigma_j(t_l, 0) / 2,

and their difference telescopes to

    g_j(l, T) = -[C_j(l, (T - t_l)/dt) - dt * sigma_j(t_l, 0) / 2],

which does not depend on i.  A batch is therefore one cumulative sum over
l of dbeta * g, per path and elementwise, and time row i of Z needs only
the sum up to l = i - 1, so the rows stream from one running sum.  This
is the discrete counterpart of the exponential formula on the
simulator's own grid, not a copy of ``closed_form_bond``: that oracle
integrates over maturity exactly and sits O(dt^2) away, while the affine
route agrees with the surface route to rounding.

Every path generator is linear in its driver too: dbeta_j = A b_j for the
Brownian increments b_j = sqrt(dt) * w_j of ``BrownianDriver.generate``.
So on a fixed list of (t_i, T) cells, log Z = c(i, T) + sum_j b_j . h_j
with h_j = A[:i]^T g_j[:i, T]: one (d * n, P) matrix prices every path
from its normals in O(d * n * P), without its path or its rows.
``affine_draws`` builds ``(c, g)`` and A once per run, for h and for the
running-sum rows of dbeta = A b that ``check``'s probe and the ledger
read from the same draw.  The oracles of both are the surface route
(``simulate_batches``) and the whole-batch formula:
log Z = c + cumsum(dbeta . g) over the exact sampler's increments.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._table import write_rows
from .drift import DriftField
from .fbm import (
    CHUNK_PATHS,
    BrownianDriver,
    FbmPathSet,
    TimeGrid,
    _increment_factor,
    _volterra_matrix,
    generate_cholesky,
    generate_volterra,
)
from .kernels import HurstParam
from .vol import MaturityGrid, VolatilitySpec, eval_vol, integrated_vol

__all__ = [
    "InitialCurve",
    "ForwardSurface",
    "BondSurface",
    "ZRows",
    "PairPrices",
    "simulation_grids",
    "drift_for_simulation",
    "simulate_forward",
    "bond_surface",
    "money_account",
    "discounted_surface",
    "simulate_batches",
    "affine_log_discount",
    "affine_draws",
    "closed_form_bond",
    "write_forward_csv",
    "write_bond_csv",
]


@dataclass(frozen=True)
class InitialCurve:
    """Initial forward curve sampled on the extended grid [0, t_star + x_max].

    The transport recursion reads init(t + x), so the curve is stored once
    on the full extended range and never extrapolated.
    """

    dx: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("initial curve needs a 1-d array of at least 2 values")
        if not np.all(np.isfinite(v)):
            raise ValueError("initial curve values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dx", float(self.dx))

    @classmethod
    def flat(cls, rate: float, dx: float, n_points: int) -> "InitialCurve":
        return cls(dx=dx, values=np.full(n_points, float(rate)))

    @classmethod
    def from_table(cls, xs, vals, dx: float, n_points: int) -> "InitialCurve":
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(vals, dtype=float)
        grid = np.arange(n_points) * dx
        if grid[-1] > xs[-1] + 1e-12:
            raise ValueError("initial-curve table does not cover the extended grid")
        return cls(dx=dx, values=np.interp(grid, xs, vals))

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dx


@dataclass(frozen=True)
class ForwardSurface:
    """Per-path forward rates r[p, i, k] on (time, time-to-maturity) grids."""

    t_grid: TimeGrid
    x_grid: MaturityGrid
    rates: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.rates.shape[0]

    def short_rate(self) -> np.ndarray:
        return self.rates[:, :, 0]


class _Cells:
    """The one (t, T) -> cell rule over a class's ``t_grid`` and ``maturities``."""

    def row(self, t: float, role: str) -> int:
        """Index i with t_i = t within 1e-9; the error names ``role`` and t."""
        dt = self.t_grid.dt
        i = int(round(t / dt))
        if abs(i * dt - t) > 1e-9 or not 0 <= i <= self.t_grid.n_steps:
            raise ValueError(f"{role} {t} not on the surface time grid")
        return i

    def column(self, maturity: float, role: str) -> int:
        """Index of the first surface maturity within 1e-9 of ``maturity``."""
        hits = np.flatnonzero(np.abs(self.maturities - maturity) < 1e-9)
        if hits.size == 0:
            raise ValueError(f"{role} {maturity} not among surface maturities")
        return int(hits[0])


@dataclass(frozen=True)
class BondSurface(_Cells):
    """Per-path prices on (t_i, T_m) cells, NaN where t_i > T_m.

    ``prices`` is P[p, i, m] = P(t_i, T_m) and ``discounted`` Z = P / S0.
    The surface route sets P, and Z once discounted; a surface built by
    hand may carry Z alone.  The oscillation probe of :mod:`fhjm.noarb` and
    :func:`fhjm.ledger.holdings` take only :class:`ZRows`; :meth:`z_rows`
    hands a surface's Z to them one time row at a time.
    """

    t_grid: TimeGrid
    maturities: np.ndarray
    prices: np.ndarray | None = None
    discounted: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return (self.discounted if self.prices is None else self.prices).shape[0]

    def z_rows(self) -> "ZRows":
        """Z as a :class:`ZRows` stream: row i is the (paths, M) view Z[:, i, :]."""
        z = self.discounted
        if z is None:
            raise ValueError("the surface carries no discounted prices")
        return ZRows(t_grid=self.t_grid, maturities=self.maturities, n_paths=z.shape[0],
                     rows=lambda: (z[:, i] for i in range(z.shape[1])))


@dataclass(frozen=True)
class ZRows(_Cells):
    """One batch of discounted prices as a stream of time rows.

    Each call of ``rows()`` starts a fresh pass that yields Z[:, i, :],
    shape (n_paths, M), for i = 0, 1, ..., n; a consumer reads each row as
    it comes and may stop early, and rows it does not pull are never
    computed.  :func:`affine_draws` makes them from one running sum;
    :meth:`BondSurface.z_rows` reads them off a surface.
    """

    t_grid: TimeGrid
    maturities: np.ndarray
    n_paths: int
    rows: Callable[[], Iterator[np.ndarray]]


class PairPrices(NamedTuple):
    """Discounted prices of one batch of paths on a fixed list of (t, T) cells.

    ``values[p, q]`` is Z(t_q, T_q) on path p, and ``targets[q]`` is
    Z(0, T_q), which no path changes.  A named tuple: a dataclass costs
    ten times as much at import.
    """

    pairs: tuple
    targets: np.ndarray
    values: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def simulation_grids(t_star: float, n_steps: int, x_max: float, m_steps: int):
    """Aligned simulation grids: the transport shift must be an exact index move.

    Requires t_star/n_steps == x_max/m_steps (relative tolerance 1e-9).
    """
    tg = TimeGrid(t_star, n_steps)
    xg = MaturityGrid(x_max, m_steps)
    if abs(tg.dt - xg.dx) > 1e-9 * tg.dt:
        raise ValueError(
            "grids must be aligned: t_star/n_steps must equal x_max/m_steps"
        )
    return tg, xg


def drift_for_simulation(
    spec: VolatilitySpec,
    hurst: HurstParam,
    t_grid: TimeGrid,
    x_grid: MaturityGrid,
    theta_cells: int = 1024,
) -> DriftField:
    """No-arbitrage drift on the extended maturity range [0, x_max + t_star].

    The recursion consumes drift arguments up to x_max + t_star; building
    the field on the extended grid keeps every lookup an exact index.
    """
    from .drift import drift_field

    ext_points = np.arange(x_grid.m_steps + t_grid.n_steps + 1) * t_grid.dt
    return drift_field(spec, hurst, t_grid.points, ext_points, theta_cells=theta_cells)


def _check_sim_inputs(spec, drift, init, paths, x_grid):
    tg = paths.grid
    n, m = tg.n_steps, x_grid.m_steps
    simulation_grids(tg.t_star, n, x_grid.x_max, m)  # raises unless the grids align
    if drift.values.shape[0] != n + 1 or drift.values.shape[1] < n + m + 1:
        raise ValueError(
            "drift field must cover the t-grid and the extended maturity range"
        )
    if abs(drift.dt - tg.dt) > 1e-9 * tg.dt or abs(drift.dx - tg.dt) > 1e-9 * tg.dt:
        raise ValueError("drift field grids do not match the simulation grids")
    if init.values.size < n + m + 1 or abs(init.dx - tg.dt) > 1e-9 * tg.dt:
        raise ValueError("initial curve must cover [0, t_star + x_max] at grid spacing")
    if paths.dims != spec.dims:
        raise ValueError("path set dimension does not match the volatility spec")


def _vol_cube(spec: VolatilitySpec, t_grid: TimeGrid, ext_points: np.ndarray) -> np.ndarray:
    """sigma_j(t_i, x_q) on the extended maturity grid; shape (d, n, Q)."""
    t = t_grid.points[:-1, None]
    x = ext_points[None, :]
    return np.stack([eval_vol(spec, j, t, x) for j in range(1, spec.dims + 1)])


def simulate_forward(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init: InitialCurve,
    paths: FbmPathSet,
    x_grid: MaturityGrid,
) -> ForwardSurface:
    """Evolve the forward surface for every path in ``paths``.

    With zero drift and zero volatility this reduces to the exact shift
    r_t(x) = init(t + x).
    """
    _check_sim_inputs(spec, drift, init, paths, x_grid)
    tg = paths.grid
    n, m = tg.n_steps, x_grid.m_steps
    dt = tg.dt
    n_paths = paths.n_paths
    ext_points = np.arange(n + m + 1) * dt
    vol = _vol_cube(spec, tg, ext_points)
    dbeta = paths.increments()

    rates = np.empty((n_paths, n + 1, m + 1))
    cur = np.tile(init.values[: n + m + 1], (n_paths, 1))
    rates[:, 0, :] = cur[:, : m + 1]
    for i in range(n):
        length = n + m - i  # points retained after this step
        upd = drift.values[i, 1 : length + 1] * dt
        new = cur[:, 1 : length + 1] + upd[None, :]
        for j in range(spec.dims):
            new += dbeta[:, j, i][:, None] * vol[j, i, 1 : length + 1][None, :]
        cur = new
        rates[:, i + 1, :] = cur[:, : m + 1]
    return ForwardSurface(t_grid=tg, x_grid=x_grid, rates=rates)


def _maturity_indices(t_grid: TimeGrid, x_grid: MaturityGrid, maturities) -> np.ndarray:
    mats = np.asarray(maturities, dtype=float)
    dt = t_grid.dt
    idx = np.round(mats / dt).astype(int)
    if np.any(np.abs(idx * dt - mats) > 1e-9 * max(dt, 1.0)):
        raise ValueError("maturities must sit on the time grid")
    if np.any(mats > t_grid.t_star + x_grid.x_max + 1e-12):
        raise ValueError("maturity beyond the maturity grid")
    return idx


def bond_surface(
    surface: ForwardSurface, maturities=None
) -> BondSurface:
    """Zero-coupon prices P(t_i, T_m) = exp(-trapz of r_{t_i} over [0, T_m - t_i]).

    ``maturities`` default to the full time grid; every requested pair
    needs T_m - t_i <= x_max.  P(t, t) = 1 exactly (empty integral);
    entries with t_i > T_m are NaN.
    """
    tg, xg = surface.t_grid, surface.x_grid
    if maturities is None:
        maturities = tg.points
    idx = _maturity_indices(tg, xg, maturities)
    dx = xg.dx
    # cumulative trapezoid along x, written in place to limit temporaries
    cum = surface.rates[:, :, 1:] + surface.rates[:, :, :-1]
    cum *= 0.5 * dx
    np.cumsum(cum, axis=2, out=cum)
    n_paths = surface.n_paths
    m = xg.m_steps
    prices = np.full((n_paths, tg.n_steps + 1, idx.size), np.nan)
    for m_i, mat_idx in enumerate(idx):
        # rows with both t_i <= T_m and T_m - t_i <= x_max
        first = max(0, mat_idx - m)
        last = min(mat_idx, tg.n_steps)
        rows = np.arange(first, last + 1)
        spans = mat_idx - rows
        vals = np.zeros((n_paths, rows.size))
        nz = spans > 0
        vals[:, nz] = cum[:, rows[nz], spans[nz] - 1]
        prices[:, first : last + 1, m_i] = np.exp(-vals)
    return BondSurface(
        t_grid=tg, maturities=np.asarray(maturities, dtype=float), prices=prices
    )


def money_account(surface: ForwardSurface) -> np.ndarray:
    """Numeraire S0[p, i] = exp(trapz of the short rate up to t_i); S0(0) = 1."""
    short = surface.short_rate()
    dt = surface.t_grid.dt
    steps = 0.5 * (short[:, 1:] + short[:, :-1]) * dt
    out = np.ones_like(short)
    out[:, 1:] = np.exp(np.cumsum(steps, axis=1))
    return out


def discounted_surface(bonds: BondSurface, account: np.ndarray) -> BondSurface:
    """Discounted prices Z = P / S0 with aligned (path, time) axes."""
    if account.shape != bonds.prices.shape[:2]:
        raise ValueError("money account shape does not match the bond surface")
    z = bonds.prices / account[:, :, None]
    return BondSurface(
        t_grid=bonds.t_grid, maturities=bonds.maturities, prices=bonds.prices,
        discounted=z,
    )


def _generate_paths(method, t_grid, dims, n_paths, hurst, seed, offset) -> FbmPathSet:
    """Paths ``offset, offset + 1, ...`` from the ``cholesky`` or ``volterra`` generator."""
    if method == "cholesky":
        return generate_cholesky(t_grid, dims, n_paths, hurst, seed, path_offset=offset)
    if method == "volterra":
        driver = BrownianDriver.generate(t_grid, dims, n_paths, seed, path_offset=offset)
        return generate_volterra(driver, hurst)
    raise ValueError(f"unknown generation method {method!r}")


def simulate_batches(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init: InitialCurve,
    t_grid: TimeGrid,
    x_grid: MaturityGrid,
    n_paths: int,
    seed: int,
    batch_size: int = 1000,
    method: str = "cholesky",
):
    """Generator of ``(offset, paths, surface, discounted)`` batches.

    Each batch runs generate -> simulate -> bond prices on every grid
    maturity -> money account -> discount; ``offset`` is the global number
    of its first path and ``method`` picks the path generator
    (``cholesky`` or ``volterra``).  Per-path substreams are indexed by the
    global path number, so the yielded paths are identical for any batch
    size.  Memory stays bounded by the batch, provided the caller drops a
    batch before asking for the next one; the generator holds no yielded
    batch, so the parts a caller drops are freed at once.
    """

    def batch(offset: int):
        take = min(batch_size, n_paths - offset)
        paths = _generate_paths(method, t_grid, spec.dims, take, hurst, seed, offset)
        surface = simulate_forward(spec, hurst, drift, init, paths, x_grid)
        bonds = bond_surface(surface)
        return offset, paths, surface, discounted_surface(bonds, money_account(surface))

    for offset in range(0, n_paths, batch_size):
        yield batch(offset)


def affine_log_discount(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init: InitialCurve,
    t_grid: TimeGrid,
    x_grid: MaturityGrid,
    maturities,
):
    """``(c, g)`` with log Z(t_i, T_m) = c[i, m] + sum_{j, l<i} g[j, l, m] dbeta_j_l.

    ``c`` (n+1, M) is log Z on the zero-increment path through the surface
    route, NaN where the surface route prices nothing; ``g`` (d, n, M) is
    -(C_j(l, T_m - t_l) - dt * sigma_j(t_l, 0) / 2), zero for t_l >= T_m
    (see the module docstring).
    """
    n, dt = t_grid.n_steps, t_grid.dt
    idx = _maturity_indices(t_grid, x_grid, maturities)
    zero = FbmPathSet(
        grid=t_grid, dims=spec.dims, n_paths=1, samples=np.zeros((1, spec.dims, n + 1))
    )
    surface = simulate_forward(spec, hurst, drift, init, zero, x_grid)
    bonds = discounted_surface(bond_surface(surface, maturities), money_account(surface))
    c = np.log(bonds.discounted[0])

    vol = _vol_cube(spec, t_grid, np.arange(n + x_grid.m_steps + 1) * dt)
    cum = np.zeros_like(vol)
    cum[:, :, 1:] = np.cumsum(0.5 * dt * (vol[:, :, 1:] + vol[:, :, :-1]), axis=2)
    spans = idx[None, :] - np.arange(n)[:, None]  # (T_m - t_l) / dt, shape (n, M)
    g = -(cum[:, np.arange(n)[:, None], np.maximum(spans, 0)] - 0.5 * dt * vol[:, :, :1])
    g[:, spans <= 0] = 0.0
    return c, g


def _z_rows(c: np.ndarray, g: np.ndarray, dbeta: np.ndarray):
    """Rows exp(c[i] + S_i), i = 0 .. n, of one batch's increments ``dbeta`` (paths, d, n).

    S is one running (paths, M) sum: S_0 = 0, S_1 the first step and
    S_{l+1} = S_l + step_l, where step_l is factor 0's dbeta * g with the
    later factors added in factor order.
    """
    total = np.zeros((dbeta.shape[0], c.shape[1]))
    for i in range(c.shape[0]):
        if i:
            step = dbeta[:, 0, i - 1, None] * g[0, i - 1]
            for j in range(1, g.shape[0]):
                step += dbeta[:, j, i - 1, None] * g[j, i - 1]
            # S_1 is the step itself, as a cumulative sum starts: 0.0 + step
            # would turn a -0.0 into 0.0
            if i == 1:
                total = step
            else:
                total += step
        z = total + c[i]
        np.exp(z, out=z)
        yield z


def _driver_map(method: str, t_grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """A (n, n) with dbeta = A b for one factor's driver increments b.

    A is L / sqrt(dt) for ``cholesky`` (L the increment factor) and D K for
    ``volterra`` (K the kernel matrix, D its row difference).
    """
    if method == "cholesky":
        return _increment_factor(t_grid, hurst) / np.sqrt(t_grid.dt)
    if method == "volterra":
        kmat = _volterra_matrix(t_grid, hurst)
        return kmat[1:] - kmat[:-1]
    raise ValueError(f"unknown generation method {method!r}")


def affine_draws(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init: InitialCurve,
    t_grid: TimeGrid,
    x_grid: MaturityGrid,
    n_paths: int,
    seed: int,
    pairs=(),
    row_maturities=None,
    batch_size: int = 1000,
    method: str = "cholesky",
):
    """Generator of ``(PairPrices | None, ZRows | None)`` per batch, both from one draw per path.

    The same paths as :func:`simulate_batches`, drawn as driver increments
    b through :meth:`~fhjm.fbm.BrownianDriver.generate`, ``CHUNK_PATHS``
    paths at a time.  ``(c, g)`` of :func:`affine_log_discount` and the
    driver map A (dbeta = A b) are built once per run, on the sorted union
    of the pair and row maturities.  With ``pairs``, log Z at the pair
    (t_i, T) is c(i, T) + b . h with h = A[:i]^T g[:i, T] (the module
    docstring); each path's prices are one (1, d * n) @ (d * n, P) product
    of their own, so their bits do not depend on how many paths share a
    chunk, and no (paths, d, n) array outlives its chunk.  A pair or a row
    maturity off the grid, or past the maturities the surface route prices,
    is a ``ValueError`` under the cell rule of :class:`BondSurface`; a pair
    with t > T prices as NaN.  With ``row_maturities``, the batch's increments
    dbeta = A b (one stacked product per path) become a :class:`ZRows`
    stream on those maturities, in their order: row i is exp(c[i] + S_i),
    S the running sum of :func:`_z_rows`, NaN where the surface route
    prices nothing.  A consumer that stops early leaves the later rows
    uncomputed, and each pass starts the sum again.  A part not asked for
    is None.  Both agree with the surface route to rounding, and each
    path's values are the same whatever the batch size.
    """
    pairs = tuple((float(t), float(T)) for t, T in pairs)
    row_mats = () if row_maturities is None else np.asarray(row_maturities, dtype=float)
    # a sorted set, not np.union1d, which imports numpy.ma
    mats = np.array(sorted({T for _, T in pairs}.union(row_mats)))
    # the cell rule over every maturity node the surface route prices
    nodes = t_grid.dt * np.arange(t_grid.n_steps + x_grid.m_steps + 1)
    cells = BondSurface(t_grid=t_grid, maturities=nodes)
    i_pair = [cells.row(t, "panel time") for t, _ in pairs]
    for _, T in pairs:
        cells.column(T, "panel maturity")
    for T in row_mats:
        cells.column(T, "row maturity")
    m_pair = np.searchsorted(mats, [T for _, T in pairs])
    amap = _driver_map(method, t_grid, hurst)  # refuses a grid past the Cholesky budget first
    c, g = affine_log_discount(spec, hurst, drift, init, t_grid, x_grid, mats)
    reach = np.arange(t_grid.n_steps)[:, None] < np.array(i_pair)  # l < i for each pair
    h = (amap.T @ (g[:, :, m_pair] * reach)).reshape(spec.dims * t_grid.n_steps, len(pairs))
    c_pairs, targets = c[i_pair, m_pair], np.exp(c[0, m_pair])
    if row_maturities is None:
        amap = None  # h holds all that the pairs need of A
    else:
        at_row = np.searchsorted(mats, row_mats)
        c, g = c[:, at_row], g[:, :, at_row]

    def batch(offset: int):
        take = min(batch_size, n_paths - offset)
        values = np.empty((take, len(pairs))) if pairs else None
        dbeta = None if row_maturities is None else np.empty((take, spec.dims, t_grid.n_steps))
        for start in range(0, take, CHUNK_PATHS):
            stop = min(start + CHUNK_PATHS, take)
            b = BrownianDriver.generate(t_grid, spec.dims, stop - start, seed,
                                        path_offset=offset + start).increments
            if values is not None:
                out = values[start:stop]
                np.matmul(b.reshape(stop - start, 1, -1), h, out=out[:, None])
                out += c_pairs
                np.exp(out, out=out)
            if dbeta is not None:
                # one stacked (d, n) @ (n, n) product per path, as the generators take
                np.matmul(b, amap.T, out=dbeta[start:stop])
        prices = None if values is None else PairPrices(pairs, targets, values)
        rows = None
        if dbeta is not None:
            rows = ZRows(t_grid=t_grid, maturities=row_mats, n_paths=take,
                         rows=partial(_z_rows, c, g, dbeta))
        return prices, rows

    for offset in range(0, n_paths, batch_size):
        yield batch(offset)


def closed_form_bond(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init: InitialCurve,
    paths: FbmPathSet,
    x_grid: MaturityGrid,
    maturities=None,
) -> BondSurface:
    """Bond prices via the exponential formula, bypassing curve integration.

    Rebuilds only the short-rate column with the transport recursion, then
    prices every (t_i, T_m) pair from P(0, T), the accumulated short rate,
    the maturity-integrated drift, and left-point stochastic sums of the
    maturity-integrated volatilities.  Serves as the second oracle against
    :func:`bond_surface`.
    """
    _check_sim_inputs(spec, drift, init, paths, x_grid)
    tg = paths.grid
    n = tg.n_steps
    dt = tg.dt
    if maturities is None:
        maturities = tg.points
    idx = _maturity_indices(tg, x_grid, maturities)
    mats = np.asarray(maturities, dtype=float)
    dbeta = paths.increments()
    n_paths = paths.n_paths

    # short-rate path r_{t_i}(0) = init(t_i)
    #   + sum_{l<i} drift(t_l, t_i - t_l) dt + sum_j sigma_j(t_l, t_i - t_l) dbeta
    short = np.empty((n_paths, n + 1))
    short[:, 0] = init.values[0]
    for i in range(1, n + 1):
        ls = np.arange(i)
        acc = init.values[i] + drift.values[ls, i - ls].sum() * dt
        noise = np.zeros(n_paths)
        for j in range(1, spec.dims + 1):
            svals = np.asarray(eval_vol(spec, j, tg.points[ls], (i - ls) * dt), dtype=float)
            noise += dbeta[:, j - 1, :i] @ svals
        short[:, i] = acc + noise

    log_s0 = np.zeros((n_paths, n + 1))
    log_s0[:, 1:] = np.cumsum(0.5 * (short[:, 1:] + short[:, :-1]) * dt, axis=1)

    # deterministic pieces per maturity
    prices = np.full((n_paths, n + 1, idx.size), np.nan)
    p0 = np.empty(idx.size)
    for m_i, mat_idx in enumerate(idx):
        span_vals = init.values[: mat_idx + 1]
        p0[m_i] = np.exp(-np.trapezoid(span_vals, dx=dt))
    for m_i, mat_idx in enumerate(idx):
        maturity = mats[m_i]
        last = min(mat_idx, n)
        # drift maturity integral IA(t_l, T) on the l-th row
        ia = drift.maturity_integral(np.arange(last + 1), maturity - tg.points[: last + 1])
        iv = np.zeros((spec.dims, last + 1))
        for j in range(1, spec.dims + 1):
            iv[j - 1] = np.asarray(
                integrated_vol(spec, j, tg.points[: last + 1], maturity), dtype=float
            )
        ia_cum = np.zeros(last + 1)
        if last >= 1:
            ia_cum[1:] = np.cumsum(0.5 * (ia[1:] + ia[:-1]) * dt)
        stoch = np.zeros((n_paths, last + 1))
        for j in range(spec.dims):
            if last >= 1:
                stoch[:, 1:] += np.cumsum(dbeta[:, j, :last] * iv[j, :last][None, :], axis=1)
        prices[:, : last + 1, m_i] = p0[m_i] * np.exp(
            log_s0[:, : last + 1] - ia_cum[None, :] - stoch
        )
    return BondSurface(t_grid=tg, maturities=mats, prices=prices)


def write_forward_csv(
    surface: ForwardSurface, fileobj, offset: int = 0, header: bool = True
) -> None:
    """Rows (path_id, t, x, r), 17 significant digits.

    Path ids start at ``offset``; ``header=False`` appends a later batch.
    """
    n = surface.n_paths
    write_rows(
        fileobj, ["path_id", "t", "x", "r"], range(offset, offset + n),
        (surface.t_grid.points, surface.x_grid.points), [surface.rates.reshape(n, -1)],
        write_header=header,
    )


def write_bond_csv(bonds: BondSurface, fileobj, offset: int = 0, header: bool = True) -> None:
    """Rows (path_id, t, T, P, Z); Z empty when no discounting was applied.

    Only (t, T) cells priced on some path are written: t > T, and T - t
    past the maturity grid, have no price.
    """
    n = bonds.n_paths
    z = None if bonds.discounted is None else bonds.discounted.reshape(n, -1)
    write_rows(
        fileobj, ["path_id", "t", "T", "P", "Z"], range(offset, offset + n),
        (bonds.t_grid.points, bonds.maturities), [bonds.prices.reshape(n, -1), z],
        write_header=header, keep=~np.isnan(bonds.prices).all(axis=0).ravel(),
    )
