"""Measure-valued bond strategies and proportional-cost accounting.

A strategy holds a signed measure on the maturity axis (finitely many
atoms on traded maturities), constant between rebalance dates.  Against a
discounted price path Z the liquidation value with proportional cost k is

    V_t^k = gains - k * (cost of every rebalance) - k * (cost of final liquidation)

with gains the left-point Riemann-Stieltjes sum of holdings against Z
increments, each rebalance charged k * Z_{t_i}(T) * |traded notional|,
and liquidation charged on the absolute holdings at t.  Gates make an
interval's holdings conditional on information available at its start;
they are declarative (always-on or a threshold on an observed discounted
price), so lookahead is impossible by construction.

``integration_by_parts_check`` verifies the discrete pairing identity

    int G d(mu) + int mu d(G) = G_T* mu_T* - G_0 mu_0

with the jump integral taking G at the right endpoint (the upper-sum
convention, under which the identity telescopes exactly at any grid
resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._table import write_rows
from .hjm import BondSurface

__all__ = [
    "DiscreteMeasure",
    "Gate",
    "StrategyLeg",
    "Strategy",
    "LedgerResult",
    "total_variation",
    "liquidation_value",
    "integration_by_parts_check",
    "write_ledger_csv",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Signed measure with finitely many atoms: [(maturity, weight), ...]."""

    atoms: tuple

    def __post_init__(self) -> None:
        atoms = tuple((float(T), float(w)) for T, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)

    def tv_norm(self) -> float:
        return float(sum(abs(w) for _, w in self.atoms))

    def weights_on(self, maturities: np.ndarray) -> np.ndarray:
        out = np.zeros(maturities.size)
        for T, w in self.atoms:
            hits = np.nonzero(np.abs(maturities - T) < 1e-9)[0]
            if hits.size == 0:
                raise ValueError(f"atom maturity {T} not on the bond grid")
            out[hits[0]] += w
        return out

    @property
    def max_maturity(self) -> float:
        return max((T for T, _ in self.atoms), default=0.0)

    @property
    def min_maturity(self) -> float:
        return min((T for T, _ in self.atoms), default=0.0)


@dataclass(frozen=True)
class Gate:
    """Decision rule for one interval, evaluated at the interval start.

    kind 'always'   -- unconditionally active.
    kind 'threshold'-- active when Z_{t_i}(T) op level, with op in {<=, >=}
                       and (T, level) fixed in advance; uses only the
                       surface value observed at the rebalance time.
    """

    kind: str = "always"
    maturity: float | None = None
    op: str | None = None
    level: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("always", "threshold"):
            raise ValueError("gate kind must be 'always' or 'threshold'")
        if self.kind == "threshold":
            if self.maturity is None or self.level is None or self.op not in ("<=", ">="):
                raise ValueError("threshold gate needs maturity, op in {<=, >=}, level")

    def evaluate(self, surface: BondSurface, path: int, i: int) -> bool:
        if self.kind == "always":
            return True
        mats = surface.maturities
        hits = np.nonzero(np.abs(mats - self.maturity) < 1e-9)[0]
        if hits.size == 0:
            raise ValueError(f"gate maturity {self.maturity} not on the bond grid")
        z = surface.discounted[path, i, hits[0]]
        if np.isnan(z):
            raise ValueError("gate maturity already expired at the rebalance time")
        return bool(z <= self.level) if self.op == "<=" else bool(z >= self.level)


@dataclass(frozen=True)
class StrategyLeg:
    """Holdings over (start, end]: a measure plus its gate."""

    start: float
    end: float
    measure: DiscreteMeasure
    gate: Gate = field(default_factory=Gate)

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError("leg must have end > start")


@dataclass(frozen=True)
class Strategy:
    """Piecewise-constant measure-valued process on non-overlapping legs.

    Holdings on (start_i, end_i] equal the leg measure when its gate fires
    (decided at start_i), zero otherwise; zero outside all legs.  The
    holdings measure must stay supported on [current time, horizon], so
    every atom must mature no earlier than its leg's end; holding a bond
    past its maturity is rejected at construction.
    """

    legs: tuple
    horizon: float

    def __post_init__(self) -> None:
        legs = tuple(sorted(self.legs, key=lambda leg: leg.start))
        for a, b in zip(legs[:-1], legs[1:]):
            if b.start < a.end - 1e-12:
                raise ValueError("strategy legs must not overlap")
        for leg in legs:
            if leg.end > self.horizon + 1e-12:
                raise ValueError("leg extends beyond the horizon")
            if leg.measure.atoms and leg.measure.min_maturity < leg.end - 1e-12:
                raise ValueError("atoms must mature no earlier than the leg end")
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "horizon", float(self.horizon))


@dataclass
class LedgerResult:
    """Per-path ledger: V_t^k with its gains / cost / liquidation split."""

    times: np.ndarray
    gains: np.ndarray        # (n_paths, n_times)
    costs: np.ndarray        # cumulative transaction costs (undiscounted by k)
    liquidation: np.ndarray  # instantaneous liquidation charge (per unit k)
    value: np.ndarray        # V_t^k
    k: float

    def final_values(self) -> np.ndarray:
        return self.value[:, -1]

    def admissibility_floor(self) -> np.ndarray:
        return self.value.min(axis=1)


def total_variation(strategy: Strategy) -> float:
    """Total-variation accumulation sup over partitions of sum ||d mu||_TV.

    For a piecewise-constant path the supremum is attained on the jump
    set: the initial jump from zero, every rebalance, and the drop back to
    zero when the last leg ends before the horizon.  Gates count as firing
    (the bound is over realizations).
    """
    jumps = 0.0
    prev: DiscreteMeasure | None = None
    legs = strategy.legs
    for idx, leg in enumerate(legs):
        if prev is None:
            jumps += leg.measure.tv_norm()
        else:
            prev_end = legs[idx - 1].end
            if abs(leg.start - prev_end) < 1e-12:
                merged = {}
                for T, w in prev.atoms:
                    merged[T] = merged.get(T, 0.0) - w
                for T, w in leg.measure.atoms:
                    merged[T] = merged.get(T, 0.0) + w
                jumps += sum(abs(w) for w in merged.values())
            else:
                jumps += prev.tv_norm() + leg.measure.tv_norm()
        prev = leg.measure
    if prev is not None and legs[-1].end < strategy.horizon - 1e-12:
        jumps += prev.tv_norm()
    return float(jumps)


def _holdings_series(
    strategy: Strategy, surface: BondSurface, path: int
) -> np.ndarray:
    """Effective (gated) holdings per maturity for every grid interval.

    Entry [i, m] is the weight on maturity m held over (t_i, t_{i+1}];
    the row at the final time holds the position carried into the horizon.
    """
    tg = surface.t_grid
    mats = surface.maturities
    n = tg.n_steps
    hold = np.zeros((n + 1, mats.size))
    dt = tg.dt
    for leg in strategy.legs:
        i0 = int(round(leg.start / dt))
        i1 = int(round(leg.end / dt))
        if abs(i0 * dt - leg.start) > 1e-9 or abs(i1 * dt - leg.end) > 1e-9:
            raise ValueError("leg boundaries must sit on the surface time grid")
        if not leg.gate.evaluate(surface, path, i0):
            continue
        weights = leg.measure.weights_on(mats)
        hold[i0:i1, :] = weights[None, :]
    return hold


def liquidation_value(
    strategy: Strategy, surface: BondSurface, k: float, path: int = 0
) -> LedgerResult:
    """Ledger of V_t^k along one discounted path, evaluated at every grid node.

    At node t_j (holdings over (t_i, t_{i+1}] are hold[i], so the position
    inherited into t_j is hold[j-1]):

        gains_j = sum_{l<j} hold[l] . (Z_{l+1} - Z_l)
        costs_j = sum_{l<j} Z_l . |hold[l] - hold[l-1]|   (trades before t_j)
        liq_j   = Z_j . |hold[j-1]|
        V_j     = gains_j - k * costs_j - k * liq_j

    so V_0 = 0 and the opening trade is charged from the first step on.
    """
    if k < 0:
        raise ValueError("transaction cost k must be nonnegative")
    if surface.discounted is None:
        raise ValueError("liquidation_value needs a discounted surface")
    tg = surface.t_grid
    n = tg.n_steps
    z = np.nan_to_num(surface.discounted[path], nan=0.0)
    hold = _holdings_series(strategy, surface, path)

    gains = np.zeros(n + 1)
    costs = np.zeros(n + 1)
    liq = np.zeros(n + 1)
    cum_gain = 0.0
    cum_cost = 0.0
    prev = np.zeros(hold.shape[1])
    for j in range(n + 1):
        gains[j] = cum_gain
        costs[j] = cum_cost
        liq[j] = float(np.abs(prev) @ z[j])
        if j < n:
            trade = hold[j] - prev
            if np.any(trade != 0.0):
                cum_cost += float(np.abs(trade) @ z[j])
            cum_gain += float(hold[j] @ (z[j + 1] - z[j]))
            prev = hold[j]
    value = gains - k * costs - k * liq
    return LedgerResult(
        times=tg.points, gains=gains[None, :], costs=costs[None, :],
        liquidation=liq[None, :], value=value[None, :], k=float(k),
    )


def integration_by_parts_check(
    strategy: Strategy, surface: BondSurface, path: int = 0, maturity: float | None = None
) -> float:
    """Residual of the discrete pairing identity along one maturity column.

    With mu the (gated) holdings on maturity T and G the surface column
    t -> G_t(T):  sum_i G_{t_{i+1}} (mu_{i+1} - mu_i) + sum_i mu_i
    (G_{t_{i+1}} - G_{t_i}) - [G_N mu_N - G_0 mu_0] is an exact telescoping
    zero for piecewise-constant mu; returns its absolute value (summed
    over atoms' maturities).
    """
    if surface.discounted is None:
        raise ValueError("integration_by_parts_check needs a discounted surface")
    tg = surface.t_grid
    n = tg.n_steps
    hold = _holdings_series(strategy, surface, path)
    z = np.nan_to_num(surface.discounted[path], nan=0.0)
    mats = surface.maturities
    if maturity is None:
        cols = range(mats.size)
    else:
        cols = [int(np.nonzero(np.abs(mats - maturity) < 1e-9)[0][0])]
    residual = 0.0
    for m in cols:
        g = z[:, m]
        mu = np.concatenate([[0.0], hold[:n, m]])  # mu at node i = holdings over (t_{i-1}, t_i]
        d_mu = np.diff(mu)
        d_g = np.diff(g)
        int_g_dmu = float(g[1:] @ d_mu)
        int_mu_dg = float(mu[:-1] @ d_g)
        boundary = g[-1] * mu[-1] - g[0] * mu[0]
        residual += abs(int_g_dmu + int_mu_dg - boundary)
    return residual


def write_ledger_csv(result: LedgerResult, fileobj, offset: int = 0, header: bool = True) -> None:
    """Rows (path_id, t, gains, cost, liquidation, V), 17 significant digits.

    Path ids start at ``offset``; ``header=False`` appends a later ledger.
    """
    write_rows(
        fileobj, ["path_id", "t", "gains", "cost", "liquidation", "V"],
        range(offset, offset + result.value.shape[0]), (result.times,),
        [result.gains, result.k * result.costs, result.k * result.liquidation, result.value],
        write_header=header,
    )
