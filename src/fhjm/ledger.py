"""Measure-valued bond strategies and proportional-cost accounting.

A strategy holds a signed measure on the maturity axis (finitely many
atoms on traded maturities), constant between rebalance dates.  Against
the discounted prices Z of a bond surface the liquidation value with
proportional cost k is

    V_t^k = gains - k * (cost of every rebalance) - k * (cost of final liquidation)

with gains the left-point Riemann-Stieltjes sum of holdings against Z
increments, each rebalance charged k * Z_{t_i}(T) * |traded notional|,
and liquidation charged on the absolute holdings at t.  Gates make an
interval's holdings conditional on information available at its start;
they are declarative (always-on or a threshold on an observed discounted
price), so lookahead is impossible by construction.

Every function takes the whole surface and computes the same sums on all
its paths at once, over the maturity columns the strategy's atoms use.

``integration_by_parts_check`` verifies the discrete pairing identity

    int G d(mu) + int mu d(G) = G_T* mu_T* - G_0 mu_0

with the jump integral taking G at the right endpoint (the upper-sum
convention, under which the identity telescopes exactly at any grid
resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

    def at(self, k: float) -> "LedgerResult":
        """The same ledger at cost level ``k``: only ``value`` and ``k`` are new.

        Gains, costs and the liquidation charge do not depend on k, so one
        ledger serves every cost level with the bits of its own
        :func:`liquidation_value` call.
        """
        if k < 0:
            raise ValueError("transaction cost k must be nonnegative")
        return replace(self, value=_value(self.gains, self.costs, self.liquidation, k),
                       k=float(k))

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


def _holdings_series(strategy: Strategy, surface: BondSurface):
    """Gated holdings and discounted prices on the atoms' maturity columns.

    Returns ``(held, z)``, both (n_paths, n + 1, C) over the C surface
    columns that the strategy's atoms use, in surface order: ``held[p, i]``
    is the position carried into t_i on path p (held over (t_{i-1}, t_i],
    zero at t_0), and ``z`` the discounted prices with NaN read as 0.  A
    threshold gate is one mask over paths, read off the discounted price
    at its leg's start.
    """
    if surface.discounted is None:
        raise ValueError("the ledger needs a discounted surface")
    maturities = [T for leg in strategy.legs for T, _ in leg.measure.atoms]
    cols = sorted({surface.column(T, "atom maturity") for T in maturities})
    held = np.zeros((surface.n_paths, surface.t_grid.n_steps + 1, len(cols)))
    for leg in strategy.legs:
        i0 = surface.row(leg.start, "leg boundary")
        i1 = surface.row(leg.end, "leg boundary")
        weights = np.zeros(len(cols))
        for T, w in leg.measure.atoms:
            weights[cols.index(surface.column(T, "atom maturity"))] += w
        gate = leg.gate
        active = slice(None)
        if gate.kind == "threshold":
            z = surface.discounted[:, i0, surface.column(gate.maturity, "gate maturity")]
            if np.isnan(z).any():
                raise ValueError("gate maturity already expired at the rebalance time")
            active = z <= gate.level if gate.op == "<=" else z >= gate.level
        held[active, i0 + 1 : i1 + 1] = weights
    # the price columns in a column-major (C, paths, n + 1) buffer, the strides
    # of numpy's own gather z[:, :, cols]: with eight or more columns a BLAS
    # dot's summation order follows the strides, so the layout is stated here
    # rather than left to the gather
    z = np.empty((len(cols), surface.n_paths, surface.t_grid.n_steps + 1))
    for c, col in enumerate(cols):
        z[c] = surface.discounted[:, :, col]
    np.nan_to_num(z, copy=False, nan=0.0)
    return held, z.transpose(1, 2, 0)


def _value(gains: np.ndarray, costs: np.ndarray, liq: np.ndarray, k: float) -> np.ndarray:
    """V = gains - k * costs - k * liq, the one expression every cost level takes."""
    return gains - k * costs - k * liq


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows, each one BLAS dot as ``a[r] @ b[r]``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def liquidation_value(strategy: Strategy, surface: BondSurface, k: float) -> LedgerResult:
    """Ledger of V_t^k on every discounted path, evaluated at every grid node.

    At node t_j (holdings over (t_i, t_{i+1}] are hold[i], so the position
    inherited into t_j is hold[j-1]):

        gains_j = sum_{l<j} hold[l] . (Z_{l+1} - Z_l)
        costs_j = sum_{l<j} Z_l . |hold[l] - hold[l-1]|   (trades before t_j)
        liq_j   = Z_j . |hold[j-1]|
        V_j     = gains_j - k * costs_j - k * liq_j

    so V_0 = 0 and the opening trade is charged from the first step on.
    The sums over l are one cumulative sum over [0, step_0, step_1, ...];
    every array of the result is (n_paths, n + 1).  For other cost levels
    on the same surface, take :meth:`LedgerResult.at` of the result.
    """
    if k < 0:
        raise ValueError("transaction cost k must be nonnegative")
    held, z = _holdings_series(strategy, surface)
    steps = np.zeros((2,) + held.shape[:2])
    steps[0, :, 1:] = _row_dots(held[:, 1:], np.diff(z, axis=1))
    steps[1, :, 1:] = _row_dots(np.abs(np.diff(held, axis=1)), z[:, :-1])
    gains, costs = np.cumsum(steps, axis=2)
    liq = _row_dots(np.abs(held), z)
    return LedgerResult(
        times=surface.t_grid.points, gains=gains, costs=costs, liquidation=liq,
        value=_value(gains, costs, liq, k), k=float(k),
    )


def integration_by_parts_check(strategy: Strategy, surface: BondSurface) -> np.ndarray:
    """Per-path residual of the discrete pairing identity, shape (n_paths,).

    With mu the (gated) holdings on one maturity T, mu_i the position held
    into t_i, and G the surface column t -> G_t(T):
    sum_i G_{t_{i+1}} (mu_{i+1} - mu_i) + sum_i mu_i (G_{t_{i+1}} - G_{t_i})
    - [G_N mu_N - G_0 mu_0] is an exact telescoping zero for
    piecewise-constant mu.  Returns its absolute value, summed over the
    atoms' maturity columns in surface order.
    """
    held, z = _holdings_series(strategy, surface)
    mu = np.ascontiguousarray(held.transpose(0, 2, 1))  # (n_paths, C, n + 1)
    g = np.ascontiguousarray(z.transpose(0, 2, 1))
    pairing = _row_dots(g[..., 1:], np.diff(mu)) + _row_dots(mu[..., :-1], np.diff(g))
    boundary = g[..., -1] * mu[..., -1] - g[..., 0] * mu[..., 0]
    return np.abs(pairing - boundary).sum(axis=-1)


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
