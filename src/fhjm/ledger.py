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

:func:`holdings` reads one batch of Z as a ``ZRows`` stream, the rows
that :func:`~fhjm.hjm.affine_draws` yields (a surface hands over its own
through :meth:`~fhjm.hjm.BondSurface.z_rows`), and gathers the maturity
columns the strategy's atoms use and the gated positions in one pass over
the time rows.  The ledger and the pairing check take its
:class:`Holdings`, so one series serves both, and compute their sums on
all its paths at once.

``integration_by_parts_check`` verifies the discrete pairing identity

    int G d(mu) + int mu d(G) = G_T* mu_T* - G_0 mu_0

with the jump integral taking G at the right endpoint (the upper-sum
convention, under which the identity telescopes exactly at any grid
resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._table import write_rows
from .drift import _row_dots

__all__ = [
    "DiscreteMeasure",
    "Gate",
    "StrategyLeg",
    "Strategy",
    "LedgerResult",
    "Holdings",
    "total_variation",
    "holdings",
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


class Holdings(NamedTuple):
    """A strategy's gated holdings against one batch of Z, over its atoms' maturity columns.

    ``held`` and ``z`` are (n_paths, n + 1, C) over the C maturity columns
    that the strategy's atoms use, in the batch's order: ``held[p, i]`` is
    the position carried into t_i on path p (held over (t_{i-1}, t_i], zero
    at t_0), and ``z`` the discounted prices with NaN read as 0.
    """

    times: np.ndarray
    held: np.ndarray
    z: np.ndarray


def holdings(strategy: Strategy, rows) -> Holdings:
    """The :class:`Holdings` of ``strategy`` on one :class:`~fhjm.hjm.ZRows` batch.

    One pass over the rows copies the atom columns of each row, and a
    threshold gate is one mask over paths, read off its gate column in the
    row at its leg's start.  :func:`liquidation_value` and
    :func:`integration_by_parts_check` both take the result.
    """
    legs = strategy.legs
    cols = sorted({rows.column(T, "atom maturity") for leg in legs for T, _ in leg.measure.atoms})
    spans = [(rows.row(leg.start, "leg boundary"), rows.row(leg.end, "leg boundary"))
             for leg in legs]
    # the (row, column) cell each threshold gate reads, by leg
    gates = {k: (spans[k][0], rows.column(leg.gate.maturity, "gate maturity"))
             for k, leg in enumerate(legs) if leg.gate.kind == "threshold"}
    # the price columns in a column-major (C, paths, n + 1) buffer, the strides
    # of numpy's own gather z[:, :, cols]: with eight or more columns a BLAS
    # dot's summation order follows the strides, so the layout is stated here
    # rather than left to the source of the rows
    z = np.empty((len(cols), rows.n_paths, rows.t_grid.n_steps + 1))
    observed = {}
    for i, row in enumerate(rows.rows()):
        z[:, :, i] = row[:, cols].T
        observed.update((k, row[:, col]) for k, (r, col) in gates.items() if r == i)
    np.nan_to_num(z, copy=False, nan=0.0)
    held = np.zeros(z.shape[1:] + (len(cols),))
    for k, (leg, (i0, i1)) in enumerate(zip(legs, spans)):
        weights = np.zeros(len(cols))
        for T, w in leg.measure.atoms:
            weights[cols.index(rows.column(T, "atom maturity"))] += w
        active = slice(None)
        if k in observed:
            zg, gate = observed[k], leg.gate
            if np.isnan(zg).any():
                raise ValueError("gate maturity already expired at the rebalance time")
            active = zg <= gate.level if gate.op == "<=" else zg >= gate.level
        held[active, i0 + 1 : i1 + 1] = weights
    return Holdings(times=rows.t_grid.points, held=held, z=z.transpose(1, 2, 0))


def _value(gains: np.ndarray, costs: np.ndarray, liq: np.ndarray, k: float) -> np.ndarray:
    """V = gains - k * costs - k * liq, the one expression every cost level takes."""
    return gains - k * costs - k * liq


def liquidation_value(series: Holdings, k: float) -> LedgerResult:
    """Ledger of V_t^k on every path of ``series``, evaluated at every grid node.

    At node t_j (holdings over (t_i, t_{i+1}] are hold[i], so the position
    inherited into t_j is hold[j-1]):

        gains_j = sum_{l<j} hold[l] . (Z_{l+1} - Z_l)
        costs_j = sum_{l<j} Z_l . |hold[l] - hold[l-1]|   (trades before t_j)
        liq_j   = Z_j . |hold[j-1]|
        V_j     = gains_j - k * costs_j - k * liq_j

    so V_0 = 0 and the opening trade is charged from the first step on.
    The sums over l are one cumulative sum over [0, step_0, step_1, ...];
    every array of the result is (n_paths, n + 1).  For other cost levels
    on the same prices, take :meth:`LedgerResult.at` of the result.
    ``series`` is a strategy's :func:`holdings` on one batch.
    """
    if k < 0:
        raise ValueError("transaction cost k must be nonnegative")
    held, z = series.held, series.z
    steps = np.zeros((2,) + held.shape[:2])
    steps[0, :, 1:] = _row_dots(held[:, 1:], np.diff(z, axis=1))
    steps[1, :, 1:] = _row_dots(np.abs(np.diff(held, axis=1)), z[:, :-1])
    gains, costs = np.cumsum(steps, axis=2)
    liq = _row_dots(np.abs(held), z)
    return LedgerResult(
        times=series.times, gains=gains, costs=costs, liquidation=liq,
        value=_value(gains, costs, liq, k), k=float(k),
    )


def integration_by_parts_check(series: Holdings) -> np.ndarray:
    """Per-path residual of the discrete pairing identity, shape (n_paths,).

    With mu the (gated) holdings on one maturity T, mu_i the position held
    into t_i, and G the surface column t -> G_t(T):
    sum_i G_{t_{i+1}} (mu_{i+1} - mu_i) + sum_i mu_i (G_{t_{i+1}} - G_{t_i})
    - [G_N mu_N - G_0 mu_0] is an exact telescoping zero for
    piecewise-constant mu.  Returns its absolute value, summed over the
    atoms' maturity columns in the batch's order.  ``series`` is a
    strategy's :func:`holdings` on one batch.
    """
    mu = np.ascontiguousarray(series.held.transpose(0, 2, 1))  # (n_paths, C, n + 1)
    g = np.ascontiguousarray(series.z.transpose(0, 2, 1))
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
