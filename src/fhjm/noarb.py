"""Constant-expectation (quasi-martingale) checks and the oscillation probe.

Under the no-arbitrage drift the discounted bond prices satisfy
E Z_t(T) = P(0, T) for every pair t <= T.  Two independent verifications:

* :func:`drift_identity_check` -- the deterministic core: the maturity
  integral of the drift must equal the expectation kernel e(t, T)
  pointwise in t.  Both sides come from independent quadratures.
* :func:`check_quasi_martingale` -- Monte Carlo: panel z-scores of the
  sample mean of Z_t(T) against the time-zero price extracted from the
  simulated surfaces themselves.

The oscillation probe estimates, per deterministic restart time tau, how
often the discounted surface stays within a relative band k of its value
at (tau, tau); a strictly positive frequency at small k is the desk-scale
counterpart of the positive-probability condition under which arbitrarily
small proportional costs remove arbitrage.

Prices reach both estimators one batch after another, either one batch or
any iterable of them.  The probe reads time rows of Z:
:class:`~fhjm.hjm.ZRows` batches, such as :func:`~fhjm.hjm.affine_draws`
streams from one running sum, or discounted :class:`~fhjm.hjm.BondSurface`
objects, whose rows :meth:`~fhjm.hjm.BondSurface.z_rows` hands over; it
keeps Z_tau(tau) and one running max per tau.  The panel takes the same
row batches, copies its pair cells and stops pulling rows after the last
pair row, or takes :class:`~fhjm.hjm.PairPrices`, the pair cells already
priced, which ``fhjm check`` reads off each path's normals
(:func:`~fhjm.hjm.affine_draws`).  Either way its means, standard errors
and z-scores come from one reduction.  Each batch is released before the
next is pulled, and statistics accumulate in a fixed deterministic order,
so results are identical run to run and do not depend on batch sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drift import DriftField, expectation_kernel, log_expectation
from .hjm import BondSurface, PairPrices, ZRows
from .kernels import HurstParam
from .vol import VolatilitySpec

__all__ = [
    "QuasiMartingaleReport",
    "OscillationReport",
    "drift_identity_check",
    "check_quasi_martingale",
    "oscillation_probe",
]


@dataclass
class QuasiMartingaleReport:
    """Panel statistics for E Z_t(T) = P(0, T)."""

    pairs: list
    targets: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray
    z_scores: np.ndarray
    n_paths: int
    identity_gap: float | None = None

    def n_exceeding(self, level: float = 3.0) -> int:
        return int(np.sum(np.abs(self.z_scores) > level))

    def to_dict(self) -> dict:
        """The report as JSON-ready values, one entry per pair under ``panel``."""
        rows = [
            {
                "t": t, "T": T,
                "target": tg, "mc_mean": mu, "std_error": se, "z": z,
            }
            for (t, T), tg, mu, se, z in zip(
                self.pairs, self.targets, self.means, self.std_errors, self.z_scores
            )
        ]
        return {"n_paths": self.n_paths, "identity_gap": self.identity_gap, "panel": rows}

    def table(self) -> str:
        lines = [f"{'t':>8} {'T':>8} {'target':>12} {'mc_mean':>12} {'se':>10} {'z':>8}"]
        for (t, T), tg, mu, se, z in zip(
            self.pairs, self.targets, self.means, self.std_errors, self.z_scores
        ):
            lines.append(f"{t:8.4f} {T:8.4f} {tg:12.8f} {mu:12.8f} {se:10.2e} {z:8.2f}")
        return "\n".join(lines)


@dataclass
class OscillationReport:
    """Empirical small-oscillation frequencies per (tau, k)."""

    taus: np.ndarray
    thresholds: np.ndarray
    frequencies: np.ndarray  # shape (len(taus), len(thresholds))
    n_paths: int

    def to_dict(self) -> dict:
        """The report as JSON-ready values."""
        return {
            "n_paths": self.n_paths,
            "taus": self.taus.tolist(),
            "thresholds": self.thresholds.tolist(),
            "frequencies": self.frequencies.tolist(),
        }


def drift_identity_check(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    maturity,
    theta_cells: int = 512,
) -> float:
    """max over grid t <= T of |maturity integral of the drift - e(t, T)|.

    The left side integrates the drift field over [0, T - t] by trapezoid;
    the right side is the expectation kernel from its own product
    integration.  Agreement is the core no-arbitrage drift restriction.
    ``maturity`` may be a sequence: the gap is then the largest over all of
    them, and every grid time gets one set of hat weights.
    """
    mats = np.atleast_1d(np.asarray(maturity, dtype=float))
    rows = [np.flatnonzero(drift.t_points <= T + 1e-12) for T in mats]
    mats = np.repeat(mats, [i.size for i in rows])  # one (t, T) pair per row
    rows = np.concatenate(rows)
    t = drift.t_points[rows]
    lhs = drift.maturity_integral(rows, mats - t)
    rhs = expectation_kernel(spec, hurst, t, mats, n_cells=theta_cells)
    return float(np.max(np.abs(lhs - rhs)))


def _row_batches(discounted):
    """Each batch of ``discounted`` as :class:`ZRows` (or as it came, for
    :class:`PairPrices`), holding none once yielded."""
    if isinstance(discounted, (BondSurface, ZRows, PairPrices)):
        discounted = [discounted]
    # map keeps no reference to the previous batch while the next is built
    return map(lambda batch: batch.z_rows() if isinstance(batch, BondSurface) else batch,
               discounted)


def _pair_values(discounted, pairs):
    """``(targets, values)`` of each batch: Z(0, T) and the (paths, P) Z(t, T) of each pair.

    A :class:`PairPrices` batch carries both; a row stream gives its pair
    cells row by row, and no row after the last pair row is pulled.
    """
    pairs = tuple((float(t), float(T)) for t, T in pairs)
    at_row = None
    for batch in _row_batches(discounted):
        if isinstance(batch, PairPrices):
            if batch.pairs != pairs:
                raise ValueError(f"prices for pairs {batch.pairs} given for the panel {pairs}")
            yield batch.targets, batch.values
            continue
        if at_row is None:
            pair_idx = [
                (batch.row(t, "panel time"), batch.column(T, "panel maturity"))
                for t, T in pairs
            ]
            at_row = {}  # row -> [(pair, column)]
            for p, (i, m) in enumerate(pair_idx):
                at_row.setdefault(i, []).append((p, m))
            last = max(at_row)
        vals = np.full((batch.n_paths, len(pair_idx)), np.nan)
        for i, row in enumerate(batch.rows()):
            if i == 0:
                targets = np.array([row[0, m] for (_, m) in pair_idx])
            for p, m in at_row.get(i, ()):
                vals[:, p] = row[:, m]
            if i == last:
                break  # later rows are never pulled
        del batch, row  # freed before the next batch is built
        yield targets, vals


def check_quasi_martingale(
    discounted,
    spec: VolatilitySpec,
    hurst: HurstParam,
    pairs,
    drift: DriftField | None = None,
) -> QuasiMartingaleReport:
    """Panel z-scores of mean discounted prices against their t = 0 values.

    ``discounted`` is the Monte Carlo set: one batch or an iterable of
    batches, each a :class:`~fhjm.hjm.ZRows` stream, a discounted surface
    or the :class:`~fhjm.hjm.PairPrices` of these ``pairs``.  Rows after
    the last pair row are not pulled.  The target P(0, T) is the t = 0
    price, which is path independent.  When ``drift`` is given, the
    deterministic decomposition check (drift maturity integral vs
    expectation kernel, integrated in t) is reported as ``identity_gap``.
    """
    panel = []
    for targets, vals in _pair_values(discounted, pairs):
        panel.append(vals)
    if not panel:
        raise ValueError("no surfaces supplied")
    # one reduction over every path in path order, so the sums do not depend
    # on how the paths were batched; deviations from the target avoid the
    # catastrophic cancellation a raw sum-of-squares would suffer at tiny
    # variances.  The deviations and their squares share one array.
    dev = np.concatenate(panel)
    del panel, vals
    if np.any(np.isnan(dev)):
        raise ValueError("panel pairs must satisfy t <= T on the surface")
    dev -= targets
    count = dev.shape[0]
    if count < 2:
        raise ValueError("need at least two paths for standard errors")
    mean_dev = dev.sum(axis=0) / count
    means = targets + mean_dev
    variances = (np.square(dev, out=dev).sum(axis=0) - count * mean_dev**2) / (count - 1)
    std_errors = np.sqrt(np.maximum(variances, 0.0) / count)
    z = mean_dev / np.where(std_errors > 0, std_errors, np.inf)

    identity_gap = None
    if drift is not None:
        # one cell-moment set per distinct t, shared by its maturities
        rhs = {}
        for t in {float(t) for t, _ in pairs}:
            mats = sorted({float(T) for s, T in pairs if float(s) == t})
            values = log_expectation(spec, hurst, t, mats, n_cells=256)
            rhs.update(((t, T), v) for T, v in zip(mats, values))
        gaps = []
        for t, maturity in pairs:
            i = int(round(t / drift.dt))
            rows = drift.maturity_integral(np.arange(i + 1), maturity - drift.t_points[: i + 1])
            lhs = float(np.trapezoid(rows, dx=drift.dt))
            gaps.append(abs(lhs - rhs[float(t), float(maturity)]))
        identity_gap = float(max(gaps))
    return QuasiMartingaleReport(
        pairs=list(pairs), targets=targets, means=means, std_errors=std_errors,
        z_scores=z, n_paths=count, identity_gap=identity_gap,
    )


def _band_maxima(batch: ZRows, starts) -> np.ndarray:
    """(len(starts), paths): per tau, the largest |Z_tau(tau) / Z_t(T) - 1| over tau <= t <= T.

    ``starts`` holds each tau's (row, column).  The rows stream past once:
    a tau's running max takes in each row from its own on, over the row's
    live columns T >= t; ``np.fmax`` skips the NaN cells, as ``np.nanmax``
    does over a whole region.
    """
    t_points = batch.t_grid.points
    first = min((i for i, _ in starts), default=t_points.size)
    diags = [None] * len(starts)
    worst = np.full((len(starts), batch.n_paths), np.nan)
    for i, row in enumerate(batch.rows()):
        if i < first:
            continue
        live = row[:, batch.maturities >= t_points[i] - 1e-9]
        for a, (i_tau, m_tau) in enumerate(starts):
            if i == i_tau:
                diags[a] = row[:, m_tau, None].copy()
            if i >= i_tau and live.shape[1]:
                with np.errstate(invalid="ignore"):
                    dev = np.divide(diags[a], live)
                    dev -= 1.0
                np.abs(dev, out=dev)
                np.fmax(worst[a], np.fmax.reduce(dev, axis=1), out=worst[a])
    return worst


def oscillation_probe(discounted, thresholds, taus) -> OscillationReport:
    """Frequency of { sup_{tau <= t <= T} |Z_tau(tau)/Z_t(T) - 1| < k } per path.

    ``discounted`` is one batch or an iterable of batches, each a
    :class:`~fhjm.hjm.ZRows` stream or a discounted surface.  ``taus``
    must sit on the time grid and the surface maturities must include
    them (Z_tau(tau) is read off the diagonal).  Unpriced (NaN)
    cells do not count.  Frequencies are nonincreasing as k decreases and
    equal 1 for large k on bounded surfaces.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds <= 0):
        raise ValueError("thresholds must be positive")
    taus = np.asarray(taus, dtype=float)
    counts = np.zeros((taus.size, thresholds.size), dtype=np.int64)
    total = 0
    starts = None
    for batch in _row_batches(discounted):
        if starts is None:
            starts = [
                (batch.row(tau, "oscillation time"), batch.column(tau, "oscillation time"))
                for tau in taus
            ]
        worst = _band_maxima(batch, starts)
        counts += (worst[:, :, None] < thresholds).sum(axis=1)
        total += batch.n_paths
        del batch  # freed before the next batch is built
    if total == 0:
        raise ValueError("no surfaces supplied")
    freq = counts / float(total)
    return OscillationReport(
        taus=taus, thresholds=thresholds, frequencies=freq, n_paths=total
    )
