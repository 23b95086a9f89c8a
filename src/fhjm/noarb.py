"""Constant-expectation (quasi-martingale) checks and the oscillation probe.

Under the no-arbitrage drift the discounted bond prices satisfy
E Z_t(T) = P(0, T) for every pair t <= T.  Two independent verifications:

* :func:`drift_identity_check` -- the deterministic core: the maturity
  integral of the drift must equal the expectation kernel e(t, T)
  pointwise in t.  Both sides come from independent quadratures.
* :func:`check_quasi_martingale` -- Monte Carlo: panel z-scores of the
  sample mean of Z_t(T) against the time-zero price Z_0(T) = P(0, T) of
  the same draw.

The oscillation probe estimates, per deterministic restart time tau, how
often the discounted surface stays within a relative band k of its value
at (tau, tau); a strictly positive frequency at small k is the desk-scale
counterpart of the positive-probability condition under which arbitrarily
small proportional costs remove arbitrage.

Each estimator reads one input form, the one ``fhjm check`` feeds it: an
iterable of batches, pulled one after another.  The panel reads
:class:`~fhjm.hjm.PairPrices`, the pair cells that
:func:`~fhjm.hjm.affine_draws` prices from each path's normals; one
reduction gives its means, standard errors and z-scores.  The probe reads
:class:`~fhjm.hjm.ZRows`, the time rows of Z that
:func:`~fhjm.hjm.affine_draws` streams from one running sum (a surface
hands over its own through :meth:`~fhjm.hjm.BondSurface.z_rows`); it
keeps Z_tau(tau) and one running max per tau.  Statistics accumulate in a
fixed deterministic order, so results are identical run to run and do not
depend on batch sizing.  :func:`integrated_identity_gap` is the panel's
deterministic companion, which ``fhjm check`` reports ungated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drift import DriftField, expectation_kernel, log_expectation
from .hjm import PairPrices, ZRows
from .kernels import HurstParam
from .vol import VolatilitySpec

__all__ = [
    "QuasiMartingaleReport",
    "OscillationReport",
    "drift_identity_check",
    "integrated_identity_gap",
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
        return {"n_paths": self.n_paths, "panel": rows}

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


def integrated_identity_gap(
    spec: VolatilitySpec, hurst: HurstParam, drift: DriftField, pairs
) -> float:
    """max over ``pairs`` (t, T) of |int_0^t A(s, T) ds - int_0^t e(s, T) ds|.

    A(s, T) is the drift's maturity integral over [0, T - s], integrated
    in s by trapezoid over the drift's time rows up to t.  The right side
    is :func:`~fhjm.drift.log_expectation` on 256 cells, one cell-moment
    set per distinct t, shared by its maturities.  ``fhjm check`` reports
    it, ungated, as ``quasi_martingale.identity_gap``.
    """
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
    return float(max(gaps))


def check_quasi_martingale(prices, pairs) -> QuasiMartingaleReport:
    """Panel z-scores of mean discounted prices against their t = 0 values.

    ``prices`` is the Monte Carlo set, an iterable of batches, each the
    :class:`~fhjm.hjm.PairPrices` of these ``pairs`` that
    :func:`~fhjm.hjm.affine_draws` yields; a lone batch or another batch
    type is a ``TypeError``.  The target P(0, T) is the t = 0 price, which
    is path independent.
    """
    if isinstance(prices, PairPrices):
        raise TypeError("the panel takes an iterable of PairPrices batches, e.g. [prices], "
                        "not one PairPrices")
    key = tuple((float(t), float(T)) for t, T in pairs)
    panel = []
    for batch in prices:
        if not isinstance(batch, PairPrices):
            raise TypeError(f"the panel takes PairPrices batches, not {type(batch).__name__}")
        if batch.pairs != key:
            raise ValueError(f"prices for pairs {batch.pairs} given for the panel {key}")
        targets = batch.targets
        panel.append(batch.values)
    if not panel:
        raise ValueError("no surfaces supplied")
    # one reduction over every path in path order, so the sums do not depend
    # on how the paths were batched; deviations from the target avoid the
    # catastrophic cancellation a raw sum-of-squares would suffer at tiny
    # variances.  The deviations and their squares share one array.
    dev = np.concatenate(panel)
    del panel, batch
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
    return QuasiMartingaleReport(
        pairs=list(pairs), targets=targets, means=means, std_errors=std_errors,
        z_scores=z, n_paths=count,
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


def oscillation_probe(rows, thresholds, taus) -> OscillationReport:
    """Frequency of { sup_{tau <= t <= T} |Z_tau(tau)/Z_t(T) - 1| < k } per path.

    ``rows`` is an iterable of :class:`~fhjm.hjm.ZRows` batches; a caller
    with a discounted surface passes ``[surface.z_rows()]``, and a lone
    batch or another batch type is a ``TypeError``.  ``taus``
    must sit on the time grid and the row maturities must include
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
    if isinstance(rows, ZRows):
        raise TypeError("the probe takes an iterable of ZRows batches, e.g. [surface.z_rows()], "
                        "not one ZRows")
    for batch in rows:
        if not isinstance(batch, ZRows):
            raise TypeError("the probe takes ZRows batches, e.g. [surface.z_rows()], "
                            f"not {type(batch).__name__}")
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
