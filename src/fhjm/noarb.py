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

Surfaces can be supplied as one discounted :class:`~fhjm.hjm.BondSurface`
or as any iterable of them (batches); statistics accumulate in a fixed
deterministic order, so results are identical run to run and do not
depend on batch sizing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .drift import DriftField, expectation_kernel, log_expectation
from .hjm import BondSurface
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

    def to_json(self) -> str:
        rows = [
            {
                "t": t, "T": T,
                "target": tg, "mc_mean": mu, "std_error": se, "z": z,
            }
            for (t, T), tg, mu, se, z in zip(
                self.pairs, self.targets, self.means, self.std_errors, self.z_scores
            )
        ]
        return json.dumps(
            {
                "n_paths": self.n_paths,
                "identity_gap": self.identity_gap,
                "panel": rows,
            },
            indent=2,
        )

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_paths": self.n_paths,
                "taus": self.taus.tolist(),
                "thresholds": self.thresholds.tolist(),
                "frequencies": self.frequencies.tolist(),
            },
            indent=2,
        )


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


def _iter_surfaces(discounted) -> list:
    if isinstance(discounted, BondSurface):
        return [discounted]
    return discounted


def check_quasi_martingale(
    discounted,
    spec: VolatilitySpec,
    hurst: HurstParam,
    pairs,
    drift: DriftField | None = None,
) -> QuasiMartingaleReport:
    """Panel z-scores of mean discounted prices against their t = 0 values.

    ``discounted`` is a discounted surface or an iterable of batch
    surfaces (the Monte Carlo set).  The target P(0, T) is read off the
    t = 0 row, which is path independent.  When ``drift`` is given, the
    deterministic decomposition check (drift maturity integral vs
    expectation kernel, integrated in t) is reported as ``identity_gap``.
    """
    targets = None
    pair_idx = None
    panel = []
    for surface in _iter_surfaces(discounted):
        if surface.discounted is None:
            raise ValueError("check_quasi_martingale needs discounted surfaces")
        if pair_idx is None:
            pair_idx = [
                (surface.row(t, "panel time"), surface.column(T, "panel maturity"))
                for t, T in pairs
            ]
            targets = np.array([surface.discounted[0, 0, m] for (_, m) in pair_idx])
        vals = np.stack(
            [surface.discounted[:, i, m] for (i, m) in pair_idx], axis=1
        )
        if np.any(np.isnan(vals)):
            raise ValueError("panel pairs must satisfy t <= T on the surface")
        panel.append(vals)
        del surface  # freed before the next batch is built
    if not panel:
        raise ValueError("no surfaces supplied")
    # one reduction over every path in path order, so the sums do not depend
    # on how the paths were batched; deviations from the target avoid the
    # catastrophic cancellation a raw sum-of-squares would suffer at tiny variances
    dev = np.concatenate(panel) - targets[None, :]
    count = dev.shape[0]
    if count < 2:
        raise ValueError("need at least two paths for standard errors")
    mean_dev = dev.sum(axis=0) / count
    means = targets + mean_dev
    variances = ((dev**2).sum(axis=0) - count * mean_dev**2) / (count - 1)
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


def _band_deviation(surface: BondSurface, tau: float) -> np.ndarray:
    """Per path, the largest |Z_tau(tau) / Z_t(T) - 1| over tau <= t <= T."""
    z = surface.discounted
    i_tau = surface.row(tau, "oscillation time")
    diag = z[:, i_tau, surface.column(tau, "oscillation time")]
    # region t >= tau, maturity >= t: NaN entries already encode t > T
    with np.errstate(invalid="ignore"):
        ratio = diag[:, None, None] / z[:, i_tau:, :]
        return np.nanmax(np.abs(ratio - 1.0), axis=(1, 2))


def oscillation_probe(discounted, thresholds, taus) -> OscillationReport:
    """Frequency of { sup_{tau <= t <= T} |Z_tau(tau)/Z_t(T) - 1| < k } per path.

    ``taus`` must sit on the time grid and the surface maturities must
    include the grid (Z_tau(tau) is read off the diagonal).  Frequencies
    are nonincreasing as k decreases and equal 1 for large k on bounded
    surfaces.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds <= 0):
        raise ValueError("thresholds must be positive")
    taus = np.asarray(taus, dtype=float)
    counts = np.zeros((taus.size, thresholds.size), dtype=np.int64)
    total = 0
    for surface in _iter_surfaces(discounted):
        if surface.discounted is None:
            raise ValueError("oscillation_probe needs discounted surfaces")
        for a, tau in enumerate(taus):
            dev = _band_deviation(surface, tau)
            counts[a] += (dev[:, None] < thresholds).sum(axis=0)
        total += surface.n_paths
        del surface  # freed before the next batch is built
    if total == 0:
        raise ValueError("no surfaces supplied")
    freq = counts / float(total)
    return OscillationReport(
        taus=taus, thresholds=thresholds, frequencies=freq, n_paths=total
    )
