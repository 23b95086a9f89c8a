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
from operator import itemgetter

import numpy as np

from .drift import DriftField, expectation_kernel, log_expectation
from .hjm import BondSurface, affine_batches, simulate_batches
from .kernels import HurstParam
from .vol import VolatilitySpec

__all__ = [
    "QuasiMartingaleReport",
    "OscillationReport",
    "drift_identity_check",
    "check_quasi_martingale",
    "oscillation_probe",
    "simulate_discounted_batches",
]


def simulate_discounted_batches(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init,
    t_grid,
    x_grid,
    n_paths: int,
    seed: int,
    maturities=None,
    batch_size: int = 1000,
    method: str = "cholesky",
):
    """Discounted bond-surface batches, one :class:`~fhjm.hjm.BondSurface` each.

    With explicit ``maturities`` only those columns are priced, on the
    affine route of :func:`fhjm.hjm.affine_batches`; without, every grid
    maturity is, on the surface route of :func:`fhjm.hjm.simulate_batches`.
    Both routes draw the same paths and agree to rounding.
    """
    if maturities is not None:
        return affine_batches(
            spec, hurst, drift, init, t_grid, x_grid, n_paths, seed, maturities,
            batch_size=batch_size, method=method,
        )
    batches = simulate_batches(
        spec, hurst, drift, init, t_grid, x_grid, n_paths, seed,
        batch_size=batch_size, method=method,
    )
    # only the discounted surface outlives the yield: each batch's paths and
    # forward surface are freed while the consumer works on it
    return map(itemgetter(3), batches)


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
    maturity: float,
    theta_cells: int = 512,
) -> float:
    """max over grid t of |maturity integral of the drift - e(t, T)|.

    The left side integrates the drift field over [0, T - t] by trapezoid;
    the right side is the expectation kernel from its own product
    integration.  Agreement is the core no-arbitrage drift restriction.
    """
    t = drift.t_points[drift.t_points <= maturity + 1e-12]
    lhs = drift.maturity_integral(np.arange(t.size), maturity - t)
    rhs = expectation_kernel(spec, hurst, t, maturity, n_cells=theta_cells)
    return float(np.max(np.abs(lhs - rhs)))


def _iter_surfaces(discounted) -> list:
    if isinstance(discounted, BondSurface):
        return [discounted]
    return discounted


def _pair_indices(surface: BondSurface, pairs) -> list:
    dt = surface.t_grid.dt
    out = []
    for t, maturity in pairs:
        i = int(round(t / dt))
        if abs(i * dt - t) > 1e-9:
            raise ValueError(f"panel time {t} not on the grid")
        m_candidates = np.nonzero(np.abs(surface.maturities - maturity) < 1e-9)[0]
        if m_candidates.size == 0:
            raise ValueError(f"panel maturity {maturity} not among surface maturities")
        out.append((i, int(m_candidates[0])))
    return out


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
            pair_idx = _pair_indices(surface, pairs)
            targets = np.array([surface.discounted[0, 0, m] for (_, m) in pair_idx])
        vals = np.stack(
            [surface.discounted[:, i, m] for (i, m) in pair_idx], axis=1
        )
        if np.any(np.isnan(vals)):
            raise ValueError("panel pairs must satisfy t <= T on the surface")
        panel.append(vals)
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
        z = surface.discounted
        mat_idx = _pair_indices(surface, [(t, t) for t in taus])
        for a, tau in enumerate(taus):
            i_tau, m_tau = mat_idx[a]
            diag = z[:, i_tau, m_tau]
            # region t >= tau, maturity >= t: NaN entries already encode t > T
            region = z[:, i_tau:, :]
            with np.errstate(invalid="ignore"):
                ratio = diag[:, None, None] / region
                dev = np.nanmax(np.abs(ratio - 1.0), axis=(1, 2))
            counts[a] += (dev[:, None] < thresholds).sum(axis=0)
        total += z.shape[0]
    if total == 0:
        raise ValueError("no surfaces supplied")
    freq = counts / float(total)
    return OscillationReport(
        taus=taus, thresholds=thresholds, frequencies=freq, n_paths=total
    )
