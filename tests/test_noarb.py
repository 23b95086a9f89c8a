import json

import numpy as np
import pytest

from fhjm.drift import drift_field
from fhjm.fbm import TimeGrid
from fhjm.hjm import (
    BondSurface,
    InitialCurve,
    affine_batches,
    drift_for_simulation,
    simulation_grids,
)
from fhjm.kernels import HurstParam
from fhjm.ledger import DiscreteMeasure, Gate, Strategy, StrategyLeg, liquidation_value
from fhjm.noarb import check_quasi_martingale, drift_identity_check, oscillation_probe
from fhjm.vol import ho_lee, hull_white

H75 = HurstParam(0.75)
H70 = HurstParam(0.7)


def test_drift_identity_flat_model():
    tp = np.linspace(0, 2, 129)
    xp = np.linspace(0, 2, 129)
    field = drift_field(ho_lee(1.0), H75, tp, xp, theta_cells=128)
    gap = drift_identity_check(ho_lee(1.0), H75, field, 2.0, theta_cells=128)
    assert gap < 1e-10  # both routes exact for linear factors


def test_drift_identity_damped_model():
    tp = np.linspace(0, 1, 129)
    xp = np.linspace(0, 1, 129)
    field = drift_field(hull_white(0.01, 1.0), H70, tp, xp, theta_cells=512)
    gap = drift_identity_check(hull_white(0.01, 1.0), H70, field, 1.0, theta_cells=512)
    assert gap < 1e-6


def test_drift_identity_over_several_maturities_is_the_largest_single_gap():
    spec = hull_white(0.01, 1.0)
    tp = np.linspace(0, 1, 33)
    xp = np.linspace(0, 2, 65)
    field = drift_field(spec, H70, tp, xp, theta_cells=64)
    mats = [0.25, 0.5, 1.0, 1.5]
    singles = [drift_identity_check(spec, H70, field, T, theta_cells=64) for T in mats]
    assert drift_identity_check(spec, H70, field, mats, theta_cells=64) == max(singles)


def test_drift_identity_refines_second_order():
    spec = hull_white(0.05, 1.0)
    gaps = []
    for n in (32, 64, 128):
        tp = np.linspace(0, 1, n + 1)
        xp = np.linspace(0, 1, n + 1)
        # tie every quadrature to the refinement level
        field = drift_field(spec, H70, tp, xp, theta_cells=n)
        gaps.append(drift_identity_check(spec, H70, field, 1.0, theta_cells=n))
    assert gaps[1] <= gaps[0] / 4 * 1.25  # second order with 25% slack
    assert gaps[2] <= gaps[1] / 4 * 1.25


def _small_mc(spec, hurst, n_paths, seed, drift=None, t_star=6.0, n=96):
    tg, xg = simulation_grids(t_star, n, t_star, n)
    fld = drift_for_simulation(spec, hurst, tg, xg, theta_cells=128)
    if drift == "zero":
        fld = fld.zeroed()
    init = InitialCurve.flat(0.03, tg.dt, 2 * n + 1)
    mats = [5.0, 6.0]
    batches = affine_batches(
        spec, hurst, fld, init, tg, xg, n_paths=n_paths, seed=seed,
        maturities=mats, batch_size=max(n_paths // 4, 1),
    )
    return fld, batches


def test_quasi_martingale_panel_small_scale():
    spec = ho_lee(0.01)
    fld, batches = _small_mc(spec, H70, 10_000, seed=31)
    pairs = [(0.0, 6.0), (1.0, 5.0), (2.0, 6.0), (4.0, 6.0)]
    report = check_quasi_martingale(batches, spec, H70, pairs, drift=fld)
    # t = 0 rows are exact: zero standard error, zero z
    assert report.z_scores[0] == 0.0
    assert report.n_exceeding(3.0) == 0
    assert report.identity_gap < 1e-3
    payload = json.loads(report.to_json())
    assert len(payload["panel"]) == 4
    assert report.table().count("\n") == 4


def test_quasi_martingale_negative_control():
    # with the drift zeroed the mean drifts like exp(V/2), so the z-score
    # grows like sqrt(paths * V)/2; the panel below sits near z ~ 5
    spec = ho_lee(0.01)
    _, batches = _small_mc(spec, H70, 10_000, seed=31, drift="zero")
    pairs = [(3.0, 6.0), (4.0, 6.0)]
    report = check_quasi_martingale(batches, spec, H70, pairs)
    assert report.n_exceeding(3.0) == 2


def test_oscillation_probe_frequencies():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    batches = list(
        affine_batches(
            spec, H70, fld, init, tg, xg, n_paths=2000, seed=67,
            maturities=tg.points, batch_size=500,
        )
    )
    ks = [1e-5, 0.05, 10.0]
    report = oscillation_probe(batches, ks, taus=[0.0, 0.5])
    freq = report.frequencies
    assert freq.shape == (2, 3)
    assert np.all((0.0 <= freq) & (freq <= 1.0))
    # huge band always holds; shrinking k can only lower the frequency
    assert np.all(freq[:, 2] == 1.0)
    assert np.all(np.diff(freq, axis=1) >= 0.0)
    # desk-scale positive-probability diagnostic at k = 0.05
    assert freq[0, 1] > 0.0
    payload = json.loads(report.to_json())
    assert payload["n_paths"] == 2000


def test_oscillation_probe_rejects_bad_threshold():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 8, 1.0, 8)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 17)
    surf = list(
        affine_batches(
            spec, H70, fld, init, tg, xg, n_paths=4, seed=1, maturities=tg.points, batch_size=4
        )
    )
    with pytest.raises(ValueError):
        oscillation_probe(surf, [-0.1], taus=[0.0])


def _leg_strategy(start, end, atom, gate=None):
    leg = StrategyLeg(start, end, DiscreteMeasure(((atom, 1.0),)), gate or Gate())
    return Strategy(legs=(leg,), horizon=1.0)


@pytest.mark.parametrize("estimate, message", [
    (lambda s: check_quasi_martingale(s, ho_lee(0.01), H70, [(0.3, 1.0)]),
     "panel time 0.3 not on the surface time grid"),
    (lambda s: check_quasi_martingale(s, ho_lee(0.01), H70, [(-0.25, 1.0)]),
     "panel time -0.25 not on the surface time grid"),
    (lambda s: check_quasi_martingale(s, ho_lee(0.01), H70, [(0.25, 0.75)]),
     "panel maturity 0.75 not among surface maturities"),
    (lambda s: oscillation_probe(s, [0.1], [0.3]),
     "oscillation time 0.3 not on the surface time grid"),
    (lambda s: oscillation_probe(s, [0.1], [0.75]),
     "oscillation time 0.75 not among surface maturities"),
    (lambda s: liquidation_value(_leg_strategy(0.3, 0.5, 1.0), s, 0.01),
     "leg boundary 0.3 not on the surface time grid"),
    (lambda s: liquidation_value(_leg_strategy(0.25, 0.5, 0.75), s, 0.01),
     "atom maturity 0.75 not among surface maturities"),
    (lambda s: liquidation_value(
        _leg_strategy(0.25, 0.5, 1.0, Gate("threshold", 0.75, "<=", 1.0)), s, 0.01),
     "gate maturity 0.75 not among surface maturities"),
])
def test_estimators_name_an_off_grid_time_or_absent_maturity(estimate, message):
    # one (t, T) -> cell rule: t a grid node and T a surface maturity, each within 1e-9
    tg = TimeGrid(1.0, 8)
    mats = np.array([0.5, 1.0])
    z = np.full((2, 9, 2), 0.98)
    z[:, tg.points[:, None] > mats[None, :] + 1e-12] = np.nan
    with pytest.raises(ValueError, match=message):
        estimate(BondSurface(t_grid=tg, maturities=mats, discounted=z))
