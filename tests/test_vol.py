import math

import numpy as np
import pytest
from scipy.integrate import quad

from fhjm.kernels import HurstParam, cov_cell_integral
from fhjm.vol import (
    _regularity_values,
    ExpDecayVol,
    FlatVol,
    TabulatedVol,
    VolatilitySpec,
    eval_vol,
    ho_lee,
    hull_white,
    integrated_vol,
    validate_regularity,
)


def test_eval_examples():
    assert eval_vol(ho_lee(0.01), 1, 3.7, 12.0) == 0.01
    hw = hull_white(0.01, 1.0)
    assert eval_vol(hw, 1, 5.0, 0.0) == pytest.approx(0.01)
    assert eval_vol(hw, 1, 5.0, 1.0) == pytest.approx(0.01 * np.exp(-1.0), rel=1e-12)


def test_eval_bad_factor_index():
    with pytest.raises(ValueError):
        eval_vol(ho_lee(0.01), 2, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_vol(ho_lee(0.01), 0, 0.0, 0.0)


def test_positive_sigma_required():
    with pytest.raises(ValueError):
        FlatVol(0.0)
    with pytest.raises(ValueError):
        ExpDecayVol(0.01, -1.0)


def test_integrated_vol_examples():
    assert integrated_vol(ho_lee(1.0), 1, 0.0, 2.0) == pytest.approx(2.0)
    assert integrated_vol(hull_white(1.0, 1.0), 1, 1.0, 1.0) == 0.0
    assert integrated_vol(hull_white(1.0, 1.0), 1, 0.0, 1.0) == pytest.approx(
        1 - np.exp(-1), rel=1e-12
    )


def test_integrated_vol_closed_form_vs_quadrature():
    hw = hull_white(0.013, 0.8)
    hl = ho_lee(0.02)
    for spec, s, T in [(hw, 0.3, 1.7), (hl, 0.0, 2.5), (hw, 0.0, 0.9)]:
        target, _ = quad(lambda x: float(eval_vol(spec, 1, s, x)), 0, T - s)
        assert integrated_vol(spec, 1, s, T) == pytest.approx(target, rel=1e-10)


def test_integrated_vol_nonincreasing_in_s():
    hw = hull_white(0.01, 1.3)
    ss = np.linspace(0, 2, 21)
    vals = integrated_vol(hw, 1, ss, 2.0)
    assert np.all(np.diff(vals) <= 1e-14)


def test_tabulated_interpolation_and_integral():
    tab = TabulatedVol([0, 1], [0, 1, 2], [[0.01, 0.02, 0.01], [0.02, 0.01, 0.02]])
    spec = VolatilitySpec((tab,))
    assert eval_vol(spec, 1, 0.0, 0.5) == pytest.approx(0.015)
    assert eval_vol(spec, 1, 0.5, 0.5) == pytest.approx(0.015)
    target, _ = quad(lambda x: float(eval_vol(spec, 1, 0.5, x)), 0, 1.5)
    assert integrated_vol(spec, 1, 0.5, 2.0) == pytest.approx(target, rel=1e-9)


def _trapezoid_through_knots(tab, t, x):
    """Scalar reference: trapezoid over 0, the table's x-points inside (0, x), and x.

    Exact for the interpolant, which is linear in x between those points.
    """
    nodes = tab.x_grid[(tab.x_grid > 0.0) & (tab.x_grid < x)]
    pts = np.concatenate(([0.0], nodes, [x]))
    vals = tab(np.full(pts.shape, t), pts)
    return float(np.trapezoid(vals, pts))


@pytest.mark.parametrize("x_shift", [0.0, -0.7, 0.4])
def test_tabulated_integral_matches_trapezoid_oracle(x_shift):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        n_t, n_x = rng.integers(2, 7), rng.integers(2, 10)
        t_grid = np.cumsum(rng.uniform(0.1, 1.0, n_t))
        x_grid = x_shift + np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, n_x - 1))))
        tab = TabulatedVol(t_grid, x_grid, rng.uniform(0.005, 0.02, (n_t, n_x)))
        # t reaches outside t_grid on both sides, x past the last column
        ts = rng.uniform(t_grid[0] - 1.0, t_grid[-1] + 1.0, 25)
        xs = rng.uniform(0.0, 1.5 * max(x_grid[-1], 1.0), 25)
        got = tab.integral_in_x(ts, xs)
        want = np.array([_trapezoid_through_knots(tab, t, x) for t, x in zip(ts, xs)])
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-13


def test_tabulated_integral_flat_below_table():
    tab = TabulatedVol([0, 1], [0.5, 1, 2], np.ones((2, 3)))
    assert tab.integral_in_x(0.3, 1.5) == pytest.approx(1.5, rel=1e-15)
    assert tab.integral_in_x(0.3, 0.25) == pytest.approx(0.25, rel=1e-15)
    assert integrated_vol(VolatilitySpec((tab,)), 1, 0.5, 2.0) == pytest.approx(1.5, rel=1e-15)
    # a table starting below 0 contributes only its part over [0, x]
    below = TabulatedVol([0, 1], [-1, 1, 3], [[0.0, 2.0, 2.0], [0.0, 2.0, 2.0]])
    assert below.integral_in_x(0.5, 1.0) == pytest.approx(1.5, rel=1e-15)
    assert below.integral_in_x(0.5, 4.0) == pytest.approx(1.5 + 3.0 * 2.0, rel=1e-15)
    # ... and one lying entirely below 0 is flat at its last column
    negative = TabulatedVol([0, 1], [-2, -1], [[0.5, 0.25], [0.5, 0.25]])
    assert negative.integral_in_x(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert tab.integral_in_x(0.3, 0.0) == 0.0
    with pytest.raises(ValueError):
        tab.integral_in_x(0.3, -0.1)


def test_tabulated_call_and_integral_flat_on_both_sides():
    values = [[0.011, 0.02, 0.015, 0.013], [0.017, 0.012, 0.019, 0.014]]
    tab = TabulatedVol([0, 1], [0.5, 1, 2, 4], values)
    for t in (0.0, 0.3, 1.0, 1.7):
        first, last = tab(t, 0.5), tab(t, 4.0)
        # below the first column: sigma is the first column's value, and so is
        # the integral's slope from 0
        assert tab(t, 0.0) == first and tab(t, 0.2) == first
        for x in (0.1, 0.25, 0.5):
            assert tab.integral_in_x(t, x) == pytest.approx(x * tab(t, 0.0), rel=1e-14)
        # past the last column: sigma is the last column's value, and so is
        # the integral's slope
        assert tab(t, 5.0) == last and tab(t, 9.0) == last
        for x1, x2 in ((4.0, 5.0), (4.5, 9.0)):
            step = tab.integral_in_x(t, x2) - tab.integral_in_x(t, x1)
            assert step == pytest.approx((x2 - x1) * last, rel=1e-12)


def test_tabulated_integral_shapes():
    tab = TabulatedVol([0, 1], [0, 1, 2], [[0.01, 0.02, 0.01], [0.02, 0.01, 0.02]])
    scalar = tab.integral_in_x(0.5, 1.5)
    assert type(scalar) is float
    grid = tab.integral_in_x(np.linspace(0, 1, 3)[:, None], np.linspace(0, 3, 4)[None, :])
    assert isinstance(grid, np.ndarray) and grid.shape == (3, 4)
    assert grid[1, 2] == pytest.approx(tab.integral_in_x(0.5, 2.0), rel=1e-15)
    spec = VolatilitySpec((tab,))
    assert type(integrated_vol(spec, 1, 0.5, 2.0)) is float
    assert integrated_vol(spec, 1, np.zeros(5), 2.0).shape == (5,)


def test_tabulated_rejects_nan_and_reads_flat_outside():
    with pytest.raises(ValueError):
        TabulatedVol([0, 1], [0, 1], [[0.01, np.nan], [0.02, 0.01]])
    with pytest.raises(ValueError):
        TabulatedVol([0], [0, 1], [[0.01, 0.02]])
    with pytest.raises(ValueError):
        TabulatedVol([0, 1], [0], [[0.01], [0.02]])
    tab = TabulatedVol([0, 1], [0, 1], [[0.01, 0.02], [0.02, 0.01]])
    spec = VolatilitySpec((tab,))
    # a query past the table reads the boundary column
    assert eval_vol(spec, 1, 0.5, 3.0) == pytest.approx(0.015)


def test_regularity_report_builtins_finite():
    H = HurstParam(0.75)
    rep = validate_regularity(ho_lee(0.01), H, 1.0)
    assert rep.all_finite()
    assert all(v >= 0 for v in rep.values.values())
    rep_hw = validate_regularity(hull_white(0.01, 1.0), H, 1.0)
    assert rep_hw.all_finite()


def test_regularity_report_with_drift():
    H = HurstParam(0.7)
    rep = validate_regularity(
        ho_lee(0.01), H, 1.0, drift_sup=lambda t: 0.01 * t
    )
    assert rep.all_finite()
    assert rep.values["coef_integrability"] > 0


def _sup_norm_vol(spec, t, xs):
    total = 0.0
    for j in range(1, spec.dims + 1):
        total += float(np.max(np.abs(eval_vol(spec, j, t, xs))) ** 2)
    return math.sqrt(total)


def _regularity_values_per_point(spec, hurst, horizon, n, gamma_exp, drift_sup):
    """Reference: the four growth integrals, one time or maturity point at a time."""
    dt = horizon / n
    edges = np.linspace(0.0, horizon, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = np.linspace(0.0, horizon, n + 1)
    sig_norm = np.array([_sup_norm_vol(spec, t, xs) for t in mids])
    drift_norm = np.array([drift_sup(t) for t in mids])
    cells = cov_cell_integral(
        edges[:-1, None], edges[1:, None], edges[None, :-1], edges[None, 1:], hurst
    )
    g1 = float(np.sum(drift_norm) * dt + np.sum(sig_norm**2) * dt)
    w = mids**(-gamma_exp) * sig_norm
    g2 = float(w @ cells @ w)
    iv = np.array(
        [sum(abs(integrated_vol(spec, j, t, t + horizon)) for j in range(1, spec.dims + 1))
         for t in mids]
    )
    g3 = float(iv @ cells @ iv)
    acc = 0.0
    for x in xs:
        v = np.array([_sup_norm_vol(spec, t, np.array([x])) for t in mids])
        acc += float(v @ cells @ v) * (horizon / xs.size)
    return {"coef_integrability": g1, "weighted_double": g2,
            "bond_quadruple": g3, "bond_triple": acc}


@pytest.mark.parametrize("name", ["ho-lee", "hull-white", "two-factor", "tabulated"])
def test_regularity_values_match_per_point_reference(name):
    # the table covers neither x = 0 nor the whole horizon, so both flat tails enter
    table = TabulatedVol([0.2, 0.6, 1.0], [0.5, 1.0, 1.5],
                         [[0.01, 0.02, 0.015], [0.012, 0.018, 0.02], [0.02, 0.01, 0.011]])
    spec = {
        "ho-lee": ho_lee(0.01),
        "hull-white": hull_white(0.01, 1.0),
        "two-factor": VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 0.5))),
        "tabulated": VolatilitySpec((table,)),
    }[name]
    hurst = HurstParam(0.7)
    for n in (16, 32):
        got = _regularity_values(spec, hurst, 2.0, n, 0.25, lambda t: 0.01 * t)
        want = _regularity_values_per_point(spec, hurst, 2.0, n, 0.25, lambda t: 0.01 * t)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
