import numpy as np
import pytest
from scipy.integrate import quad

from fhjm.kernels import HurstParam
from fhjm.vol import (
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
    vals = tab(np.full(pts.shape, t), pts, extrapolate="flat")
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


def test_tabulated_rejects_nan_and_extrapolation():
    with pytest.raises(ValueError):
        TabulatedVol([0, 1], [0, 1], [[0.01, np.nan], [0.02, 0.01]])
    with pytest.raises(ValueError):
        TabulatedVol([0], [0, 1], [[0.01, 0.02]])
    with pytest.raises(ValueError):
        TabulatedVol([0, 1], [0], [[0.01], [0.02]])
    tab = TabulatedVol([0, 1], [0, 1], [[0.01, 0.02], [0.02, 0.01]])
    spec = VolatilitySpec((tab,))
    with pytest.raises(ValueError):
        eval_vol(spec, 1, 0.5, 3.0)
    # flat extrapolation clamps to the boundary column
    assert eval_vol(spec, 1, 0.5, 3.0, extrapolate="flat") == pytest.approx(0.015)


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
