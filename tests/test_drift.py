import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from fhjm.drift import (
    DriftField,
    drift_field,
    exp_damped_cov_integral,
    expectation_kernel,
    ho_lee_drift,
    hull_white_drift,
    log_expectation,
    solve_market_price_of_risk,
)
from fhjm.kernels import HurstParam, cov_density
from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec, eval_vol, ho_lee, hull_white

H75 = HurstParam(0.75)
H70 = HurstParam(0.7)


def test_flat_model_closed_form_values():
    assert ho_lee_drift(1.0, H75, 1.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert ho_lee_drift(1.0, H75, 1.0, 1.0) == pytest.approx(1.75, abs=1e-14)
    assert ho_lee_drift(2.0, H75, 1.0, 0.5) == pytest.approx(4.0, abs=1e-13)
    assert ho_lee_drift(1.0, H75, 0.0, 5.0) == 0.0


def test_flat_model_constant_term_vs_quadrature():
    # t * I0(t) - integral of theta * density equals (H - 1/2) t^2H
    t = 0.8
    i0 = t * quad(lambda th: cov_density(t - th, H75), 0, t, points=[t])[0]
    i1 = quad(lambda th: th * cov_density(t - th, H75), 0, t, points=[t])[0]
    assert i0 - i1 == pytest.approx((H75.h - 0.5) * t ** (2 * H75.h), rel=1e-9)


def test_damped_cov_integral_values():
    # 0.375 * int_0^1 e^-u u^-1/2 du = 0.375 * sqrt(pi) * erf(1)
    exact = 0.375 * np.sqrt(np.pi) * erf(1.0)
    assert exp_damped_cov_integral(1.0, H75, 1.0) == pytest.approx(exact, rel=1e-12)
    # adaptive-quadrature oracle at other parameters
    val, _ = quad(lambda u: np.exp(-2.3 * u) * cov_density(u, H70), 0, 0.8, points=[0])
    assert exp_damped_cov_integral(2.3, H70, 0.8) == pytest.approx(val, rel=1e-9)


def test_damped_model_vanishes_at_zero_and_decays_in_alpha():
    assert hull_white_drift(1.0, 1.0, H75, 0.0, 0.3) == 0.0
    vals = [hull_white_drift(1.0, a, H75, 1.0, 0.5) for a in (2.0, 4.0, 8.0, 16.0)]
    assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))


def test_generic_drift_matches_flat_closed_form():
    tg = np.linspace(0, 1, 65)
    xg = np.linspace(0, 2, 65)
    field = drift_field(ho_lee(0.7), H75, tg, xg, theta_cells=128)
    closed = ho_lee_drift(0.7, H75, tg[:, None], xg[None, :])
    rel = np.abs(field.values - closed) / np.maximum(np.abs(closed), 1e-30)
    rel[0] = 0.0
    assert rel.max() < 1e-6
    assert np.all(field.values[0] == 0.0)


def test_generic_drift_matches_damped_closed_form():
    tg = np.linspace(0, 1, 65)
    xg = np.linspace(0, 1, 65)
    field = drift_field(hull_white(0.01, 1.0), H70, tg, xg, theta_cells=1024)
    closed = hull_white_drift(0.01, 1.0, H70, tg[:, None], xg[None, :])
    rel = np.abs(field.values - closed) / np.maximum(np.abs(closed), 1e-30)
    rel[0] = 0.0
    assert rel.max() < 1e-6


def test_flat_drift_is_affine_in_x():
    tg = np.linspace(0, 1, 17)
    xg = np.linspace(0, 2, 33)
    field = drift_field(ho_lee(1.0), H75, tg, xg, theta_cells=64)
    for i in (4, 8, 16):
        coeffs, residuals, *_ = np.polyfit(xg, field.values[i], 1, full=True)[:2]
        assert residuals[0] < 1e-10
        t = tg[i]
        assert coeffs[0] == pytest.approx(2 * H75.h * t ** (2 * H75.h - 1), rel=1e-10)


def test_expectation_kernel_values():
    assert expectation_kernel(ho_lee(1.0), H75, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert expectation_kernel(ho_lee(1.0), H75, 0.0, 2.0) == 0.0
    # closed form sigma^2 (T-t) [H (T-t) t^(2H-1) + ((2H-1)/2) t^2H]
    h = H75.h
    for t, T in [(0.3, 1.1), (0.9, 2.0)]:
        closed = (T - t) * (h * (T - t) * t ** (2 * h - 1) + (h - 0.5) * t ** (2 * h))
        assert expectation_kernel(ho_lee(1.0), H75, t, T) == pytest.approx(closed, rel=1e-10)


def test_expectation_kernel_nonnegative_one_factor():
    for spec in (ho_lee(0.02), hull_white(0.02, 1.5)):
        for t in np.linspace(0.05, 1.0, 7):
            assert expectation_kernel(spec, H70, float(t), 1.2) >= 0.0


def test_log_expectation_exact_flat_value():
    # integral_0^1 e(s, 2) ds = 8/7 for unit volatility at H = 3/4
    val = log_expectation(ho_lee(1.0), H75, 1.0, 2.0, n_cells=512)
    assert val == pytest.approx(8.0 / 7.0, abs=1e-8)
    assert log_expectation(ho_lee(1.0), H75, 0.0, 2.0) == 0.0


def test_log_expectation_shares_moments_across_maturities():
    # several maturities reuse one moment set and give the scalar calls' values
    spec = hull_white(0.8, 1.1)
    mats = [0.9, 1.4, 2.0]
    many = log_expectation(spec, H70, 0.9, mats, n_cells=64)
    assert many.shape == (3,)
    for T, value in zip(mats, many):
        assert value == log_expectation(spec, H70, 0.9, T, n_cells=64)
    assert np.all(log_expectation(spec, H70, 0.0, mats) == 0.0)
    with pytest.raises(ValueError):
        log_expectation(spec, H70, 1.0, [0.9, 1.4])


def test_log_expectation_equals_time_integral_of_kernel():
    # independent oracle: adaptive quadrature of the expectation kernel in s
    spec = hull_white(0.8, 1.1)
    t, T = 0.9, 1.4
    oracle, _ = quad(
        lambda s: expectation_kernel(spec, H70, s, T, n_cells=256), 0, t, limit=100
    )
    assert log_expectation(spec, H70, t, T, n_cells=512) == pytest.approx(oracle, rel=1e-6)


def test_log_expectation_variance_identity():
    # 2 * log_expectation equals the Gaussian variance of the discounted
    # price exponent, computed here by midpoint cells as a separate route
    from fhjm.kernels import cov_cell_integral
    from fhjm.vol import integrated_vol

    spec = ho_lee(1.0)
    t, T = 1.0, 2.0
    n = 256
    edges = np.linspace(0, t, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    iv = np.asarray(integrated_vol(spec, 1, mids, T))
    cells = cov_cell_integral(
        edges[:-1, None], edges[1:, None], edges[None, :-1], edges[None, 1:], H75
    )
    variance = float(iv @ cells @ iv)
    assert 2 * log_expectation(spec, H75, t, T, n_cells=512) == pytest.approx(
        variance, rel=1e-4
    )


def test_market_price_of_risk_exact_match():
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.3)))
    tg = np.linspace(0, 1, 17)
    xg = np.linspace(0, 1, 33)
    field = drift_field(spec, H75, tg, xg, theta_cells=128)
    gamma, residual, rank = solve_market_price_of_risk(spec, H75, field, 8, theta_cells=128)
    assert np.allclose(gamma, 0.0, atol=1e-12)
    assert residual < 1e-12
    assert rank == 2


def test_market_price_of_risk_constructed_shift():
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.3)))
    tg = np.linspace(0, 1, 17)
    xg = np.linspace(0, 1, 33)
    field = drift_field(spec, H75, tg, xg, theta_cells=128)
    c = 0.4
    shifted = DriftField(
        field.t_points, field.x_points,
        field.values + c * np.asarray(eval_vol(spec, 1, 0.5, xg))[None, :],
    )
    gamma, residual, _ = solve_market_price_of_risk(spec, H75, shifted, 8, theta_cells=128)
    assert gamma[0] == pytest.approx(-c, rel=1e-10)
    assert abs(gamma[1]) < 1e-10
    assert residual < 1e-10


def test_market_price_of_risk_unspanned_target():
    spec = ho_lee(0.01)
    tg = np.linspace(0, 1, 17)
    xg = np.linspace(0, 1, 33)
    field = drift_field(spec, H75, tg, xg, theta_cells=128)
    shifted = DriftField(field.t_points, field.x_points, field.values + xg[None, :])
    _, residual, _ = solve_market_price_of_risk(spec, H75, shifted, 8, theta_cells=128)
    assert residual > 0.01


def test_constant_table_drift_matches_flat_model():
    # A constant table must reproduce the Ho-Lee field; the table covers
    # neither t = 0 nor x = 0 nor the far maturities, so the clamped rows
    # and both flat x-tails enter the maturity integrals.
    from fhjm.hjm import drift_for_simulation, simulation_grids
    from fhjm.vol import TabulatedVol

    sigma = 0.013
    tg, xg = simulation_grids(2.0, 16, 2.0, 16)
    table = TabulatedVol([0.5, 1.0, 1.5], [0.25, 1.0, 2.5], np.full((3, 3), sigma))
    with pytest.warns(RuntimeWarning, match="extrapolated flat"):
        tab_field = drift_for_simulation(VolatilitySpec((table,)), H70, tg, xg, theta_cells=64)
    flat_field = drift_for_simulation(ho_lee(sigma), H70, tg, xg, theta_cells=64)
    assert tab_field.values[0].tolist() == [0.0] * tab_field.x_points.size
    np.testing.assert_allclose(tab_field.values, flat_field.values, rtol=1e-12, atol=0)


def test_table_covering_every_argument_does_not_warn():
    # shaped like a table that spans x <= x_max + 2 t_star, the largest x + t
    # the simulation drift asks for: nothing is extrapolated, so no warning
    import warnings

    from fhjm.hjm import drift_for_simulation, simulation_grids
    from fhjm.vol import TabulatedVol

    tg, xg = simulation_grids(2.0, 16, 2.0, 16)
    t_grid = [0.25 * i for i in range(9)]
    x_grid = [0.375 * i for i in range(17)]
    table = TabulatedVol(t_grid, x_grid, [[0.01 + 0.001 * t + 0.0005 * x for x in x_grid]
                                          for t in t_grid])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drift_for_simulation(VolatilitySpec((table,)), H70, tg, xg, theta_cells=64)


def test_table_starting_above_zero_warns_below():
    # the maturity integrals start at x = 0, so a first column at 0.5 is read
    # flat below it even when the table reaches past every x + t
    import warnings

    from fhjm.hjm import drift_for_simulation, simulation_grids
    from fhjm.vol import TabulatedVol

    tg, xg = simulation_grids(1.0, 8, 1.0, 8)  # x + t reaches 3
    table = TabulatedVol([0, 1], [0.5, 1, 2, 4], [[0.011, 0.012, 0.013, 0.014]] * 2)
    assert table(0.5, 0.0) == table(0.5, 0.5) == 0.011
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        drift_for_simulation(VolatilitySpec((table,)), H70, tg, xg, theta_cells=64)
    assert [str(w.message) for w in caught] == [
        "tabulated volatility extrapolated flat outside its x-table for x + t arguments"
    ]


# Reference copy of the slope/intercept product rule that evaluated the drift
# rows and the expectation kernel before the hat-function weights: each
# factor curve becomes per-cell slope and intercept arrays, integrated against
# the cell moments m0 and m1.
def _reference_moments(t, n_cells):
    from fhjm.kernels import cov_segment_integral, cov_segment_moment

    thetas = np.linspace(0.0, t, n_cells + 1)
    a, b = thetas[:-1], thetas[1:]
    hurst = _REF_HURST
    return thetas, a, b, cov_segment_integral(a, b, t, hurst), cov_segment_moment(a, b, t, hurst)


_REF_HURST = H70


def _reference_integral(curve, a, b, m0, m1):
    slope = (curve[1:] - curve[:-1]) / (b - a).reshape((-1,) + (1,) * (curve.ndim - 1))
    intercept = curve[:-1] - slope * a.reshape((-1,) + (1,) * (curve.ndim - 1))
    return intercept.T @ m0 + slope.T @ m1


def _reference_drift_row(spec, t, x_points, theta_cells):
    from fhjm.vol import integrated_vol

    thetas, a, b, m0, m1 = _reference_moments(t, theta_cells)
    th = thetas[:, None]
    mat = (x_points + t)[None, :]
    row = np.zeros(x_points.size)
    for j in range(1, spec.dims + 1):
        iv = np.asarray(integrated_vol(spec, j, th, mat), dtype=float)
        sig = np.asarray(eval_vol(spec, j, th, mat - th), dtype=float)
        sig_t_x = np.asarray(eval_vol(spec, j, t, x_points), dtype=float)
        int_sig_x = np.asarray(integrated_vol(spec, j, t, t + x_points), dtype=float)
        row += sig_t_x * _reference_integral(iv, a, b, m0, m1)
        row += int_sig_x * _reference_integral(sig, a, b, m0, m1)
    return row


def _reference_expectation_kernel(spec, t, maturity, n_cells):
    from fhjm.vol import integrated_vol

    if t == 0.0:
        return 0.0
    thetas, a, b, m0, m1 = _reference_moments(t, n_cells)
    total = 0.0
    for j in range(1, spec.dims + 1):
        iv = np.asarray(integrated_vol(spec, j, thetas, maturity), dtype=float)
        total += float(integrated_vol(spec, j, t, maturity)) * float(
            _reference_integral(iv, a, b, m0, m1)
        )
    return total


def _reference_specs():
    from fhjm.vol import TabulatedVol

    t_grid = [0.0, 0.4, 1.1]
    x_grid = [0.0, 0.3, 0.9, 1.6]
    values = [[0.011, 0.014, 0.009, 0.012], [0.013, 0.010, 0.015, 0.008],
              [0.009, 0.012, 0.011, 0.016]]
    return {
        "ho-lee": ho_lee(0.01),
        "hull-white": hull_white(0.01, 1.3),
        "two-factor": VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 0.7))),
        "tabulated": VolatilitySpec((TabulatedVol(t_grid, x_grid, values),)),
        # decay * t reaches 800 on t <= 1, past where exp(+decay * theta) overflows
        "steep-hull-white": hull_white(0.01, 800.0),
        # one row takes the dense table product and the exp-decay sums
        "table-and-hull-white": VolatilitySpec(
            (TabulatedVol(t_grid, x_grid, values), ExpDecayVol(0.02, 0.7))
        ),
    }


@pytest.mark.parametrize("name", ["ho-lee", "hull-white", "two-factor", "tabulated",
                                  "steep-hull-white", "table-and-hull-white"])
def test_hat_weight_rows_match_slope_intercept_rule(name):
    import warnings

    spec = _reference_specs()[name]
    tg = np.linspace(0.0, 1.0, 9)
    xg = np.linspace(0.0, 1.5, 97)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the table is extrapolated flat
        field = drift_field(spec, _REF_HURST, tg, xg, theta_cells=512)
    assert np.all(np.isfinite(field.values))
    for i in range(1, tg.size):
        ref = _reference_drift_row(spec, float(tg[i]), xg, 512)
        assert np.max(np.abs(field.values[i] - ref)) <= 1e-13 * np.max(np.abs(ref)), i


@pytest.mark.parametrize("name", ["ho-lee", "hull-white", "two-factor", "tabulated"])
def test_expectation_kernel_over_t_matches_slope_intercept_rule(name):
    spec = _reference_specs()[name]
    maturity = 1.1
    ts = np.array([0.0, 0.05, 0.3, 0.7, 1.0, 1.1])
    values = expectation_kernel(spec, _REF_HURST, ts, maturity, n_cells=256)
    assert values.shape == ts.shape
    ref = np.array([_reference_expectation_kernel(spec, float(t), maturity, 256) for t in ts])
    np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0)
    scalar = expectation_kernel(spec, _REF_HURST, 0.3, maturity, n_cells=256)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(ref[2], rel=1e-13)
    with pytest.raises(ValueError):
        expectation_kernel(spec, _REF_HURST, np.array([0.5, 1.2]), maturity)


@pytest.mark.parametrize("name", ["ho-lee", "two-factor", "tabulated"])
def test_expectation_kernel_over_several_maturities_matches_one_at_a_time(name):
    # one hat-weight set per distinct t, and the bits of one call per maturity
    spec = _reference_specs()[name]
    ts = np.linspace(0.0, 1.1, 12)
    mats = (0.3, 0.55, 1.1)
    t_pairs = np.concatenate([ts[ts <= T] for T in mats])
    mat_pairs = np.concatenate([np.full(np.count_nonzero(ts <= T), T) for T in mats])
    together = expectation_kernel(spec, _REF_HURST, t_pairs, mat_pairs, n_cells=256)
    alone = [expectation_kernel(spec, _REF_HURST, ts[ts <= T], T, n_cells=256) for T in mats]
    assert together.tobytes() == np.concatenate(alone).tobytes()


# Reference copy of the corner-form log_expectation that built the four
# (n, n) bilinear moment arrays of the density on absolute cell pairs, from
# repeated antiderivatives evaluated at the four corners of every pair.
def _psi2(w, p):
    return 0.5 * np.abs(w) ** p


def _psi3(w, p):
    return np.sign(w) * np.abs(w) ** (p + 1.0) / (2.0 * (p + 1.0))


def _psi4(w, p):
    return np.abs(w) ** (p + 2.0) / (2.0 * (p + 1.0) * (p + 2.0))


def _reference_bilinear_cov_moments(edges, hurst):
    p = 2.0 * hurst.h
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    c = edges[:-1][None, :]
    d = edges[1:][None, :]

    def corner(func, extra=None):
        if extra is None:
            return func(b - c, p) - func(a - c, p) - func(b - d, p) + func(a - d, p)
        return (extra(b) * func(b - c, p) - extra(a) * func(a - c, p)
                - extra(b) * func(b - d, p) + extra(a) * func(a - d, p))

    q00 = corner(_psi2)
    q10 = corner(_psi2, extra=lambda u: u) - corner(_psi3)
    q11 = (
        corner(_psi2, extra=lambda u: u**2)
        - (p + 1.0) * corner(_psi3, extra=lambda u: u)
        + (p + 1.0) * corner(_psi4)
    )
    return q00, q10, q10.T, q11


def _reference_log_expectation(spec, hurst, t, mats, n_cells):
    from fhjm.vol import integrated_vol

    edges = np.linspace(0.0, t, n_cells + 1)
    q00, q10, q01, q11 = _reference_bilinear_cov_moments(edges, hurst)
    a, b = edges[:-1], edges[1:]
    out = np.zeros(len(mats))
    for m, T in enumerate(mats):
        for j in range(1, spec.dims + 1):
            iv = np.asarray(integrated_vol(spec, j, edges, T), dtype=float)
            slope = (iv[1:] - iv[:-1]) / (b - a)
            intercept = iv[:-1] - slope * a
            out[m] += 0.5 * (intercept @ q00 @ intercept + intercept @ q01 @ slope
                             + slope @ q10 @ intercept + slope @ q11 @ slope)
    return out


@pytest.mark.parametrize("h", [0.55, 0.7, 0.75, 0.95])
@pytest.mark.parametrize("name", ["ho-lee", "hull-white", "two-factor", "tabulated"])
def test_lag_moment_log_expectation_matches_corner_form(name, h):
    spec = _reference_specs()[name]
    hurst = HurstParam(h)
    for n_cells in (1, 2, 16, 256):
        for t in (0.25, 1.0, 3.0):
            mats = [t, t + 0.4, t + 1.0, t + 2.5]
            values = log_expectation(spec, hurst, t, mats, n_cells=n_cells)
            ref = _reference_log_expectation(spec, hurst, t, mats, n_cells)
            np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("h", [0.55, 0.7, 0.95])
def test_lag_moments_structure(h):
    from fhjm.drift import _lag_moments

    hurst = HurstParam(h)
    n = 48
    m00, m10, m01, m11 = _lag_moments(n, hurst)
    assert m00.shape == m10.shape == m01.shape == m11.shape == (2 * n - 1,)
    # n unit cells square to the variance of B_H at time n
    lag = np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1
    assert m00[lag].sum() == pytest.approx(n ** (2 * h), rel=1e-12)
    # swapping the two cells reverses the lag; the moments are differences
    # of antiderivatives of size |D|^(2H+1) and |D|^(2H+2), so they agree to
    # a few ulps of those
    size = np.abs(np.arange(1 - n, n)) + 1.0
    assert np.all(np.abs(m01 - m10[::-1]) <= 1e-15 * size ** (2 * h + 1))
    assert np.all(np.abs(m11 - m11[::-1]) <= 1e-15 * size ** (2 * h + 2))
    # the convolution pairs cell i of the first vector with cell i - D of
    # the second: the dense form with lag i - k gives the same numbers
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=n), rng.normal(size=n)
    for moment in (m00, m10, m01, m11):
        dense = x @ moment[lag] @ y
        assert moment @ np.convolve(x, y[::-1]) == pytest.approx(dense, rel=1e-12)
    assert x @ m10[lag] @ y != pytest.approx(x @ m01[lag] @ y, rel=1e-6)


def test_log_expectation_memory_stays_linear_in_cells():
    # the corner form held (n, n) arrays: 84 MB at 1024 cells
    import tracemalloc

    spec = _reference_specs()["two-factor"]
    tracemalloc.start()
    try:
        log_expectation(spec, H70, 1.0, [1.0, 1.5, 2.0, 3.0], n_cells=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


@pytest.mark.parametrize("bad", [0, -3, 2.5, 16.0, "16", None])
def test_log_expectation_rejects_bad_cell_counts(bad):
    with pytest.raises(ValueError, match="n_cells"):
        log_expectation(ho_lee(1.0), H75, 1.0, 2.0, n_cells=bad)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 16.0, "16", None])
def test_expectation_kernel_rejects_bad_cell_counts(bad):
    with pytest.raises(ValueError, match="n_cells"):
        expectation_kernel(ho_lee(1.0), H75, 1.0, 2.0, n_cells=bad)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 16.0, "16", None])
def test_drift_field_rejects_bad_cell_counts(bad):
    tg = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="theta_cells"):
        drift_field(ho_lee(1.0), H75, tg, tg, theta_cells=bad)


@pytest.mark.parametrize("bad", [0, 2.5])
def test_market_price_of_risk_rejects_bad_cell_counts(bad):
    tg = np.linspace(0, 1, 5)
    field = drift_field(ho_lee(1.0), H75, tg, tg, theta_cells=16)
    with pytest.raises(ValueError, match="theta_cells"):
        solve_market_price_of_risk(ho_lee(1.0), H75, field, 2, theta_cells=bad)


def test_maturity_integral_over_arrays_matches_trapezoid():
    rng = np.random.default_rng(3)
    tg = np.linspace(0.0, 1.0, 9)
    xg = np.linspace(0.0, 2.0, 65)
    field = DriftField(tg, xg, rng.normal(size=(9, 65)))
    rows = np.array([0, 3, 3, 8, 5, 1])
    spans = xg[[0, 1, 64, 17, 40, 2]]
    values = field.maturity_integral(rows, spans)
    ref = np.array([np.trapezoid(field.values[i, : k + 1], dx=field.dx)
                    for i, k in zip(rows, [0, 1, 64, 17, 40, 2])])
    scale = np.abs(field.values).sum(axis=1)[rows] * field.dx
    assert np.all(np.abs(values - ref) <= 1e-14 * np.maximum(np.abs(ref), scale))
    assert isinstance(field.maturity_integral(3, spans[2]), float)
    assert field.maturity_integral(3, 0.0) == 0.0
    for bad in (0.01, 2.5, -0.03125):
        with pytest.raises(ValueError):
            field.maturity_integral(np.array([1, 2]), np.array([0.5, bad]))


def _per_row_hat_weights(t, hurst, n_cells, dtype=float):
    """The hat weights from each row's own cell moments, as they were built
    before the unit row was scaled; in ``np.longdouble`` at the exact nodes."""
    h = dtype(hurst.h)
    q, p = 2 * h - 1, 2 * h
    t = dtype(t)
    nodes = np.linspace(0.0, t, n_cells + 1) if dtype is float else (
        t * np.arange(n_cells + 1, dtype=dtype) / dtype(n_cells))
    a, b = nodes[:-1], nodes[1:]
    m0 = h * ((t - a) ** q - (t - b) ** q)
    m1 = t * m0 - 0.5 * (p - 1) * ((t - a) ** p - (t - b) ** p)
    w = np.zeros(n_cells + 1, dtype=dtype)
    w[:-1] = (b * m0 - m1) / (b - a)
    w[1:] += (m1 - a * m0) / (b - a)
    return nodes, w


# largest deviation of the scaled weights from the per-row ones, relative to
# max|w|, measured over the 128 rows at 512 cells: 4.7e-13 (H = 0.55),
# 4.8e-12 (0.7) and 7.7e-11 (0.95); the bounds are about four times that
_HAT_BOUND = {0.55: 2e-12, 0.7: 2e-11, 0.95: 3e-10}


@pytest.mark.parametrize("cells", [64, 512])
@pytest.mark.parametrize("h", sorted(_HAT_BOUND))
def test_scaled_hat_weights_match_the_per_row_moments(h, cells):
    # t^(2H-1) * w(1) at nodes t * u against each row's own moments, on the
    # panel's 128-row time grid.  Against a long-double evaluation at the
    # exact nodes, the scaled weights were the closer ones, relative to
    # max|w| (scaled, per row): (1.4e-13, 4.0e-13) at H = 0.55,
    # (1.4e-12, 3.6e-12) at 0.7 and (2.8e-11, 6.6e-11) at 0.95, all at 512 cells
    from fhjm.drift import _hat_weights

    hurst = HurstParam(h)
    ts = np.arange(1, 129) * (8.0 / 128)
    nodes, w = _hat_weights(ts, hurst, cells)
    assert nodes.shape == w.shape == (ts.size, cells + 1)
    exact = np.finfo(np.longdouble).eps < np.finfo(float).eps
    worst = {"scaled": 0.0, "per row": 0.0}
    for i, t in enumerate(ts):
        ref_nodes, ref = _per_row_hat_weights(t, hurst, cells)
        size = np.max(np.abs(ref))
        assert np.max(np.abs(nodes[i] - ref_nodes)) <= 2 * np.spacing(t)
        assert np.max(np.abs(w[i] - ref)) <= _HAT_BOUND[h] * size, t
        # one row alone has the bits it has in the block
        alone = _hat_weights(t, hurst, cells)
        assert alone[0].tobytes() == nodes[i].tobytes() and alone[1].tobytes() == w[i].tobytes()
        if exact:
            _, long_w = _per_row_hat_weights(t, hurst, cells, np.longdouble)
            worst["scaled"] = max(worst["scaled"], float(np.max(np.abs(w[i] - long_w)) / size))
            worst["per row"] = max(worst["per row"], float(np.max(np.abs(ref - long_w)) / size))
    assert worst["scaled"] <= worst["per row"], worst


def _drift_one_row_at_a_time(spec, hurst, t_points, x, theta_cells):
    """The drift field built the way it was before rows came in blocks: one
    hat-weight call, three sums and one row per grid time."""
    from fhjm.drift import _hat_weights
    from fhjm.vol import integrated_vol

    values = np.zeros((t_points.size, x.size))
    for i in range(1, t_points.size):
        t = float(t_points[i])
        nodes, w = _hat_weights(t, hurst, theta_cells)
        for j, factor in enumerate(spec.factors, start=1):
            if isinstance(factor, FlatVol):
                m0 = w.sum()
                iv_w, sig_w = factor.sigma * (x * m0 + w @ (t - nodes)), factor.sigma * m0
            else:
                a = factor.decay
                damp = np.exp(-a * x)
                e = w @ np.exp(-a * (t - nodes))
                iv_w, sig_w = (factor.sigma / a) * (w.sum() - damp * e), factor.sigma * damp * e
            values[i] += eval_vol(spec, j, t, x) * iv_w
            values[i] += integrated_vol(spec, j, t, t + x) * sig_w
    return values


@pytest.mark.parametrize("cells", [64, 512, 1024])
@pytest.mark.parametrize("name", ["ho-lee", "hull-white", "two-factor"])
def test_drift_rows_in_blocks_have_the_bits_of_one_row_at_a_time(name, cells):
    # 37 positive rows: two whole blocks and a partial one
    from fhjm.drift import BLOCK_ROWS

    spec = {"ho-lee": ho_lee(0.01), "hull-white": hull_white(0.01, 1.3),
            "two-factor": VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 0.7)))}[name]
    tg = np.linspace(0.0, 1.0, 38)
    xg = np.linspace(0.0, 2.0, 75)
    assert (tg.size - 1) % BLOCK_ROWS
    have = drift_field(spec, H70, tg, xg, theta_cells=cells).values
    want = _drift_one_row_at_a_time(spec, H70, tg, xg, cells)
    assert np.array_equal(have.view(np.uint64), want.view(np.uint64))
