import json

import numpy as np
import pytest

from fhjm.consistency import (
    CurveFamily,
    check_drift_and_vol_condition,
    check_shift_condition,
    controlled_path,
    default_membership_grid,
    family_fit_distance,
    nagumo_full_check,
    nelson_siegel_family,
    tangent_residual,
)
from fhjm.fbm import FbmPathSet
from fhjm.hjm import InitialCurve, drift_for_simulation, simulate_forward, simulation_grids
from fhjm.kernels import HurstParam, SampledFunction
from fhjm.vol import ho_lee, hull_white

H70 = HurstParam(0.7)


def _samples(n=50, seed=5, decay_fixed=None):
    rng = np.random.default_rng(seed)
    ys = np.column_stack(
        [
            rng.uniform(0.0, 0.06, n),
            rng.uniform(-0.03, 0.03, n),
            rng.uniform(-0.02, 0.02, n),
            rng.uniform(0.3, 3.0, n),
        ]
    )
    if decay_fixed is not None:
        ys[:, 3] = decay_fixed
    return ys


def test_family_partials_match_finite_differences():
    fam = nelson_siegel_family()
    y = np.array([0.03, -0.01, 0.005, 1.5])
    assert fam.partials_self_check(y, np.linspace(0.1, 5.0, 9)) < 1e-6


def test_family_domain():
    fam = nelson_siegel_family()
    with pytest.raises(ValueError):
        fam.require_in_domain(np.array([0.03, 0.0, 0.0, 0.0]))  # zero decay excluded
    fam_fixed = nelson_siegel_family(decay_fixed=1.0)
    with pytest.raises(ValueError):
        fam_fixed.require_in_domain(np.array([0.03, 0.0, 0.0, 2.0]))


def test_tangent_residual_examples():
    fam = nelson_siegel_family()
    xs, w = default_membership_grid()
    y = np.array([0.03, -0.01, 0.005, 1.5])
    # basis member
    g = fam.tangent_basis(xs, y)[:, 1]
    res, rank = tangent_residual(fam, y, g, xs, w)
    assert res < 1e-12
    assert rank == 4
    # the x-derivative stays inside span{exp, x exp, const}
    res_x, _ = tangent_residual(fam, y, fam.x_derivative(xs, y), xs, w)
    assert res_x < 1e-10
    # linear growth is far from the decaying span
    res_lin, _ = tangent_residual(fam, y, xs.copy(), xs, w)
    assert res_lin > 0.1


def test_residual_invariant_under_reparametrization():
    # rescaling a parameter rescales a basis column, not its span
    fam = nelson_siegel_family()

    def scaled_basis(x, y):
        b = fam.tangent_basis(x, y)
        b[:, 1] *= 10.0
        return b

    scaled = CurveFamily(
        name="scaled", n_params=4, curve=fam.curve, tangent_basis=scaled_basis,
        x_derivative=fam.x_derivative, domain_check=fam.domain_check,
    )
    xs, w = default_membership_grid()
    y = np.array([0.03, -0.01, 0.005, 1.5])
    for g in (xs.copy(), fam.x_derivative(xs, y), np.exp(-2.0 * xs)):
        r1, _ = tangent_residual(fam, y, g, xs, w)
        r2, _ = tangent_residual(scaled, y, g, xs, w)
        assert r1 == pytest.approx(r2, rel=1e-9, abs=1e-12)


def test_span_decomposition_soundness():
    # residual of a sum is controlled by the weighted residuals of the parts
    fam = nelson_siegel_family()
    xs, w = default_membership_grid()
    y = np.array([0.03, -0.01, 0.005, 1.5])
    rng = np.random.default_rng(11)
    sw = np.sqrt(w)
    for _ in range(20):
        g1 = rng.normal(size=xs.size)
        g2 = rng.normal(size=xs.size)
        r1, _ = tangent_residual(fam, y, g1, xs, w)
        r2, _ = tangent_residual(fam, y, g2, xs, w)
        rs, _ = tangent_residual(fam, y, g1 + g2, xs, w)
        n1 = np.linalg.norm(g1 * sw)
        n2 = np.linalg.norm(g2 * sw)
        ns = max(np.linalg.norm((g1 + g2) * sw), 1e-300)
        assert rs <= (r1 * n1 + r2 * n2) / ns + 1e-12


def test_shift_condition_family_verdicts():
    assert check_shift_condition(nelson_siegel_family(), _samples()).passed

    def sin_family():
        return CurveFamily(
            name="sin", n_params=2,
            curve=lambda x, y: y[0] + y[1] * np.sin(x),
            tangent_basis=lambda x, y: np.stack([np.ones_like(x), np.sin(x)], axis=1),
            x_derivative=lambda x, y: y[1] * np.cos(x),
        )

    assert not check_shift_condition(sin_family(), [np.array([0.1, 0.4])]).passed

    const_family = CurveFamily(
        name="const", n_params=1,
        curve=lambda x, y: np.full_like(x, y[0]),
        tangent_basis=lambda x, y: np.ones((x.size, 1)),
        x_derivative=lambda x, y: np.zeros_like(x),
    )
    assert check_shift_condition(const_family, [np.array([0.04])]).passed


def test_flat_model_inconsistent_with_linear_witness():
    verdict = check_drift_and_vol_condition(
        nelson_siegel_family(), ho_lee(0.01), H70,
        np.linspace(0.125, 1.0, 8), _samples(10),
    )
    assert not verdict.passed
    labels = [w[0] for w in verdict.witnesses]
    assert "drift linear-in-x term" in labels
    linear = [w for w in verdict.witnesses if w[0] == "drift linear-in-x term"][0]
    assert linear[3] > 0.1


def test_damped_model_inconsistent_on_both_state_spaces():
    ts = np.linspace(0.125, 1.0, 8)
    full = nagumo_full_check(
        nelson_siegel_family(), hull_white(0.01, 1.0), H70, ts, _samples(10)
    )
    assert not full.passed
    restricted = nagumo_full_check(
        nelson_siegel_family(decay_fixed=1.0), hull_white(0.01, 1.0), H70,
        ts, _samples(10, decay_fixed=1.0),
    )
    assert not restricted.passed
    labels = [w[0] for w in restricted.witnesses]
    assert "drift exp(-2 a x) term" in labels
    # the volatility direction itself is fine on the matched state space
    assert "volatility factor 1" not in labels


def test_zero_volatility_trivially_consistent():
    verdict = nagumo_full_check(
        nelson_siegel_family(), None, H70, np.linspace(0.1, 1, 4), _samples(5)
    )
    assert verdict.passed
    payload = json.loads(json.dumps(verdict.to_dict()))
    assert payload["passed"]


def test_golden_failures_are_decisive_not_indeterminate():
    # the structural mismatches sit far above the refinement band, so the
    # verdicts cannot be quadrature artifacts
    verdict = nagumo_full_check(
        nelson_siegel_family(), ho_lee(0.01), H70, np.linspace(0.125, 1, 4), _samples(5)
    )
    assert not verdict.passed
    assert not verdict.indeterminate


def test_verdicts_stable_under_grid_doubling():
    ts = np.linspace(0.125, 1.0, 8)
    ys = _samples(10)
    for spec in (ho_lee(0.01), hull_white(0.01, 1.0)):
        base = nagumo_full_check(nelson_siegel_family(), spec, H70, ts, ys)
        xs2, w2 = default_membership_grid(n=1024)
        fine = nagumo_full_check(
            nelson_siegel_family(), spec, H70, ts, ys, xs=xs2, weights=w2
        )
        assert base.passed == fine.passed


def test_controlled_path_zero_control_is_mean_path():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    u0 = [SampledFunction(tg.points, np.zeros(33))]
    cp = controlled_path(spec, H70, drift, init, u0, xg)
    ref = simulate_forward(
        spec, H70, drift, init,
        FbmPathSet(grid=tg, dims=1, n_paths=1, samples=np.zeros((1, 1, 33))),
        xg,
    )
    assert np.array_equal(cp.rates, ref.rates)


def test_controlled_path_affine_linearity():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 65)

    def run(vals):
        return controlled_path(
            spec, H70, drift, init, [SampledFunction(tg.points, vals)], xg
        ).rates

    base = run(np.zeros(33))
    u1 = np.sin(np.pi * tg.points)
    u2 = tg.points**2
    lhs = run(u1 + u2) - base
    rhs = (run(u1) - base) + (run(u2) - base)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_controlled_path_escapes_family():
    # start on the curve family; any nonzero control pushes the trajectory off
    spec = ho_lee(0.3)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=64)
    fam = nelson_siegel_family()
    y0 = np.array([0.04, -0.01, 0.005, 1.2])
    ext = np.arange(65) * tg.dt
    init = InitialCurve(dx=tg.dt, values=fam.curve(ext, y0))
    u = [SampledFunction(tg.points, np.sin(np.pi * tg.points))]
    path = controlled_path(spec, H70, drift, init, u, xg)
    xs = xg.points
    w = np.exp(-xs / 4.0)
    d0 = family_fit_distance(fam, xs, w, path.rates[0, 0, :], y0)
    assert d0 < 1e-12
    # strictly positive distance at every later time (the refit can shrink
    # it again, but an invariant family would keep it at zero)
    later = [
        family_fit_distance(fam, xs, w, path.rates[0, i, :], y0)
        for i in (8, 16, 24, 32)
    ]
    assert min(later) > 1e-5


def test_drift_curves_built_once_per_t_sample(monkeypatch):
    # the drift curve depends on t only, so one row per t serves every y
    from fhjm import consistency
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    rows = []
    drift_row = consistency._drift_row

    def counted(*args, **kwargs):
        rows.append(args[2])
        return drift_row(*args, **kwargs)

    monkeypatch.setattr(consistency, "_drift_row", counted)
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.01, 1.0)))
    ts = np.linspace(0.25, 1.0, 4)
    check_drift_and_vol_condition(nelson_siegel_family(), spec, H70, ts, _samples(5))
    assert rows == list(ts)


def test_huge_parameters_fail_the_shift_check_with_a_finite_residual():
    # the weighted norms once overflowed here: the residual read nan, which
    # every comparison passed, and the check reported max residual 0.0
    fam = nelson_siegel_family()
    xs, w = default_membership_grid()
    y = np.array([5.9e299, 2.4e299, 2.6e299, 2.5])
    with np.errstate(over="raise", invalid="raise"):
        res, _ = tangent_residual(fam, y, fam.x_derivative(xs, y), xs, w)
    assert np.isfinite(res) and res > 0.1
    verdict = check_shift_condition(fam, [y], xs, w)
    assert not verdict.passed
    assert verdict.max_residual == res == verdict.witnesses[0][3]
    # a subnormal dF/dx, here inside the span, scales by at most 2**1021
    assert check_shift_condition(fam, [[0.0, 1e-320, 0.0, 2.5]], xs, w).passed


def test_huge_parameters_give_a_finite_fit_distance():
    # the fit's sums of squares and both norms once overflowed here, and the
    # distance read nan; 1.0001 times a family curve is itself in the family
    import warnings

    fam = nelson_siegel_family()
    xs, w = default_membership_grid(n=64)
    y = np.array([5.9e299, 2.4e299, 2.6e299, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = family_fit_distance(fam, xs, w, 1.0001 * fam.curve(xs, y), y)
    assert np.isfinite(d) and d < 1e-12


def test_non_finite_residuals_fail_every_check(monkeypatch):
    from fhjm import consistency

    fam = nelson_siegel_family()
    y = np.array([0.03, -0.01, 0.005, 1.5])
    nan_curve = CurveFamily(
        name="nan", n_params=4, curve=lambda x, y: np.full_like(x, np.nan),
        tangent_basis=fam.tangent_basis, x_derivative=fam.x_derivative,
    )
    assert nan_curve.partials_self_check(y, np.linspace(0.1, 5.0, 9)) == np.inf
    monkeypatch.setattr(consistency, "tangent_residual", lambda *args: (np.nan, 4))
    for verdict in (check_shift_condition(fam, [y]),
                    check_drift_and_vol_condition(fam, ho_lee(0.01), H70, [0.5], [y])):
        assert not verdict.passed and verdict.max_residual == np.inf
        assert verdict.witnesses
