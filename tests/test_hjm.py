import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import kurtosis, skew

from fhjm.drift import DriftField, ho_lee_drift
from fhjm.fbm import FbmPathSet, TimeGrid, generate_cholesky
from fhjm.hjm import (
    InitialCurve,
    affine_draws,
    bond_surface,
    closed_form_bond,
    discounted_surface,
    drift_for_simulation,
    money_account,
    simulate_batches,
    simulate_forward,
    simulation_grids,
)
from fhjm.kernels import HurstParam, cov_cell_integral
from fhjm.vol import MaturityGrid, ho_lee

H75 = HurstParam(0.75)


def _zero_paths(grid, dims=1, n_paths=1):
    return FbmPathSet(
        grid=grid, dims=dims, n_paths=n_paths,
        samples=np.zeros((n_paths, dims, grid.n_steps + 1)),
    )


def _zero_drift(tg, n_ext):
    return DriftField(tg.points, np.arange(n_ext) * tg.dt, np.zeros((tg.n_steps + 1, n_ext)))


def _stacked_rows(spec, drift, init, tg, xg, hurst=H75, **kwargs):
    """Each batch of ``affine_draws``' rows stacked along t: (paths, n + 1, M) arrays."""
    return [np.stack(list(rows.rows()), axis=1)
            for _, rows in affine_draws(spec, hurst, drift, init, tg, xg, **kwargs)]


def test_grid_alignment_enforced():
    with pytest.raises(ValueError):
        simulation_grids(1.0, 64, 1.0, 48)
    tg, xg = simulation_grids(2.0, 64, 1.0, 32)
    assert tg.dt == xg.dx


def test_pure_transport_shift_exact():
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    init = InitialCurve.from_table([0, 2], [0.01, 0.05], tg.dt, 65)
    surf = simulate_forward(
        ho_lee(0.02), H75, _zero_drift(tg, 65), init, _zero_paths(tg), xg
    )
    for i in range(33):
        assert np.array_equal(surf.rates[0, i, :], init.values[i : i + 33])


def test_grid_mismatch_rejected():
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    bad_drift = _zero_drift(tg, 40)  # does not cover the extended range
    with pytest.raises(ValueError):
        simulate_forward(ho_lee(0.02), H75, bad_drift, init, _zero_paths(tg), xg)
    short_init = InitialCurve.flat(0.03, tg.dt, 33)
    with pytest.raises(ValueError):
        simulate_forward(
            ho_lee(0.02), H75, _zero_drift(tg, 65), short_init, _zero_paths(tg), xg
        )
    wrong_x = MaturityGrid(1.0, 16)
    with pytest.raises(ValueError):
        simulate_forward(
            ho_lee(0.02), H75, _zero_drift(tg, 65), init, _zero_paths(tg), wrong_x
        )


def test_deterministic_flat_market():
    tg, xg = simulation_grids(1.0, 64, 1.0, 64)
    init = InitialCurve.flat(0.03, tg.dt, 129)
    surf = simulate_forward(
        ho_lee(0.02), H75, _zero_drift(tg, 129), init, _zero_paths(tg), xg
    )
    bonds = bond_surface(surf)
    assert bonds.prices[0, 0, -1] == pytest.approx(np.exp(-0.03), rel=1e-14)
    # P(t, t) = 1 exactly on the diagonal
    for i in (0, 10, 64):
        assert bonds.prices[0, i, i] == 1.0
    account = money_account(surf)
    assert account[0, 0] == 1.0
    assert account[0, -1] == pytest.approx(np.exp(0.03), rel=1e-14)
    assert np.all(np.diff(account[0]) >= 0)
    z = discounted_surface(bonds, account).discounted
    # flat deterministic market: Z_t(T) = exp(-r T) constant in t
    col = z[0, :, -1]
    assert np.nanmax(np.abs(col - col[0])) < 1e-13
    assert z[0, 0, -1] == pytest.approx(bonds.prices[0, 0, -1])


def test_bond_prices_decrease_in_maturity():
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    init = InitialCurve.flat(0.04, tg.dt, 65)
    drift = drift_for_simulation(ho_lee(0.005), H75, tg, xg, theta_cells=64)
    paths = generate_cholesky(tg, 1, 4, H75, seed=3)
    surf = simulate_forward(ho_lee(0.005), H75, drift, init, paths, xg)
    prices = bond_surface(surf).prices
    for p in range(4):
        row = prices[p, 0, :]
        assert np.all(np.diff(row) < 0)


def test_maturity_beyond_grid_rejected():
    tg, xg = simulation_grids(1.0, 16, 0.5, 8)
    init = InitialCurve.flat(0.03, tg.dt, 25)
    surf = simulate_forward(
        ho_lee(0.02), H75, _zero_drift(tg, 25), init, _zero_paths(tg), xg
    )
    with pytest.raises(ValueError):
        bond_surface(surf, maturities=[2.0])
    with pytest.raises(ValueError):
        bond_surface(surf, maturities=[0.517])  # off-grid


def test_maturity_window_prices_only_reachable_pairs():
    # T = 0.75 with x_max = 0.5: priced for t in [0.25, 0.75], NaN elsewhere
    tg, xg = simulation_grids(1.0, 16, 0.5, 8)
    init = InitialCurve.flat(0.03, tg.dt, 25)
    surf = simulate_forward(
        ho_lee(0.02), H75, _zero_drift(tg, 25), init, _zero_paths(tg), xg
    )
    bonds = bond_surface(surf, maturities=[0.75])
    col = bonds.prices[0, :, 0]
    assert np.all(np.isnan(col[:4]))
    assert np.all(np.isnan(col[13:]))
    assert np.all(np.isfinite(col[4:13]))
    assert col[12] == 1.0  # P(T, T)
    assert col[4] == pytest.approx(np.exp(-0.03 * 0.5), rel=1e-12)


def test_flat_vol_moments():
    hurst = HurstParam(0.7)
    sigma = 0.02
    spec = ho_lee(sigma)
    tg, xg = simulation_grids(1.0, 64, 1.0, 64)
    drift = drift_for_simulation(spec, hurst, tg, xg, theta_cells=256)
    init = InitialCurve.flat(0.03, tg.dt, 129)
    paths = generate_cholesky(tg, 1, 20_000, hurst, seed=99)
    surf = simulate_forward(spec, hurst, drift, init, paths, xg)

    # variance of r_t(x): the noise term is sigma * beta_t for every x
    for i, k in [(32, 0), (64, 17)]:
        t = tg.points[i]
        target = sigma**2 * t ** (2 * hurst.h)
        se = target * np.sqrt(2 / 20_000)
        assert abs(surf.rates[:, i, k].var() - target) < 3 * se

    # mean short rate: initial curve plus the accumulated drift along the
    # diagonal, oracle by adaptive quadrature of the closed form
    i = 64
    oracle, _ = quad(lambda s: ho_lee_drift(sigma, hurst, s, 1.0 - s), 0, 1)
    sample = surf.rates[:, i, 0]
    se_mean = sample.std() / np.sqrt(sample.size)
    assert abs(sample.mean() - (0.03 + oracle)) < 3 * se_mean


def test_gaussian_marginals():
    hurst = HurstParam(0.7)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    spec = ho_lee(0.02)
    drift = drift_for_simulation(spec, hurst, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    paths = generate_cholesky(tg, 1, 10_000, hurst, seed=111)
    surf = simulate_forward(spec, hurst, drift, init, paths, xg)
    sample = surf.rates[:, 20, 5]
    n = sample.size
    assert abs(skew(sample)) < 4 * np.sqrt(6 / n)
    assert abs(kurtosis(sample)) < 4 * np.sqrt(24 / n)


def test_closed_form_bond_deterministic_reduction():
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    spec = ho_lee(0.02)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    zd = _zero_drift(tg, 65)
    cf = closed_form_bond(spec, H75, zd, init, _zero_paths(tg), xg)
    direct = bond_surface(
        simulate_forward(spec, H75, zd, init, _zero_paths(tg), xg)
    )
    mask = ~np.isnan(cf.prices)
    assert np.abs(cf.prices[mask] - direct.prices[mask]).max() < 1e-12
    # t = 0 row reproduces P(0, T) exactly
    assert cf.prices[0, 0, -1] == pytest.approx(np.exp(-0.03), rel=1e-13)


def test_two_oracle_agreement_and_refinement():
    spec = ho_lee(0.02)
    devs = {}
    for n in (128, 512):
        tg, xg = simulation_grids(1.0, n, 1.0, n)
        drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=64)
        init = InitialCurve.flat(0.02, tg.dt, 2 * n + 1)
        paths = generate_cholesky(tg, 1, 3, H75, seed=4)
        surf = simulate_forward(spec, H75, drift, init, paths, xg)
        direct = bond_surface(surf)
        cf = closed_form_bond(spec, H75, drift, init, paths, xg)
        mask = ~np.isnan(direct.prices)
        devs[n] = np.abs(direct.prices[mask] / cf.prices[mask] - 1).max()
    assert devs[512] < 1e-3
    assert devs[512] < devs[128]


def test_forward_csv_rejects_non_finite_rates():
    import io

    from fhjm.hjm import ForwardSurface, write_forward_csv

    rates = np.full((2, 3, 3), 0.03)
    rates[1, 2, 1] = np.nan
    surface = ForwardSurface(TimeGrid(1.0, 2), MaturityGrid(1.0, 2), rates)
    with pytest.raises(ValueError, match="'r'"):
        write_forward_csv(surface, io.StringIO())


def test_simulate_batches_keeps_no_yielded_batch():
    import weakref

    tg, xg = simulation_grids(1.0, 8, 1.0, 8)
    spec = ho_lee(0.01)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 17)
    batches = simulate_batches(spec, H75, drift, init, tg, xg, n_paths=4, seed=3, batch_size=2)
    for expected in (0, 2):
        offset, _, surface, _ = next(batches)
        assert offset == expected
        dead = weakref.ref(surface)
        del surface
        # the forward surface is freed before the next batch is requested
        assert dead() is None


def test_vol_cube_equals_per_step_evaluations():
    # one broadcast evaluation per factor gives the bits of one call per (j, i)
    from fhjm.hjm import _vol_cube
    from fhjm.vol import ExpDecayVol, FlatVol, TabulatedVol, VolatilitySpec, eval_vol

    table = TabulatedVol([0.0, 0.3, 1.0], [0.0, 0.5, 1.2],
                         [[0.01, 0.02, 0.015], [0.012, 0.011, 0.02], [0.03, 0.01, 0.02]])
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.7), table))
    tg = TimeGrid(1.0, 16)
    ext = np.arange(33) * tg.dt
    cube = _vol_cube(spec, tg, ext)
    assert cube.shape == (3, 16, 33)
    for j in range(1, 4):
        for i in range(16):
            ref = np.asarray(eval_vol(spec, j, tg.points[i], ext))
            assert cube[j - 1, i].tobytes() == ref.tobytes(), (j, i)


@pytest.mark.parametrize("method", ["cholesky", "volterra"])
def test_affine_route_matches_surface_route(method):
    # log Z = c + cumsum(dbeta . g) prices the same cells as the forward and
    # bond surfaces, to rounding; x_max < t_star leaves unpriced cells NaN
    from fhjm.vol import ExpDecayVol, FlatVol, TabulatedVol, VolatilitySpec

    table = TabulatedVol([0.0, 0.5, 1.0], [0.0, 0.5, 2.5],
                         [[0.01, 0.02, 0.015], [0.012, 0.011, 0.02], [0.03, 0.01, 0.02]])
    specs = (
        VolatilitySpec((FlatVol(0.01),)),
        VolatilitySpec((ExpDecayVol(0.02, 1.5), table)),
    )
    tg, xg = simulation_grids(1.0, 32, 0.5, 16)
    init = InitialCurve.from_table([0.0, 2.0], [0.01, 0.05], tg.dt, 49)
    mats = [0.25, 0.5, 0.75, 1.0]
    cols = [int(round(T / tg.dt)) for T in mats]
    for spec in specs:
        drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=64)
        surface = simulate_batches(spec, H75, drift, init, tg, xg, n_paths=9, seed=5,
                                   batch_size=4, method=method)
        affine = affine_draws(spec, H75, drift, init, tg, xg, n_paths=9, seed=5,
                              row_maturities=mats, batch_size=4, method=method)
        for (_, _, _, ref), (prices, rows) in zip(surface, affine, strict=True):
            assert prices is None  # no pairs asked for
            assert np.array_equal(rows.maturities, mats)
            want, have = ref.discounted[:, :, cols], np.stack(list(rows.rows()), axis=1)
            priced = ~np.isnan(want)
            assert np.array_equal(priced, ~np.isnan(have))
            assert not priced.all()  # T - t > x_max is unpriced
            np.testing.assert_allclose(have[priced], want[priced], rtol=1e-12, atol=0)


def test_affine_route_rows_do_not_depend_on_batch_size():
    tg, xg = simulation_grids(1.0, 16, 1.0, 16)
    spec = ho_lee(0.01)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 33)

    def run(batch_size, method):
        return np.concatenate(_stacked_rows(spec, drift, init, tg, xg, n_paths=20, seed=8,
                                            row_maturities=[0.5, 1.0], batch_size=batch_size,
                                            method=method))

    # a flat product over a batch rounds each row by the row count; the
    # generators' per-path products do not
    for method in ("cholesky", "volterra"):
        whole = run(20, method)
        for batch_size in (1, 3, 7):
            assert run(batch_size, method).tobytes() == whole.tobytes(), (method, batch_size)


def test_three_batch_run_builds_the_increment_gram_once(monkeypatch):
    from fhjm import fbm

    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return cov_cell_integral(*args, **kwargs)

    monkeypatch.setattr(fbm, "cov_cell_integral", counted)
    fbm._increment_factor.cache_clear()
    tg, xg = simulation_grids(1.0, 16, 1.0, 16)
    spec = ho_lee(0.01)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 33)
    batches = _stacked_rows(spec, drift, init, tg, xg, n_paths=9, seed=8,
                            row_maturities=[0.5, 1.0], batch_size=3)
    assert len(batches) == 3
    assert len(builds) == 1


def test_three_volterra_batches_build_the_kernel_matrix_once(monkeypatch):
    from fhjm import fbm

    build, builds = fbm._kernel_matrix, []

    def counted(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(fbm, "_kernel_matrix", counted)
    fbm._volterra_matrix.cache_clear()
    tg, xg = simulation_grids(1.0, 16, 1.0, 16)
    spec = ho_lee(0.01)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 33)
    batches = _stacked_rows(spec, drift, init, tg, xg, n_paths=9, seed=8,
                            row_maturities=[0.5, 1.0], batch_size=3, method="volterra")
    assert len(batches) == 3
    assert len(builds) == 1


def _affine_oracle(c, g, dbeta):
    # log Z = c + cumsum over l of sum_j dbeta_j_l * g_j(l, T), as a
    # (paths, n + 1, M) array: the product over every factor, its sum over
    # the factor axis, then the cumulative sum down the time axis
    log_z = np.empty((dbeta.shape[0], dbeta.shape[2] + 1, g.shape[2]))
    log_z[:, 0] = 0.0
    np.cumsum((dbeta[..., None] * g).sum(axis=1), axis=1, out=log_z[:, 1:])
    log_z += c
    return np.exp(log_z)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_affine_rows_match_the_factor_sum_oracle_bit_for_bit(dims):
    # the rows' running sum, stepped factor by factor, gives the bits of the
    # factor-axis sum over dbeta = A b of the driver increments b; x_max <
    # t_star leaves NaN cells
    from fhjm.fbm import BrownianDriver
    from fhjm.hjm import _driver_map, _generate_paths, affine_log_discount
    from fhjm.vol import ExpDecayVol, FlatVol, TabulatedVol, VolatilitySpec

    table = TabulatedVol([0.0, 0.5, 1.0], [0.0, 0.5, 2.5],
                         [[0.01, 0.02, 0.015], [0.012, 0.011, 0.02], [0.03, 0.01, 0.02]])
    spec = VolatilitySpec((table, ExpDecayVol(0.02, 1.5), FlatVol(0.013))[:dims])
    tg, xg = simulation_grids(1.0, 32, 0.5, 16)
    init = InitialCurve.from_table([0.0, 2.0], [0.01, 0.05], tg.dt, 49)
    mats = [0.25, 0.5, 0.75, 1.0]
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=64)
    c, g = affine_log_discount(spec, H75, drift, init, tg, xg, mats)
    n_paths = 13
    b = BrownianDriver.generate(tg, dims, n_paths, seed=21).increments
    for method in ("cholesky", "volterra"):
        dbeta = b @ _driver_map(method, tg, H75).T
        # the increments of the generator's own paths, to rounding
        exact = _generate_paths(method, tg, dims, n_paths, H75, 21, 0).increments()
        assert np.abs(dbeta - exact).max() <= 1e-14 * np.abs(exact).max(), method
        want = _affine_oracle(c, g, dbeta)
        assert np.isnan(want).any() and not np.isnan(want).all()
        for batch_size in (1, 7, n_paths):
            have = np.concatenate(_stacked_rows(
                spec, drift, init, tg, xg, n_paths=n_paths, seed=21, row_maturities=mats,
                batch_size=batch_size, method=method))
            assert have.shape == want.shape
            same = np.array_equal(have.view(np.uint64), want.view(np.uint64))
            assert same, (method, batch_size)


@pytest.mark.parametrize("dims", [1, 2])
def test_affine_rows_through_the_ledger_hold_one_batch_at_a_time(dims):
    # three batches' rows drained through `holdings`, as `fhjm portfolio` does:
    # the peak traced memory holds one batch's increments dbeta and, either
    # a chunk's draw, or the holdings' price buffer z and positions held;
    # never the previous batch's dbeta, z or held on top
    import tracemalloc

    from fhjm.fbm import CHUNK_PATHS
    from fhjm.ledger import DiscreteMeasure, Strategy, StrategyLeg, holdings
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    tg, xg = simulation_grids(2.0, 32, 2.0, 32)
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.5))[:dims])
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    mats = [1.0, 1.5, 1.75, 2.0]
    strategy = Strategy(legs=(StrategyLeg(0.0, 1.0, DiscreteMeasure([(T, 1.0) for T in mats])),),
                        horizon=1.0)
    batch = 600
    dbeta_bytes = batch * dims * tg.n_steps * 8
    chunk_bytes = 2 * CHUNK_PATHS * dims * tg.n_steps * 8  # the normals and their scaled copy
    z_bytes = held_bytes = batch * (tg.n_steps + 1) * len(mats) * 8

    def drained(n_paths):
        count = 0
        for _, rows in affine_draws(spec, H75, drift, init, tg, xg, n_paths=n_paths, seed=4,
                                    row_maturities=mats, batch_size=batch):
            series = holdings(strategy, rows)
            count += series.held.shape[0]
            del rows, series  # freed before the next batch is drawn
        return count

    drained(2)  # warm the increment factor, off the traced run
    tracemalloc.start()
    try:
        n_paths = drained(3 * batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_paths == 3 * batch
    assert peak < dbeta_bytes + chunk_bytes + z_bytes + held_bytes, (peak, z_bytes)


@pytest.mark.parametrize("maturity", [0.3, 5.0, -0.125])
def test_row_maturities_are_held_to_the_cell_rule(maturity):
    # off the grid, past t_star + x_max, or before 0: each is named with its role
    import re

    tg, xg = simulation_grids(1.0, 8, 1.0, 8)
    spec = ho_lee(0.01)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=16)
    init = InitialCurve.flat(0.03, tg.dt, 17)
    draws = affine_draws(spec, H75, drift, init, tg, xg, n_paths=2, seed=1,
                         row_maturities=[0.5, maturity])
    with pytest.raises(ValueError, match=re.escape(f"row maturity {maturity} not among")):
        next(draws)


@st.composite
def _factors(draw):
    """One volatility factor: flat, exponentially damped, or a 3 x 3 table (zeros allowed)."""
    from fhjm.vol import ExpDecayVol, FlatVol, TabulatedVol

    kind = draw(st.sampled_from(["flat", "damped", "table"]))
    level = st.floats(0.001, 0.05)
    if kind == "flat":
        return FlatVol(draw(level))
    if kind == "damped":
        return ExpDecayVol(draw(level), draw(st.floats(0.1, 3.0)))
    knots = [np.cumsum([0.0] + draw(st.lists(st.floats(0.1, 4.0), min_size=2, max_size=2)))
             for _ in range(2)]
    values = draw(st.lists(st.sampled_from([0.0]) | level, min_size=9, max_size=9))
    return TabulatedVol(knots[0], knots[1], np.reshape(values, (3, 3)))


@pytest.mark.filterwarnings("ignore:tabulated volatility extrapolated")
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_affine_draws_match_the_surface_route_on_random_models(data):
    # pairs and rows of affine_draws against simulate_batches' forward surface,
    # priced on every maturity node by bond_surface and discounted: 1e-12
    # relative and the same NaN pattern, on random specs, grids and cells
    from fhjm.vol import VolatilitySpec

    draw = data.draw
    spec = VolatilitySpec(tuple(draw(st.lists(_factors(), min_size=1, max_size=3))))
    hurst = HurstParam(draw(st.floats(0.55, 0.95)))
    method = draw(st.sampled_from(["cholesky", "volterra"]))
    n, m = draw(st.integers(2, 24)), draw(st.integers(1, 24))
    t_star = draw(st.sampled_from([0.5, 1.0, 2.0, 8.0]))
    tg, xg = simulation_grids(t_star, n, t_star / n * m, m)
    init = InitialCurve.from_table([0.0, tg.t_star + xg.x_max],
                                   [draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05))],
                                   tg.dt, n + m + 1)
    nodes = tg.dt * np.arange(n + m + 1)
    cells = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n + m)), max_size=4))
    pairs = [(tg.points[i], nodes[k]) for i, k in cells]
    row_cols = draw(st.lists(st.integers(0, n + m), min_size=1, max_size=4))
    n_paths, batch_size = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    drift = drift_for_simulation(spec, hurst, tg, xg, theta_cells=16)
    run = dict(n_paths=n_paths, seed=draw(st.integers(0, 2**31 - 1)), batch_size=batch_size,
               method=method)

    want = []
    for _, _, surface, _ in simulate_batches(spec, hurst, drift, init, tg, xg, **run):
        bonds = bond_surface(surface, nodes)
        want.append(discounted_surface(bonds, money_account(surface)).discounted)
    want = np.concatenate(want)
    prices, rows = zip(*affine_draws(spec, hurst, drift, init, tg, xg, pairs=pairs,
                                     row_maturities=nodes[row_cols], **run))
    checks = [(np.concatenate([np.stack(list(r.rows()), axis=1) for r in rows]),
               want[:, :, row_cols])]
    if pairs:
        checks.append((np.concatenate([p.values for p in prices]),
                       want[:, [i for i, _ in cells], [k for _, k in cells]]))
    for have, expected in checks:
        priced = ~np.isnan(expected)
        assert np.array_equal(priced, ~np.isnan(have))
        np.testing.assert_allclose(have[priced], expected[priced], rtol=1e-12, atol=0)
