import json
from operator import itemgetter

import numpy as np
import pytest

from fhjm.drift import drift_field
from fhjm.fbm import TimeGrid
from fhjm.hjm import (
    BondSurface,
    InitialCurve,
    PairPrices,
    affine_draws,
    drift_for_simulation,
    simulation_grids,
)
from fhjm.kernels import HurstParam
from fhjm.ledger import DiscreteMeasure, Gate, Strategy, StrategyLeg, holdings
from fhjm.noarb import (
    check_quasi_martingale,
    drift_identity_check,
    integrated_identity_gap,
    oscillation_probe,
)
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


def _small_mc(spec, hurst, n_paths, seed, pairs, drift=None, t_star=6.0, n=96):
    """The drift field and the panel's pair prices, batch by batch, as ``fhjm check`` draws them."""
    tg, xg = simulation_grids(t_star, n, t_star, n)
    fld = drift_for_simulation(spec, hurst, tg, xg, theta_cells=128)
    if drift == "zero":
        fld = fld.zeroed()
    init = InitialCurve.flat(0.03, tg.dt, 2 * n + 1)
    draws = affine_draws(
        spec, hurst, fld, init, tg, xg, n_paths=n_paths, seed=seed,
        pairs=pairs, batch_size=max(n_paths // 4, 1),
    )
    return fld, (prices for prices, _ in draws)


def test_quasi_martingale_panel_small_scale():
    spec = ho_lee(0.01)
    pairs = [(0.0, 6.0), (1.0, 5.0), (2.0, 6.0), (4.0, 6.0)]
    fld, batches = _small_mc(spec, H70, 10_000, seed=31, pairs=pairs)
    report = check_quasi_martingale(batches, pairs)
    # t = 0 rows are exact: zero standard error, zero z
    assert report.z_scores[0] == 0.0
    assert report.n_exceeding(3.0) == 0
    assert integrated_identity_gap(spec, H70, fld, pairs) < 1e-3
    payload = json.loads(json.dumps(report.to_dict()))
    assert len(payload["panel"]) == 4
    assert report.table().count("\n") == 4


def test_quasi_martingale_negative_control():
    # with the drift zeroed the mean drifts like exp(V/2), so the z-score
    # grows like sqrt(paths * V)/2; the panel below sits near z ~ 5
    spec = ho_lee(0.01)
    pairs = [(3.0, 6.0), (4.0, 6.0)]
    _, batches = _small_mc(spec, H70, 10_000, seed=31, pairs=pairs, drift="zero")
    report = check_quasi_martingale(batches, pairs)
    assert report.n_exceeding(3.0) == 2


def test_oscillation_probe_frequencies():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 32, 1.0, 32)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    batches = [rows for _, rows in affine_draws(
        spec, H70, fld, init, tg, xg, n_paths=2000, seed=67, row_maturities=tg.points,
        batch_size=500,
    )]
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
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["n_paths"] == 2000


def test_oscillation_probe_rejects_bad_threshold():
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 8, 1.0, 8)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 17)
    surf = [rows for _, rows in affine_draws(
        spec, H70, fld, init, tg, xg, n_paths=4, seed=1, row_maturities=tg.points, batch_size=4
    )]
    with pytest.raises(ValueError):
        oscillation_probe(surf, [-0.1], taus=[0.0])


def _leg_strategy(start, end, atom, gate=None):
    leg = StrategyLeg(start, end, DiscreteMeasure(((atom, 1.0),)), gate or Gate())
    return Strategy(legs=(leg,), horizon=1.0)


def _panel_on_the_grid(pairs):
    """The panel of ``pairs`` priced as ``fhjm check`` prices it, on a grid of step 0.2."""
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(1.0, 5, 1.0, 5)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=16)
    init = InitialCurve.flat(0.03, tg.dt, 11)
    draws = affine_draws(spec, H70, fld, init, tg, xg, n_paths=2, seed=1, pairs=pairs)
    return check_quasi_martingale((prices for prices, _ in draws), pairs)


@pytest.mark.parametrize("estimate, message", [
    (lambda s: _panel_on_the_grid([(0.3, 1.0)]),
     "panel time 0.3 not on the surface time grid"),
    (lambda s: _panel_on_the_grid([(-0.25, 1.0)]),
     "panel time -0.25 not on the surface time grid"),
    (lambda s: _panel_on_the_grid([(0.2, 0.75)]),
     "panel maturity 0.75 not among surface maturities"),
    (lambda s: oscillation_probe([s], [0.1], [0.3]),
     "oscillation time 0.3 not on the surface time grid"),
    (lambda s: oscillation_probe([s], [0.1], [0.75]),
     "oscillation time 0.75 not among surface maturities"),
    (lambda s: holdings(_leg_strategy(0.3, 0.5, 1.0), s),
     "leg boundary 0.3 not on the surface time grid"),
    (lambda s: holdings(_leg_strategy(0.25, 0.5, 0.75), s),
     "atom maturity 0.75 not among surface maturities"),
    (lambda s: holdings(_leg_strategy(0.25, 0.5, 1.0, Gate("threshold", 0.75, "<=", 1.0)), s),
     "gate maturity 0.75 not among surface maturities"),
])
def test_estimators_name_an_off_grid_time_or_absent_maturity(estimate, message):
    # one (t, T) -> cell rule: t a grid node and T a surface maturity, each within 1e-9
    tg = TimeGrid(1.0, 8)
    mats = np.array([0.5, 1.0])
    z = np.full((2, 9, 2), 0.98)
    z[:, tg.points[:, None] > mats[None, :] + 1e-12] = np.nan
    with pytest.raises(ValueError, match=message):
        estimate(BondSurface(t_grid=tg, maturities=mats, discounted=z).z_rows())


def _stream_and_surface(dims, n_paths, seed=13):
    """An affine draw's inputs and its whole-surface oracle on the probe's maturities.

    The oracle prices Z as one (paths, n + 1, M) array from the increments
    dbeta = A b of the driver increments b: the product over every factor,
    its sum over the factor axis, a cumulative sum down the time axis, + c
    and exp.  x_max < t_star leaves unpriced NaN cells.
    """
    from fhjm.fbm import BrownianDriver
    from fhjm.hjm import _driver_map, affine_log_discount
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.5))[:dims])
    tg, xg = simulation_grids(2.0, 32, 1.5, 24)
    fld = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 57)
    c, g = affine_log_discount(spec, H70, fld, init, tg, xg, tg.points)
    b = BrownianDriver.generate(tg, dims, n_paths, seed).increments
    dbeta = b @ _driver_map("cholesky", tg, H70).T
    log_z = np.empty((n_paths, tg.n_steps + 1, tg.n_steps + 1))
    log_z[:, 0] = 0.0
    np.cumsum((dbeta[..., None] * g).sum(axis=1), axis=1, out=log_z[:, 1:])
    log_z += c
    surface = BondSurface(t_grid=tg, maturities=tg.points, discounted=np.exp(log_z))
    assert np.isnan(surface.discounted[:, 0]).any()  # T - t > x_max is unpriced

    def draws(batch_size, pairs=()):
        return affine_draws(spec, H70, fld, init, tg, xg, n_paths=n_paths, seed=seed,
                            pairs=pairs, row_maturities=tg.points, batch_size=batch_size)

    return spec, surface, draws


def _pair_cells(batch, pairs):
    """The pair cells of one :class:`ZRows` batch, gathered as :class:`PairPrices`."""
    z = np.stack(list(batch.rows()), 1)
    i = [batch.row(t, "panel time") for t, _ in pairs]
    m = [batch.column(T, "panel maturity") for _, T in pairs]
    return PairPrices(tuple((float(t), float(T)) for t, T in pairs), z[0, 0, m], z[:, i, m])


def _assert_panels_agree(have, want):
    """Reports equal to rounding: means and standard errors within 1e-12 relative."""
    assert have.n_paths == want.n_paths
    np.testing.assert_allclose(have.targets, want.targets, rtol=1e-12, atol=0)
    live = want.std_errors > 0  # a (0, T) pair has no spread
    np.testing.assert_allclose(have.means, want.means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(have.std_errors[live], want.std_errors[live], rtol=1e-12, atol=0)
    # z is a mean difference over its standard error: near z = 0 its rounding
    # is absolute, so the bound is relative to max(|z|, 1)
    dz = np.abs(have.z_scores[live] - want.z_scores[live])
    assert np.all(dz <= 1e-12 * np.maximum(np.abs(want.z_scores[live]), 1.0)), dz


def _band_deviation_oracle(z, i_tau, m_tau):
    # the whole-region form: per path, nanmax of |Z_tau(tau) / Z_t(T) - 1| over t >= tau
    with np.errstate(invalid="ignore"):
        ratio = z[:, i_tau, m_tau, None, None] / z[:, i_tau:, :]
        return np.nanmax(np.abs(ratio - 1.0), axis=(1, 2))


@pytest.mark.parametrize("dims", [1, 2])
def test_streamed_panel_and_probe_match_the_whole_surface_bit_for_bit(dims):
    # the probe's rows give the surface's frequencies bit for bit; the panel's
    # prices, c + b . h from the same draw, give its pair cells' statistics
    n_paths = 40
    _, surface, draws = _stream_and_surface(dims, n_paths)
    z = surface.discounted
    pairs = [(0.0, 1.0), (0.25, 1.0), (0.5, 1.5), (1.0, 1.5), (0.5, 2.0)]
    taus = [0.0, 0.5, 1.0]
    # thresholds at the oracle's own deviations, so frequencies sit strictly inside (0, 1)
    devs = [_band_deviation_oracle(z, surface.row(tau, "t"), surface.column(tau, "T"))
            for tau in taus]
    ks = sorted({float(np.median(d)) for d in devs} | {10.0})
    want_freq = np.array([[(d < k).mean() for k in ks] for d in devs])
    assert ((want_freq > 0) & (want_freq < 1)).any()

    want_qm = check_quasi_martingale([_pair_cells(surface.z_rows(), pairs)], pairs)
    want_probe = oscillation_probe([surface.z_rows()], ks, taus)
    assert np.array_equal(want_probe.frequencies, want_freq)
    for batch_size in (1, 7, n_paths):
        # one draw for both estimators: the panel's prices and the probe's rows
        batches = list(draws(batch_size, pairs))
        qm = check_quasi_martingale([prices for prices, _ in batches], pairs)
        _assert_panels_agree(qm, want_qm)
        probe = oscillation_probe([rows for _, rows in batches], ks, taus)
        assert probe.frequencies.tobytes() == want_probe.frequencies.tobytes(), batch_size
        assert probe.n_paths == n_paths


def test_panel_names_a_batch_that_is_not_pair_prices():
    # the panel reads PairPrices only; rows and surfaces are the probe's input
    _, surface, draws = _stream_and_surface(1, 4)
    ((_, rows),) = draws(4)
    pairs = [(0.25, 1.0)]
    for batch in (rows, surface):
        message = f"the panel takes PairPrices batches, not {type(batch).__name__}"
        with pytest.raises(TypeError, match=message):
            check_quasi_martingale([batch], pairs)


@pytest.mark.parametrize("dims", [1, 2])
def test_oscillation_probe_holds_a_few_rows_of_one_batch(dims):
    # peak traced memory over three batches on every grid maturity: a small
    # multiple of one batch's increments and one (paths, n + 1) row, not the
    # batch's (paths, n + 1, n + 1) surface and ratio arrays
    import tracemalloc

    spec, _, draws = _stream_and_surface(dims, 600)
    n = 32
    batch = 200
    increment_bytes = batch * dims * n * 8
    row_bytes = batch * (n + 1) * 8

    def stream():
        return map(itemgetter(1), draws(batch))  # a map keeps no batch once it is handed on

    oscillation_probe(stream(), [0.01], [0.0])  # warm the increment factor
    tracemalloc.start()
    try:
        report = oscillation_probe(stream(), [0.001, 0.01], [0.0, 0.5, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_paths == 600
    assert peak < 6 * (increment_bytes + row_bytes), (peak, increment_bytes + row_bytes)


def _normals_setup(dims):
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.5))[:dims])
    tg, xg = simulation_grids(2.0, 32, 2.0, 32)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 65)
    pairs = [(0.25, 1.0), (0.5, 1.0), (0.5, 2.0), (1.25, 1.5), (2.0, 2.0), (0.0, 1.5)]
    return spec, tg, xg, drift, init, pairs


def _panel_from_normals(spec, tg, xg, drift, init, pairs, n_paths, batch_size, method):
    draws = affine_draws(spec, H70, drift, init, tg, xg, n_paths=n_paths, seed=11, pairs=pairs,
                         batch_size=batch_size, method=method)
    return [prices for prices, rows in draws if rows is None]


@pytest.mark.parametrize("method", ["cholesky", "volterra"])
@pytest.mark.parametrize("dims", [1, 2])
def test_panel_from_the_normals_matches_the_row_stream(dims, method):
    # the row stream of the same draw is the oracle: the same paths, priced
    # by the running sum of dbeta . g, their pair cells gathered here; the
    # normals route prices them as c + b . h
    spec, tg, xg, drift, init, pairs = _normals_setup(dims)
    draws = list(affine_draws(spec, H70, drift, init, tg, xg, n_paths=500, seed=11,
                              pairs=pairs, row_maturities=sorted({T for _, T in pairs}),
                              batch_size=200, method=method))
    want = check_quasi_martingale([_pair_cells(rows, pairs) for _, rows in draws], pairs)
    have = check_quasi_martingale([prices for prices, _ in draws], pairs)
    assert have.n_paths == want.n_paths == 500
    assert have.targets.tobytes() == want.targets.tobytes()
    assert np.sum(want.std_errors > 0) == len(pairs) - 1  # only the (0, T) pair has no spread
    _assert_panels_agree(have, want)


@pytest.mark.parametrize("method", ["cholesky", "volterra"])
@pytest.mark.parametrize("dims", [1, 2])
def test_pairs_and_rows_from_one_map_have_the_bits_of_each_alone(dims, method):
    # one (c, g) on the union of both maturity lists: the rows' list is
    # unsorted, holds a duplicate and misses the pair maturity past t_star
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.5))[:dims])
    tg, xg = simulation_grids(2.0, 32, 4.0, 64)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 97)
    pairs = [(0.25, 1.0), (0.5, 2.0), (1.25, 1.5), (1.0, 3.0), (2.0, 2.0)]
    row_maturities = [2.0, 0.5, 1.0, 2.0, 1.5]

    def draws(**parts):
        return list(affine_draws(spec, H70, drift, init, tg, xg, n_paths=9, seed=5,
                                 batch_size=4, method=method, **parts))

    both = draws(pairs=pairs, row_maturities=row_maturities)
    pairs_only, rows_only = draws(pairs=pairs), draws(row_maturities=row_maturities)
    assert len(both) == 3
    for (prices, rows), (want, no_rows), (no_prices, want_rows) in zip(
            both, pairs_only, rows_only, strict=True):
        assert no_rows is None and no_prices is None
        assert prices.pairs == want.pairs
        assert np.all(np.isfinite(prices.values)) and np.all(np.isfinite(prices.targets))
        assert prices.targets.tobytes() == want.targets.tobytes()
        assert prices.values.tobytes() == want.values.tobytes()
        assert rows.maturities.tolist() == row_maturities
        have, expected = np.stack(list(rows.rows())), np.stack(list(want_rows.rows()))
        assert have.tobytes() == expected.tobytes()
        assert have[:, :, 0].tobytes() == have[:, :, 3].tobytes()  # the duplicate


@pytest.mark.parametrize("method", ["cholesky", "volterra"])
def test_panel_from_the_normals_has_the_same_bits_in_any_batch(method):
    spec, tg, xg, drift, init, pairs = _normals_setup(2)

    def values(batch_size):
        batches = _panel_from_normals(spec, tg, xg, drift, init, pairs, 20, batch_size, method)
        return np.concatenate([b.values for b in batches])

    whole = values(20)
    assert whole.shape == (20, len(pairs))
    for batch_size in (1, 7):
        assert values(batch_size).view(np.uint64).tobytes() == whole.view(np.uint64).tobytes()


@pytest.mark.parametrize("method", ["cholesky", "volterra"])
def test_probe_rows_from_the_normals_match_the_row_stream(method):
    # the probe's rows, built from the same draw as the panel's prices, against
    # the row stream of the surface route's discounted surfaces
    from fhjm.hjm import simulate_batches

    spec, tg, xg, drift, init, pairs = _normals_setup(2)
    want = np.concatenate([np.stack(list(z.z_rows().rows())) for _, _, _, z in simulate_batches(
        spec, H70, drift, init, tg, xg, n_paths=9, seed=11, batch_size=4, method=method)], axis=1)
    have = np.concatenate([np.stack(list(rows.rows())) for _, rows in affine_draws(
        spec, H70, drift, init, tg, xg, n_paths=9, seed=11, row_maturities=tg.points, batch_size=4,
        method=method)], axis=1)
    assert np.array_equal(np.isnan(have), np.isnan(want))
    np.testing.assert_allclose(have, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dims", [1, 2])
def test_panel_from_the_normals_holds_no_batch_of_paths(dims):
    # batches of 2000 paths, drawn CHUNK_PATHS at a time: past the first batch,
    # which builds the run's map, the peak (a chunk's normals and their
    # scaled copy) stays below half of one (paths, d, n) batch array, which
    # the row route holds per batch
    import itertools
    import tracemalloc

    spec, _, _, _, _, _ = _normals_setup(dims)
    tg, xg = simulation_grids(4.0, 256, 1.0, 64)
    drift = drift_for_simulation(spec, H70, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 321)
    pairs = [(0.5, 1.0), (0.25, 0.75)]
    batch = 2000
    batch_bytes = batch * dims * tg.n_steps * 8
    draws = affine_draws(spec, H70, drift, init, tg, xg, n_paths=3 * batch, seed=4, pairs=pairs,
                         batch_size=batch)
    first, _ = next(draws)
    tracemalloc.start()
    try:
        report = check_quasi_martingale(
            itertools.chain([first], (prices for prices, _ in draws)), pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_paths == 3 * batch
    assert peak < 0.5 * batch_bytes, (peak, batch_bytes)
