import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhjm.drift import DriftField
from fhjm.fbm import FbmPathSet, generate_cholesky
from fhjm.hjm import (
    BondSurface,
    InitialCurve,
    bond_surface,
    discounted_surface,
    drift_for_simulation,
    money_account,
    simulate_forward,
    simulation_grids,
)
from fhjm.kernels import HurstParam
from fhjm.ledger import (
    DiscreteMeasure,
    Gate,
    Strategy,
    StrategyLeg,
    integration_by_parts_check,
    liquidation_value,
    total_variation,
)
from fhjm.vol import ho_lee

H75 = HurstParam(0.75)


def _flat_unit_market(n=16):
    tg, xg = simulation_grids(1.0, n, 1.0, n)
    init = InitialCurve.flat(0.0, tg.dt, 2 * n + 1)
    zero_drift = DriftField(
        tg.points, np.arange(2 * n + 1) * tg.dt, np.zeros((n + 1, 2 * n + 1))
    )
    zero_paths = FbmPathSet(grid=tg, dims=1, n_paths=1, samples=np.zeros((1, 1, n + 1)))
    surf = simulate_forward(ho_lee(0.01), H75, zero_drift, init, zero_paths, xg)
    return discounted_surface(bond_surface(surf), money_account(surf))


def _noisy_market(n=16, n_paths=3, seed=77):
    tg, xg = simulation_grids(1.0, n, 1.0, n)
    spec = ho_lee(0.02)
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=64)
    init = InitialCurve.flat(0.03, tg.dt, 2 * n + 1)
    paths = generate_cholesky(tg, 1, n_paths, H75, seed=seed)
    surf = simulate_forward(spec, H75, drift, init, paths, xg)
    return discounted_surface(bond_surface(surf), money_account(surf))


def buy_hold(weight=1.0, T=1.0, horizon=1.0):
    return Strategy(
        legs=(StrategyLeg(0.0, horizon, DiscreteMeasure(((T, weight),))),),
        horizon=horizon,
    )


def test_total_variation_examples():
    assert total_variation(buy_hold()) == 1.0
    two_step = Strategy(
        legs=(
            StrategyLeg(0.0, 0.5, DiscreteMeasure(((1.0, 1.0),))),
            StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 2.0),))),
        ),
        horizon=1.0,
    )
    assert total_variation(two_step) == 2.0
    assert total_variation(Strategy(legs=(), horizon=1.0)) == 0.0
    # exiting before the horizon adds the closing jump
    early = Strategy(
        legs=(StrategyLeg(0.0, 0.5, DiscreteMeasure(((0.5, 1.0),))),), horizon=1.0
    )
    assert total_variation(early) == 2.0


def test_flat_market_buy_hold_costs_twice():
    market = _flat_unit_market()
    assert np.nanmax(np.abs(market.discounted - 1.0)) == 0.0
    for k in (0.001, 0.01, 0.5):
        res = liquidation_value(buy_hold(), market, k=k)
        assert res.final_values()[0] == pytest.approx(-2 * k, abs=1e-15)
    res0 = liquidation_value(buy_hold(), market, k=0.0)
    assert np.all(res0.value == 0.0)


def test_value_scales_linearly_in_weights():
    market = _noisy_market()
    a = liquidation_value(buy_hold(1.0), market, k=0.01)
    b = liquidation_value(buy_hold(2.0), market, k=0.01)
    assert b.final_values()[1] == pytest.approx(2 * a.final_values()[1], rel=1e-12)
    assert np.allclose(b.gains[1], 2 * a.gains[1])
    assert np.allclose(b.costs[1], 2 * a.costs[1])


def test_value_nonincreasing_in_k():
    market = _noisy_market()
    strat = Strategy(
        legs=(
            StrategyLeg(0.0, 0.5, DiscreteMeasure(((1.0, 1.0),))),
            StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, -0.5),))),
        ),
        horizon=1.0,
    )
    values = [
        liquidation_value(strat, market, k=k).value[2] for k in (0.0, 0.01, 0.05)
    ]
    assert np.all(values[1] <= values[0] + 1e-15)
    assert np.all(values[2] <= values[1] + 1e-15)


def test_zero_cost_value_telescopes():
    market = _noisy_market()
    strat = buy_hold()
    res = liquidation_value(strat, market, k=0.0)
    z = market.discounted[0, :, -1]
    # V_t^0 is the telescoped left-point sum of holdings against increments
    expected = np.concatenate([[0.0], np.cumsum(np.diff(z))])
    assert np.allclose(res.value[0], expected)


def test_admissibility_floor_reported():
    market = _noisy_market()
    res = liquidation_value(buy_hold(), market, k=0.01)
    floor = res.admissibility_floor()[0]
    assert floor <= 0.0
    assert floor >= -10.0  # default bound is configuration, sanity here


def test_gate_threshold_uses_information_at_start():
    market = _noisy_market()
    z0 = market.discounted[0, 0, -1]
    active = Gate(kind="threshold", maturity=1.0, op="<=", level=z0 + 1e-9)
    inactive = Gate(kind="threshold", maturity=1.0, op=">=", level=z0 + 1.0)
    on = Strategy(
        legs=(StrategyLeg(0.0, 1.0, DiscreteMeasure(((1.0, 1.0),)), gate=active),),
        horizon=1.0,
    )
    off = Strategy(
        legs=(StrategyLeg(0.0, 1.0, DiscreteMeasure(((1.0, 1.0),)), gate=inactive),),
        horizon=1.0,
    )
    plain = liquidation_value(buy_hold(), market, k=0.01)
    gated_on = liquidation_value(on, market, k=0.01)
    gated_off = liquidation_value(off, market, k=0.01)
    assert np.allclose(gated_on.value[0], plain.value[0])
    assert np.all(gated_off.value[0] == 0.0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Gate(kind="future-peek")
    with pytest.raises(ValueError):  # lookahead-style op rejected
        Gate(kind="threshold", maturity=1.0, op="<", level=1.0)
    with pytest.raises(ValueError):  # overlapping legs
        Strategy(
            legs=(
                StrategyLeg(0.0, 0.75, DiscreteMeasure(((1.0, 1.0),))),
                StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 1.0),))),
            ),
            horizon=1.0,
        )
    with pytest.raises(ValueError):  # support must stay ahead of time
        Strategy(
            legs=(StrategyLeg(0.5, 1.0, DiscreteMeasure(((0.25, 1.0),))),),
            horizon=1.0,
        )
    with pytest.raises(ValueError):  # beyond the horizon
        Strategy(
            legs=(StrategyLeg(0.0, 2.0, DiscreteMeasure(((2.0, 1.0),))),),
            horizon=1.0,
        )


def test_integration_by_parts_exact_on_grid():
    market = _noisy_market()
    strat = Strategy(
        legs=(
            StrategyLeg(0.0, 0.5, DiscreteMeasure(((1.0, 1.0), (0.5, -2.0)))),
            StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 3.0),))),
        ),
        horizon=1.0,
    )
    resid = integration_by_parts_check(strat, market)
    for p in range(market.n_paths):
        assert resid[p] < 1e-12
    empty = Strategy(legs=(), horizon=1.0)
    assert integration_by_parts_check(empty, market)[0] == 0.0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_integration_by_parts_randomized(data):
    # randomized strategies and surfaces; the identity telescopes exactly
    n = 8
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    tg, xg = simulation_grids(1.0, n, 1.0, n)
    prices = np.exp(rng.normal(0.0, 0.2, size=(1, n + 1, n + 1)))
    mats = tg.points
    for i in range(n + 1):
        prices[0, i, :i] = np.nan
    surface = BondSurface(
        t_grid=tg, maturities=mats, prices=prices, discounted=prices
    )
    n_legs = data.draw(st.integers(1, 3))
    bounds = sorted(rng.choice(np.arange(n + 1), size=2 * n_legs, replace=False))
    legs = []
    for a, b in zip(bounds[::2], bounds[1::2]):
        if a == b:
            continue
        t_end = tg.points[b]
        candidates = mats[mats >= t_end - 1e-12]
        T = float(rng.choice(candidates))
        w = float(rng.uniform(-3, 3))
        legs.append(StrategyLeg(tg.points[a], t_end, DiscreteMeasure(((T, w),))))
    strategy = Strategy(legs=tuple(legs), horizon=1.0)
    assert integration_by_parts_check(strategy, surface)[0] <= 1e-10


def _reference_ledger(strategy, surface, k):
    """Per-path, per-step ledger and pairing residual from the docstring formulas."""
    tg = surface.t_grid
    n, dt = tg.n_steps, tg.dt
    mats = list(np.round(surface.maturities / dt).astype(int))
    col = lambda T: mats.index(round(T / dt))  # noqa: E731
    n_paths = surface.n_paths
    gains, costs, liq, value = (np.zeros((n_paths, n + 1)) for _ in range(4))
    resid = np.zeros(n_paths)
    for p in range(n_paths):
        z = np.nan_to_num(surface.discounted[p], nan=0.0)
        hold = np.zeros((n + 1, len(mats)))  # held over (t_i, t_{i+1}]
        for leg in strategy.legs:
            i0, i1 = round(leg.start / dt), round(leg.end / dt)
            gate = leg.gate
            if gate.kind == "threshold":
                zg = surface.discounted[p, i0, col(gate.maturity)]
                if not (zg <= gate.level if gate.op == "<=" else zg >= gate.level):
                    continue
            for T, w in leg.measure.atoms:
                hold[i0:i1, col(T)] += w
        g_sum = c_sum = 0.0
        for j in range(n + 1):
            prev = hold[j - 1] if j > 0 else np.zeros(len(mats))
            gains[p, j], costs[p, j] = g_sum, c_sum
            liq[p, j] = sum(abs(prev[m]) * z[j, m] for m in range(len(mats)))
            value[p, j] = g_sum - k * c_sum - k * liq[p, j]
            if j < n:
                for m in range(len(mats)):
                    c_sum += abs(hold[j, m] - prev[m]) * z[j, m]
                    g_sum += hold[j, m] * (z[j + 1, m] - z[j, m])
        for m in range(len(mats)):
            mu = np.concatenate([[0.0], hold[:n, m]])  # position held into t_i
            g = z[:, m]
            pairing = sum(g[i + 1] * (mu[i + 1] - mu[i]) + mu[i] * (g[i + 1] - g[i])
                          for i in range(n))
            resid[p] += abs(pairing - (g[n] * mu[n] - g[0] * mu[0]))
    return gains, costs, liq, value, resid


def test_array_ledger_matches_per_path_reference():
    market = _noisy_market(n=16, n_paths=8, seed=5)
    gate_t, gate_T = 0.5, 1.0
    z_gate = market.discounted[:, round(gate_t * 16), -1]
    gate = Gate(kind="threshold", maturity=gate_T, op="<=", level=float(np.median(z_gate)))
    strat = Strategy(
        legs=(
            # multi-atom leg, one maturity named twice
            StrategyLeg(0.0, 0.25, DiscreteMeasure(((1.0, 1.0), (0.5, -2.0), (1.0, 0.5)))),
            # rebalance at 0.25
            StrategyLeg(0.25, 0.5, DiscreteMeasure(((1.0, 3.0), (0.75, -1.0)))),
            # gated leg, then an early exit at 0.75 before the horizon
            StrategyLeg(gate_t, 0.75, DiscreteMeasure(((1.0, 1.0), (0.75, 2.0))), gate=gate),
        ),
        horizon=1.0,
    )
    on = z_gate <= gate.level
    assert on.any() and not on.all()
    for k in (0.0, 0.01):
        res = liquidation_value(strat, market, k=k)
        gains, costs, liq, value, resid = _reference_ledger(strat, market, k)
        assert res.value.shape == (8, 17)
        np.testing.assert_allclose(res.gains, gains, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.costs, costs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.liquidation, liq, rtol=0, atol=1e-14)
        np.testing.assert_allclose(res.value, value, rtol=0, atol=1e-14)
    array_resid = integration_by_parts_check(strat, market)
    assert array_resid.shape == (8,)
    np.testing.assert_allclose(array_resid, resid, rtol=0, atol=1e-14)
    # paths whose gate is off hold nothing after 0.5
    late = slice(round(gate_t * 16) + 1, None)
    assert np.all(res.liquidation[~on, late] == 0.0)
    assert np.all(res.liquidation[on, late.start:13] > 0.0)


def test_gate_on_expired_maturity_rejected():
    market = _noisy_market()
    expired = Gate(kind="threshold", maturity=0.25, op="<=", level=1.0)
    strat = Strategy(
        legs=(StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 1.0),)), gate=expired),),
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="expired"):
        liquidation_value(strat, market, k=0.01)


def test_ledger_bits_do_not_follow_the_surface_layout():
    # affine batches hold Z as a maturity-major view.  With eight or more atom
    # columns a BLAS dot sums in an order set by the operands' strides, but the
    # ledger's column gather lays its copy out the same way from either layout
    market = _noisy_market(n=16, n_paths=6, seed=9)
    z = market.discounted
    view = BondSurface(t_grid=market.t_grid, maturities=market.maturities,
                       discounted=np.ascontiguousarray(z.transpose(0, 2, 1)).transpose(0, 2, 1))
    assert not view.discounted.flags.c_contiguous
    atoms = tuple((T, 0.3 + 0.1 * a) for a, T in enumerate(np.linspace(0.5, 1.0, 9)))
    strat = Strategy(
        legs=(StrategyLeg(0.0, 0.25, DiscreteMeasure(atoms)),
              StrategyLeg(0.25, 0.5, DiscreteMeasure(atoms[::-1]))),
        horizon=0.5,
    )
    for k in (0.0, 0.01):
        want, have = liquidation_value(strat, market, k), liquidation_value(strat, view, k)
        for name in ("gains", "costs", "liquidation", "value"):
            assert getattr(have, name).tobytes() == getattr(want, name).tobytes(), (k, name)
    assert (integration_by_parts_check(strat, view).tobytes()
            == integration_by_parts_check(strat, market).tobytes())


def test_ledger_price_columns_have_the_gather_strides():
    # (paths, n + 1, C) over a column-major (C, paths, n + 1) buffer, the
    # layout numpy gives z[:, :, cols]; the ledger's dot products follow it
    from fhjm.ledger import _holdings_series

    market = _noisy_market(n=16, n_paths=6, seed=9)
    z = market.discounted
    view = BondSurface(t_grid=market.t_grid, maturities=market.maturities,
                       discounted=np.ascontiguousarray(z.transpose(0, 2, 1)).transpose(0, 2, 1))
    atoms = tuple((T, 1.0) for T in np.linspace(0.5, 1.0, 9))
    strat = Strategy(legs=(StrategyLeg(0.0, 0.5, DiscreteMeasure(atoms)),), horizon=0.5)
    cols = [market.column(T, "atom") for T, _ in atoms]
    for surface in (market, view):
        _, have = _holdings_series(strat, surface)
        assert have.shape == (6, 17, 9)
        assert have.strides == (17 * 8, 8, 6 * 17 * 8)
        assert have.strides == surface.discounted[:, :, cols].strides
        assert have.tobytes() == np.nan_to_num(z[:, :, cols], nan=0.0).tobytes()


def test_one_ledger_serves_every_cost_level_bit_for_bit():
    # gains, costs and the liquidation charge do not depend on k, so a
    # ledger repriced at k has the bits of its own liquidation_value call
    market = _noisy_market(n=16, n_paths=6, seed=9)
    strat = Strategy(
        legs=(StrategyLeg(0.0, 0.5, DiscreteMeasure(((0.75, 1.0), (1.0, -0.5)))),
              StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 2.0),)))),
        horizon=1.0,
    )
    ledger = liquidation_value(strat, market, k=0.0)
    for k in (0.0, 0.005, 0.01, 0.05):
        want, have = liquidation_value(strat, market, k), ledger.at(k)
        assert have.k == want.k == k
        for name in ("times", "gains", "costs", "liquidation", "value"):
            assert getattr(have, name).tobytes() == getattr(want, name).tobytes(), (k, name)
    with pytest.raises(ValueError, match="nonnegative"):
        ledger.at(-0.01)
