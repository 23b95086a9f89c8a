"""Trade bonds under proportional costs and inspect the liquidation ledger.

Builds a simple rebalancing strategy, reads its holdings once off the time
rows of simulated discounted prices, and shows how the terminal
liquidation value V^k decreases with the cost level.  The exact discrete pairing identity
(holdings against prices) is checked along the way, and the oscillation
probe reports how often the surface stays inside narrow bands -- the
mechanism by which small frictions remove arbitrage from rough paths.
"""

import numpy as np

from fhjm import (
    DiscreteMeasure,
    HurstParam,
    InitialCurve,
    Strategy,
    StrategyLeg,
    affine_draws,
    drift_for_simulation,
    ho_lee,
    holdings,
    integration_by_parts_check,
    liquidation_value,
    oscillation_probe,
    simulation_grids,
    total_variation,
)

hurst = HurstParam(0.7)
spec = ho_lee(0.02)
tg, xg = simulation_grids(1.0, 32, 1.0, 32)
field = drift_for_simulation(spec, hurst, tg, xg)
init = InitialCurve.flat(0.03, tg.dt, 65)

# one batch of time rows on every time-grid maturity: the ledger reads the
# strategy's columns, and the probe Z_tau(tau) off the diagonal
((_, market),) = affine_draws(
    spec, hurst, field, init, tg, xg, n_paths=500, seed=21, row_maturities=tg.points,
    batch_size=500,
)

strategy = Strategy(
    legs=(
        StrategyLeg(0.0, 0.5, DiscreteMeasure(((1.0, 2.0), (0.75, -1.0)))),
        StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 1.0),))),
    ),
    horizon=1.0,
)
print(f"strategy total variation: {total_variation(strategy)}")
series = holdings(strategy, market)  # one holdings series serves every ledger call
resid = integration_by_parts_check(series)
print(f"pairing-identity residual over {resid.size} paths: {resid.max():.2e}")

print(f"\nterminal V^k by cost level (mean / 5% / 95% over {market.n_paths} paths):")
for k in (0.0, 0.001, 0.005, 0.01):
    finals = liquidation_value(series, k=k).final_values()
    print(f"  k={k:<6} mean {finals.mean():+.5f}   "
          f"q05 {np.quantile(finals, 0.05):+.5f}   q95 {np.quantile(finals, 0.95):+.5f}")

print("\nsmall-oscillation frequencies (per restart time tau):")
probe = oscillation_probe([market], thresholds=[0.01, 0.05, 0.2], taus=[0.0, 0.5])
for a, tau in enumerate(probe.taus):
    row = ", ".join(
        f"k={k:g}: {probe.frequencies[a, b]:.3f}"
        for b, k in enumerate(probe.thresholds)
    )
    print(f"  tau={tau}: {row}")
