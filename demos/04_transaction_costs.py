"""Trade bonds under proportional costs and inspect the liquidation ledger.

Builds a simple rebalancing strategy, runs it against simulated
discounted surfaces, and shows how the terminal liquidation value V^k
decreases with the cost level.  The exact discrete pairing identity
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
    affine_batches,
    drift_for_simulation,
    ho_lee,
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

# every time-grid maturity: the probe reads Z_tau(tau) off the diagonal
surfaces = list(
    affine_batches(
        spec, hurst, field, init, tg, xg, n_paths=500, seed=21, maturities=tg.points,
        batch_size=500,
    )
)
market = surfaces[0]

strategy = Strategy(
    legs=(
        StrategyLeg(0.0, 0.5, DiscreteMeasure(((1.0, 2.0), (0.75, -1.0)))),
        StrategyLeg(0.5, 1.0, DiscreteMeasure(((1.0, 1.0),))),
    ),
    horizon=1.0,
)
print(f"strategy total variation: {total_variation(strategy)}")
resid = integration_by_parts_check(strategy, market)
print(f"pairing-identity residual over {resid.size} paths: {resid.max():.2e}")

print(f"\nterminal V^k by cost level (mean / 5% / 95% over {market.n_paths} paths):")
for k in (0.0, 0.001, 0.005, 0.01):
    finals = liquidation_value(strategy, market, k=k).final_values()
    print(f"  k={k:<6} mean {finals.mean():+.5f}   "
          f"q05 {np.quantile(finals, 0.05):+.5f}   q95 {np.quantile(finals, 0.95):+.5f}")

print("\nsmall-oscillation frequencies (per restart time tau):")
probe = oscillation_probe(surfaces, thresholds=[0.01, 0.05, 0.2], taus=[0.0, 0.5])
for a, tau in enumerate(probe.taus):
    row = ", ".join(
        f"k={k:g}: {probe.frequencies[a, b]:.3f}"
        for b, k in enumerate(probe.thresholds)
    )
    print(f"  tau={tau}: {row}")
