"""Simulate bond surfaces and verify the constant-expectation property.

Simulates the forward surface under the no-arbitrage drift, prices bonds
two independent ways, then runs the discounted-price panel: with the
correct drift the sample means match the time-zero prices inside Monte
Carlo error; with the drift zeroed the panel shows systematic drift.
"""

import numpy as np

from fhjm import (
    HurstParam,
    InitialCurve,
    affine_draws,
    bond_surface,
    check_quasi_martingale,
    closed_form_bond,
    drift_for_simulation,
    generate_cholesky,
    ho_lee,
    simulate_forward,
    simulation_grids,
)

hurst = HurstParam(0.7)
spec = ho_lee(0.01)
tg, xg = simulation_grids(4.0, 64, 4.0, 64)
field = drift_for_simulation(spec, hurst, tg, xg)
init = InitialCurve.flat(0.03, tg.dt, 129)

print("== two independent bond-pricing routes (one path set) ==")
paths = generate_cholesky(tg, 1, 5, hurst, seed=11)
surface = simulate_forward(spec, hurst, field, init, paths, xg)
direct = bond_surface(surface)
exponential = closed_form_bond(spec, hurst, field, init, paths, xg)
mask = ~np.isnan(direct.prices)
dev = np.abs(direct.prices[mask] / exponential.prices[mask] - 1).max()
print(f"pathwise relative deviation between routes: {dev:.2e}")

print("\n== constant-expectation panel, 20000 paths ==")
pairs = [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0), (3.0, 4.0)]
draws = affine_draws(
    spec, hurst, field, init, tg, xg,
    n_paths=20_000, seed=99, pairs=pairs, batch_size=2000,
)
rep = check_quasi_martingale((p for p, _ in draws), pairs)
print(rep.table())
print(f"panel z-scores exceeding 3: {rep.n_exceeding(3.0)}")

print("\n== negative control: drift removed ==")
draws0 = affine_draws(
    spec, hurst, field.zeroed(), init, tg, xg,
    n_paths=20_000, seed=99, pairs=pairs, batch_size=2000,
)
rep0 = check_quasi_martingale((p for p, _ in draws0), pairs)
print(rep0.table())
print(
    "note the systematic positive shift: the z-scores grow like "
    "sqrt(paths * variance)/2, so longer horizons or more paths push "
    "every pair past 3 (the acceptance suite runs that configuration)"
)
