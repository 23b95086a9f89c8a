"""Acceptance suite: every criterion at its pinned tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The Monte Carlo criteria use frozen seeds; every tolerance is stated in
the assertion, nothing is deferred to later calibration.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fhjm.consistency import (
    check_drift_and_vol_condition,
    check_shift_condition,
    default_membership_grid,
    nagumo_full_check,
    nelson_siegel_family,
    tangent_residual,
)
from fhjm.drift import drift_field, ho_lee_drift, log_expectation
from fhjm.fbm import (
    BrownianDriver,
    TimeGrid,
    fbm_covariance_matrix,
    generate_cholesky,
    generate_polygonal,
    generate_volterra,
    _increment_factor,
    _kernel_matrix,
)
from fhjm.hjm import (
    InitialCurve,
    bond_surface,
    closed_form_bond,
    drift_for_simulation,
    simulate_forward,
    simulation_grids,
)
from fhjm.kernels import (
    FracOrder,
    HurstParam,
    SampledFunction,
    calibrate_kernel_scale,
    frac_derivative,
    frac_integral,
)
from fhjm.ledger import (
    DiscreteMeasure,
    Strategy,
    StrategyLeg,
    integration_by_parts_check,
    liquidation_value,
)
from fhjm.hjm import BondSurface, affine_batches, discounted_surface, money_account
from fhjm.noarb import check_quasi_martingale, drift_identity_check
from fhjm.vol import ho_lee, hull_white

REPO = Path(__file__).resolve().parents[1]


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {label} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_drift_oracle_agreement():
    start = time.time()
    worst = 0.0
    tg = np.linspace(0.0, 1.0, 257)
    xg = np.linspace(0.0, 2.0, 257)
    for h in (0.6, 0.75, 0.9):
        hurst = HurstParam(h)
        field = drift_field(ho_lee(1.0), hurst, tg, xg)
        closed = ho_lee_drift(1.0, hurst, tg[:, None], xg[None, :])
        rel = np.abs(field.values - closed) / np.maximum(np.abs(closed), 1e-30)
        rel[0] = 0.0
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    report(
        1, "generic drift vs closed form on 256x256 grid",
        worst <= 1e-6 and elapsed < 30.0,
        f"(max rel {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_drift_identity():
    # flat model, sigma = 1, H = 3/4, horizon T = 2
    h75 = HurstParam(0.75)
    tp = np.linspace(0.0, 2.0, 513)
    xp = np.linspace(0.0, 2.0, 513)
    field = drift_field(ho_lee(1.0), h75, tp, xp, theta_cells=512)
    gap_flat = drift_identity_check(ho_lee(1.0), h75, field, 2.0, theta_cells=512)

    h70 = HurstParam(0.7)
    tp1 = np.linspace(0.0, 1.0, 513)
    xp1 = np.linspace(0.0, 1.0, 513)
    field_hw = drift_field(hull_white(0.01, 1.0), h70, tp1, xp1, theta_cells=512)
    gap_hw = drift_identity_check(hull_white(0.01, 1.0), h70, field_hw, 1.0, theta_cells=512)

    exact = log_expectation(ho_lee(1.0), h75, 1.0, 2.0, n_cells=512)
    eight_sevenths = abs(exact - 8.0 / 7.0)
    report(
        2, "no-arbitrage drift identity at 512 points",
        gap_flat <= 1e-6 and gap_hw <= 1e-6 and eight_sevenths <= 1e-8,
        f"(flat {gap_flat:.2e}, damped {gap_hw:.2e}, 8/7 dev {eight_sevenths:.2e})",
    )


QM_PANEL = [
    (t, T) for t in (0.25, 0.5, 1.0, 2.0, 4.0) for T in (6.0, 7.0, 7.5, 8.0)
]


def _qm_run(zero_drift: bool):
    hurst = HurstParam(0.7)
    spec = ho_lee(0.01)
    tg, xg = simulation_grids(8.0, 128, 8.0, 128)
    field = drift_for_simulation(spec, hurst, tg, xg, theta_cells=256)
    if zero_drift:
        field = field.zeroed()
    init = InitialCurve.flat(0.03, tg.dt, 257)
    maturities = sorted({T for _, T in QM_PANEL})
    batches = affine_batches(
        spec, hurst, field, init, tg, xg,
        n_paths=100_000, seed=20260808, maturities=maturities, batch_size=2000,
    )
    return check_quasi_martingale(batches, spec, hurst, QM_PANEL)


def test_criterion_3_quasi_martingale_panel():
    start = time.time()
    positive = _qm_run(zero_drift=False)
    exceed = positive.n_exceeding(3.0)

    negative = _qm_run(zero_drift=True)
    bad = [
        (pair, z)
        for pair, z in zip(negative.pairs, negative.z_scores)
        if pair[0] >= 0.5 and abs(z) <= 3.0
    ]
    elapsed = time.time() - start
    report(
        3, "quasi-martingale panel at 1e5 paths",
        exceed <= 1 and not bad and elapsed < 300.0,
        f"(|z|>3 count {exceed}, negative-control misses {len(bad)}, {elapsed:.0f}s)",
    )


def test_criterion_4_fbm_generators():
    h75 = HurstParam(0.75)
    # (a) Cholesky Gram exactness before sampling, on the generator's own factor
    grid = TimeGrid(1.0, 256)
    lower = _increment_factor(grid, h75)
    cum = np.tril(np.ones((256, 256)))
    gram_gap = np.abs(
        cum @ (lower @ lower.T) @ cum.T - fbm_covariance_matrix(grid.points[1:], h75)
    ).max()

    # (b) discrete variance of the kernel transform at the horizon;
    # resolution-matched calibration makes it exact, so the refinement
    # errors sit at rounding level and the halving bound holds with an
    # epsilon floor
    t_star = 2.0
    errors = []
    for n in (128, 256, 512):
        g = TimeGrid(t_star, n)
        scale = calibrate_kernel_scale(h75, n)
        kmat = _kernel_matrix(g, h75, scale)
        dvar = float(np.sum(kmat[-1] ** 2) * g.dt)
        errors.append(abs(dvar / t_star ** (2 * h75.h) - 1.0))
    halving = all(
        nxt <= max(prev / 2.0, 1e-10) for prev, nxt in zip(errors, errors[1:])
    )
    # empirical variance at the finest level within 3 standard errors
    driver = BrownianDriver.generate(TimeGrid(t_star, 512), 1, 10_000, seed=404)
    paths = generate_volterra(driver, h75)
    emp = paths.samples[:, 0, -1].var()
    target = t_star ** (2 * h75.h)
    emp_ok = abs(emp - target) < 3 * target * np.sqrt(2 / 10_000)

    # (c) polygonal sup-error decreases monotonically as the mesh halves
    driver2 = BrownianDriver.generate(TimeGrid(1.0, 512), 1, 1000, seed=505)
    ref = generate_volterra(driver2, h75)
    sup_errors = []
    for cf in (8, 4, 2):
        poly = generate_polygonal(driver2, h75, coarse_factor=cf)
        sup_errors.append(float(np.abs(poly.samples - ref.samples).max(axis=2).mean()))
    monotone = sup_errors[0] > sup_errors[1] > sup_errors[2]

    report(
        4, "path generator correctness",
        gram_gap <= 1e-10 and halving and emp_ok and monotone,
        f"(gram {gram_gap:.1e}, var errs {[f'{e:.1e}' for e in errors]}, "
        f"sup errs {[f'{e:.3f}' for e in sup_errors]})",
    )


def test_criterion_5_fractional_round_trip():
    hurst = HurstParam(0.7)
    grid = np.linspace(0.0, 1.0, 2049)
    tests = [np.sin(np.pi * grid), grid * (1.0 - grid), grid**2 * np.exp(-grid)]
    alphas = [0.1, 0.25, hurst.h - 0.5]
    worst_rt = 0.0
    for a in alphas:
        order = FracOrder(a)
        for g in tests:
            forward = frac_integral(SampledFunction(grid, g), order)
            back = frac_derivative(forward, order)
            worst_rt = max(worst_rt, float(np.abs(back.values - g).max()))
    worst_sg = 0.0
    for a, b in [(0.1, 0.25), (0.25, 0.2), (0.1, 0.2)]:
        for g in tests:
            lhs = frac_integral(
                frac_integral(SampledFunction(grid, g), FracOrder(b)), FracOrder(a)
            )
            rhs = frac_integral(SampledFunction(grid, g), FracOrder(a + b))
            worst_sg = max(worst_sg, float(np.abs(lhs.values - rhs.values).max()))
    report(
        5, "fractional operator round trip and semigroup at 2048 points",
        worst_rt <= 1e-3 and worst_sg <= 1e-3,
        f"(round trip {worst_rt:.1e}, semigroup {worst_sg:.1e})",
    )


def test_criterion_6_golden_verdicts():
    hurst = HurstParam(0.7)
    fam = nelson_siegel_family()
    rng = np.random.default_rng(7)
    ys = np.column_stack(
        [
            rng.uniform(0.0, 0.06, 50),
            rng.uniform(-0.03, 0.03, 50),
            rng.uniform(-0.02, 0.02, 50),
            rng.uniform(0.3, 3.0, 50),
        ]
    )
    ts = np.linspace(0.125, 1.0, 8)

    shift_ok = check_shift_condition(fam, ys).passed

    flat = check_drift_and_vol_condition(fam, ho_lee(0.01), hurst, ts, ys[:10])
    flat_witness = [w for w in flat.witnesses if w[0] == "drift linear-in-x term"]
    flat_ok = (not flat.passed) and flat_witness and flat_witness[0][3] > 0.1

    hw_full = nagumo_full_check(fam, hull_white(0.01, 1.0), hurst, ts, ys[:10])
    ys_fixed = ys[:10].copy()
    ys_fixed[:, 3] = 1.0
    fam_fixed = nelson_siegel_family(decay_fixed=1.0)
    hw_restricted = nagumo_full_check(
        fam_fixed, hull_white(0.01, 1.0), hurst, ts, ys_fixed
    )
    hw_witness = [w for w in hw_restricted.witnesses if w[0] == "drift exp(-2 a x) term"]
    hw_ok = (not hw_full.passed) and (not hw_restricted.passed) and bool(hw_witness)

    # verdict stability under doubling of the membership grid
    xs2, w2 = default_membership_grid(n=1024)
    stable = (
        check_shift_condition(fam, ys, xs=xs2, weights=w2).passed == shift_ok
        and nagumo_full_check(fam, ho_lee(0.01), hurst, ts, ys[:10], xs=xs2, weights=w2).passed
        == False
        and nagumo_full_check(
            fam_fixed, hull_white(0.01, 1.0), hurst, ts, ys_fixed, xs=xs2, weights=w2
        ).passed
        == False
    )
    report(
        6, "curve-family golden verdicts",
        shift_ok and flat_ok and hw_ok and stable,
        f"(shift pass, flat witness res {flat_witness[0][3]:.3f}, "
        f"damped witness res {hw_witness[0][3]:.3f})" if (flat_witness and hw_witness) else "",
    )


def _random_strategy_and_surface(seed: int):
    n = 8
    rng = np.random.default_rng(seed)
    tg, xg = simulation_grids(1.0, n, 1.0, n)
    prices = np.exp(rng.normal(0.0, 0.25, size=(1, n + 1, n + 1)))
    for i in range(n + 1):
        prices[0, i, :i] = np.nan
    surface = BondSurface(
        t_grid=tg, maturities=tg.points, prices=prices, discounted=prices
    )
    bounds = sorted(rng.choice(np.arange(n + 1), size=4, replace=False))
    legs = []
    for a, b in ((bounds[0], bounds[1]), (bounds[2], bounds[3])):
        t_end = tg.points[b]
        candidates = tg.points[tg.points >= t_end - 1e-12]
        T = float(rng.choice(candidates))
        legs.append(
            StrategyLeg(
                tg.points[a], t_end,
                DiscreteMeasure(((T, float(rng.uniform(-3, 3))),)),
            )
        )
    return Strategy(legs=tuple(legs), horizon=1.0), surface


def test_criterion_7_integration_by_parts_and_flat_ledger():
    worst = 0.0
    for seed in range(100):
        strategy, surface = _random_strategy_and_surface(seed)
        worst = max(worst, integration_by_parts_check(strategy, surface)[0])

    # flat unit market: buy and hold costs exactly twice the friction
    n = 16
    tg, xg = simulation_grids(1.0, n, 1.0, n)
    ones = np.ones((1, n + 1, n + 1))
    for i in range(n + 1):
        ones[0, i, :i] = np.nan
    market = BondSurface(t_grid=tg, maturities=tg.points, prices=ones, discounted=ones)
    strat = Strategy(
        legs=(StrategyLeg(0.0, 1.0, DiscreteMeasure(((1.0, 1.0),))),), horizon=1.0
    )
    exact = all(
        liquidation_value(strat, market, k=k).final_values()[0] == -2 * k
        for k in (0.001, 0.01, 0.25)
    )
    report(
        7, "pairing identity and flat-market ledger",
        worst <= 1e-10 and exact,
        f"(max residual {worst:.1e}, V = -2k exact: {exact})",
    )


def test_criterion_8_two_oracle_bond_pricing():
    h75 = HurstParam(0.75)
    spec = ho_lee(0.02)
    devs = {}
    for n in (128, 256, 512):
        tg, xg = simulation_grids(1.0, n, 1.0, n)
        field = drift_for_simulation(spec, h75, tg, xg, theta_cells=64)
        init = InitialCurve.flat(0.02, tg.dt, 2 * n + 1)
        paths = generate_cholesky(tg, 1, 3, h75, seed=4)
        surf = simulate_forward(spec, h75, field, init, paths, xg)
        direct = bond_surface(surf)
        cf = closed_form_bond(spec, h75, field, init, paths, xg)
        mask = ~np.isnan(direct.prices)
        devs[n] = float(np.abs(direct.prices[mask] / cf.prices[mask] - 1).max())
    report(
        8, "two-oracle bond pricing at 512 steps",
        devs[512] <= 1e-3 and devs[512] < devs[256] < devs[128],
        f"(devs {devs[128]:.1e} -> {devs[256]:.1e} -> {devs[512]:.1e})",
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    config = {
        "model": {"type": "ho-lee", "sigma": 0.01},
        "hurst": 0.7,
        "grids": {"t_star": 1.0, "n_steps": 64, "x_max": 1.0, "m_steps": 64},
        "initial_curve": {"type": "flat", "rate": 0.03},
        "mc": {"n_paths": 100, "seed": 42, "method": "cholesky", "batch_size": 32},
        "drift": {"theta_cells": 256},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(out, blas_threads):
        result = subprocess.run(
            [sys.executable, "-m", "fhjm.cli", "simulate", str(cfg_path),
             "--out", str(tmp_path / out)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "OPENBLAS_NUM_THREADS": blas_threads},
        )
        assert result.returncode == 0, result.stderr

    run("a", "1")
    run("b", "1")
    run("c", "2")
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        == (tmp_path / "c" / name).read_bytes()
        for name in ("paths.csv", "forward.csv", "bonds.csv")
    )
    report(9, "byte-identical CSVs across runs and thread counts", identical)
