"""Output checks: each command's files against values computed here.

Every check recomputes what it can from the command's own inputs and
outputs (flat-curve prices, trapezoid bond prices, money account, z-scores,
the ledger identity, total variation), or tests a property the method must
have.  None compares against a stored copy of earlier output.  Each
function returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import RATE, Workload

# Family-wise bound on panel z-scores.  Under a correct drift each z is
# close to standard normal, so P(any of 20 |z| > 5) <= 20 * 5.7e-7.  The
# program's own rule (at most one |z| > 3) fails on about 0.7 % of seeds
# with a correct drift, because pairs sharing t move together.
Z_BOUND = 5.0
IDENTITY_GAP = 1e-6
IBP_RESIDUAL = 1e-10


def _close(a, b, rtol: float, atol: float = 0.0) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= atol + rtol * np.abs(b)


def _read_csv(path: str, columns: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.size == 0:
        return np.zeros((0, columns))
    if table.shape[1] != columns:
        raise ValueError(f"{os.path.basename(path)} has {table.shape[1]} columns, not {columns}")
    return table


def check_panel(workload: Workload, out: str) -> list[str]:
    """``fhjm check`` report: targets, z-scores and the drift identity."""
    with open(os.path.join(out, "check_report.json")) as fh:
        report = json.load(fh)
    errors = []
    gap = report.get("drift_identity_max_gap")
    if not (isinstance(gap, float) and math.isfinite(gap) and gap <= IDENTITY_GAP):
        errors.append(f"drift_identity_max_gap {gap!r} is not a finite value <= {IDENTITY_GAP}")
    qm = report.get("quasi_martingale", {})
    rows = qm.get("panel", [])
    pairs = workload.config["check"]["pairs"]
    if [[r["t"], r["T"]] for r in rows] != pairs:
        return errors + [f"panel pairs {[[r['t'], r['T']] for r in rows]} != {pairs}"]
    if qm.get("n_paths") != workload.n_paths:
        errors.append(f"panel n_paths {qm.get('n_paths')} != {workload.n_paths}")
    target = np.array([r["target"] for r in rows], dtype=float)
    mean = np.array([r["mc_mean"] for r in rows], dtype=float)
    se = np.array([r["std_error"] for r in rows], dtype=float)
    z = np.array([r["z"] for r in rows], dtype=float)
    maturities = np.array([T for _, T in pairs])
    if not np.all(_close(target, np.exp(-RATE * maturities), 0.0, 1e-12)):
        errors.append("panel targets differ from exp(-r T) by more than 1e-12")
    if not (np.all(np.isfinite(se)) and np.all(se > 0)):
        errors.append("panel standard errors are not finite and positive")
    if np.any(np.isnan(z)):
        errors.append("panel z-scores contain NaN")
    elif not np.all(_close(z, (mean - target) / se, 1e-9, 1e-8)):
        errors.append("panel z-scores differ from (mc_mean - target) / std_error")
    elif np.max(np.abs(z)) > Z_BOUND:
        errors.append(f"panel max |z| = {np.max(np.abs(z)):.3f} exceeds {Z_BOUND}")
    return errors


def check_simulate(workload: Workload, out: str) -> list[str]:
    """``fhjm simulate`` CSVs: bond prices and discounting recomputed from the rates."""
    g = workload.grids
    n, m, n_paths = g["n_steps"], g["m_steps"], workload.n_paths
    dt = g["t_star"] / n
    t_pts = np.linspace(0.0, g["t_star"], n + 1)
    x_pts = np.linspace(0.0, g["x_max"], m + 1)
    errors = []

    paths = _read_csv(os.path.join(out, "paths.csv"), 4)
    if paths.shape[0] != n_paths * (n + 1):
        return [f"paths.csv has {paths.shape[0]} rows, expected {n_paths * (n + 1)}"]
    paths = paths.reshape(n_paths, n + 1, 4)
    if not np.array_equal(paths[:, :, 0], np.repeat(np.arange(n_paths)[:, None], n + 1, 1)):
        errors.append("paths.csv path ids out of order")
    if not np.all(paths[:, 0, 3] == 0.0):
        errors.append("a path does not start at 0")

    fwd = _read_csv(os.path.join(out, "forward.csv"), 4)
    if fwd.shape[0] != n_paths * (n + 1) * (m + 1):
        return errors + [f"forward.csv has {fwd.shape[0]} rows, "
                         f"expected {n_paths * (n + 1) * (m + 1)}"]
    fwd = fwd.reshape(n_paths, n + 1, m + 1, 4)
    if not (np.array_equal(fwd[0, :, 0, 1], t_pts) and np.array_equal(fwd[0, 0, :, 2], x_pts)):
        errors.append("forward.csv (t, x) columns are not the grids")
    r = fwd[..., 3]
    if not np.all(_close(r[:, 0, :], RATE, 1e-15)):
        errors.append(f"r(0, x) differs from the initial curve {RATE}")

    bonds = _read_csv(os.path.join(out, "bonds.csv"), 5)
    i_tri, t_tri = np.triu_indices(n + 1)  # (t_i, T_j) with j >= i, in writing order
    if bonds.shape[0] != n_paths * i_tri.size:
        return errors + [f"bonds.csv has {bonds.shape[0]} rows, "
                         f"expected {n_paths * i_tri.size}"]
    p_idx = np.repeat(np.arange(n_paths), i_tri.size)
    i_idx = np.tile(i_tri, n_paths)
    t_idx = np.tile(t_tri, n_paths)
    if not (np.array_equal(bonds[:, 0], p_idx) and np.array_equal(bonds[:, 1], t_pts[i_idx])
            and np.array_equal(bonds[:, 2], t_pts[t_idx])):
        errors.append("bonds.csv (path, t, T) rows are not the triangular grid in order")

    # P(t_i, T_j) = exp(-trapezoid of r_{t_i} over [0, T_j - t_i])
    cum = np.zeros((n_paths, n + 1, m + 1))
    cum[:, :, 1:] = np.cumsum(0.5 * (r[:, :, 1:] + r[:, :, :-1]) * dt, axis=2)
    price = np.exp(-cum[p_idx, i_idx, t_idx - i_idx])
    short = r[:, :, 0]
    account = np.ones((n_paths, n + 1))
    account[:, 1:] = np.exp(np.cumsum(0.5 * (short[:, 1:] + short[:, :-1]) * dt, axis=1))
    discounted = price / account[p_idx, i_idx]
    if not np.all(bonds[i_idx == t_idx, 3] == 1.0):
        errors.append("P(t, t) != 1")
    if not np.all(_close(bonds[:, 3], price, 1e-12)):
        errors.append("bonds.csv P differs from the trapezoid of forward.csv by more than 1e-12")
    if not np.all(_close(bonds[:, 4], discounted, 1e-12)):
        errors.append("bonds.csv Z differs from P / S0 by more than 1e-12")
    return errors


def _total_variation(legs: list, horizon: float) -> float:
    """Jumps of piecewise-constant holdings: open, each rebalance, close.

    Gates count as firing, as in the program's bound over realizations.
    """
    tv, prev, prev_end = 0.0, {}, None
    for leg in sorted(legs, key=lambda leg: leg["from"]):
        cur = {}
        for atom in leg["atoms"]:
            cur[atom["T"]] = cur.get(atom["T"], 0.0) + atom["w"]
        if prev_end is not None and leg["from"] > prev_end + 1e-12:
            tv += sum(abs(w) for w in prev.values())
            prev = {}
        tv += sum(abs(cur.get(k, 0.0) - prev.get(k, 0.0)) for k in set(prev) | set(cur))
        prev, prev_end = cur, leg["to"]
    if prev_end is not None and prev_end < horizon - 1e-12:
        tv += sum(abs(w) for w in prev.values())
    return tv


def check_portfolio(workload: Workload, out: str) -> list[str]:
    """``fhjm portfolio``: ledger identity, linearity in k, zero-mean gains."""
    cfg = workload.config
    n, n_paths = cfg["grids"]["n_steps"], workload.n_paths
    t_star = cfg["grids"]["t_star"]
    ks = cfg["costs"]["k"]
    with open(os.path.join(out, "portfolio_summary.json")) as fh:
        summary = json.load(fh)
    errors = []
    for strategy in cfg["strategies"]:
        name = strategy["name"]
        s = summary.get(name)
        if s is None:
            errors.append(f"portfolio_summary.json has no strategy {name!r}")
            continue
        if not s["ibp_residual_max"] <= IBP_RESIDUAL:
            errors.append(f"{name}: ibp_residual_max {s['ibp_residual_max']} > {IBP_RESIDUAL}")
        tv = _total_variation(strategy["legs"], t_star)
        if not math.isclose(s["total_variation"], tv, rel_tol=1e-12):
            errors.append(f"{name}: total_variation {s['total_variation']} != {tv}")
        means = np.array([s["final_value"][f"{k:g}"]["mean"] for k in ks])
        scale = np.max(np.abs(means)) + 1e-300
        slope = (means[-1] - means[0]) / (ks[-1] - ks[0])
        linear = means[0] + slope * (np.array(ks) - ks[0])
        if not np.all(np.abs(means - linear) <= 1e-12 * scale):
            errors.append(f"{name}: mean final value is not linear in k: {means.tolist()}")

        ledger = _read_csv(os.path.join(out, f"ledger_{name}.csv"), 6)
        if ledger.shape[0] != n_paths * (n + 1):
            errors.append(f"ledger_{name}.csv has {ledger.shape[0]} rows, "
                          f"expected {n_paths * (n + 1)}")
            continue
        ledger = ledger.reshape(n_paths, n + 1, 6)
        gains, cost, liq, value = (ledger[..., c] for c in (2, 3, 4, 5))
        if not np.all(_close(value, gains - cost - liq, 1e-13, 1e-15)):
            errors.append(f"{name}: a ledger row breaks V = gains - cost - liquidation")
        if not np.all(value[:, 0] == 0.0):
            errors.append(f"{name}: V(0) != 0")
        if not math.isclose(value[:, -1].mean(), means[-1], rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"{name}: ledger mean final V differs from the summary at k={ks[-1]:g}")
        if all(leg.get("gate", {"kind": "always"})["kind"] == "always"
               for leg in strategy["legs"]):
            final = gains[:, -1]
            z = final.mean() / (final.std(ddof=1) / math.sqrt(n_paths))
            if not abs(z) <= Z_BOUND:
                errors.append(f"{name}: mean final gains {final.mean():.3e} has z = {z:.2f}")
    return errors


CHECKS = {"check": check_panel, "simulate": check_simulate, "portfolio": check_portfolio}


def check(workload: Workload, out: str) -> list[str]:
    """All checks for one command's output directory."""
    try:
        return CHECKS[workload.command](workload, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
