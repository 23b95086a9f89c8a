"""Workload configs, generated from the benchmark seed.

Each workload is one ``fhjm`` command on one JSON config.  The seed picks
the Monte Carlo seed and, where the workload has them, volatility-table
coefficients and strategy weights; it never changes grid sizes, path
counts or pair lists, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RATE = 0.03  # flat initial forward curve of every workload
HURST = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fhjm subcommand
    config: dict

    @property
    def n_paths(self) -> int:
        return self.config["mc"]["n_paths"]

    @property
    def grids(self) -> dict:
        return self.config["grids"]


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def panel(seed: int) -> Workload:
    """Acceptance-panel shape: 20 pairs read off full Monte Carlo surfaces."""
    rng = random.Random(f"panel-{seed}")
    pairs = [[t, T] for t in (0.25, 0.5, 1.0, 2.0, 4.0) for T in (6.0, 7.0, 7.5, 8.0)]
    return Workload("panel", "check", {
        "model": {"type": "ho-lee", "sigma": 0.01},
        "hurst": HURST,
        "grids": {"t_star": 8.0, "n_steps": 128, "x_max": 8.0, "m_steps": 128},
        "initial_curve": {"type": "flat", "rate": RATE},
        "mc": {"n_paths": 6000, "seed": _mc_seed(rng), "method": "cholesky",
               "batch_size": 2000},
        "check": {"pairs": pairs},
    })


def tabulated_check(seed: int) -> Workload:
    """One tabulated factor, linear in t and x, on small grids.

    The 9 x 17 table spans t in [0, t_star] and x in [0, x_max + 2 t_star],
    every argument the drift asks for, so the bilinear interpolant is the
    linear function itself and no query is extrapolated.
    """
    rng = random.Random(f"tabulated_check-{seed}")
    base = rng.uniform(0.008, 0.012)
    slope_t = rng.uniform(0.0, 0.002)
    slope_x = rng.uniform(-0.0005, 0.001)
    t_grid = [0.25 * i for i in range(9)]
    x_grid = [0.375 * i for i in range(17)]
    values = [[base + slope_t * t + slope_x * x for x in x_grid] for t in t_grid]
    return Workload("tabulated_check", "check", {
        "model": {"type": "tabulated", "t_grid": t_grid, "x_grid": x_grid,
                  "values": values},
        "hurst": HURST,
        "grids": {"t_star": 2.0, "n_steps": 16, "x_max": 2.0, "m_steps": 16},
        "initial_curve": {"type": "flat", "rate": RATE},
        "mc": {"n_paths": 2000, "seed": _mc_seed(rng), "method": "cholesky",
               "batch_size": 2000},
        "drift": {"theta_cells": 64},
        "check": {"pairs": [[0.5, 1.0], [1.0, 1.5], [1.5, 2.0], [0.25, 2.0]]},
    })


def simulate_csv(seed: int) -> Workload:
    """Smoke grids through ``simulate``: every path, rate and bond price to CSV."""
    rng = random.Random(f"simulate_csv-{seed}")
    return Workload("simulate_csv", "simulate", {
        "model": {"type": "ho-lee", "sigma": 0.01},
        "hurst": HURST,
        "grids": {"t_star": 1.0, "n_steps": 64, "x_max": 1.0, "m_steps": 64},
        "initial_curve": {"type": "flat", "rate": RATE},
        "mc": {"n_paths": 96, "seed": _mc_seed(rng), "method": "volterra",
               "batch_size": 64},
    })


def portfolio(seed: int) -> Workload:
    """Hull-White ledgers: an always-on ladder and a threshold-gated leg."""
    rng = random.Random(f"portfolio-{seed}")
    w = [round(rng.uniform(0.5, 1.5), 6) for _ in range(4)]
    return Workload("portfolio", "portfolio", {
        "model": {"type": "hull-white", "sigma": 0.01, "decay": 0.5},
        "hurst": HURST,
        "grids": {"t_star": 2.0, "n_steps": 128, "x_max": 2.0, "m_steps": 128},
        "initial_curve": {"type": "flat", "rate": RATE},
        "mc": {"n_paths": 200, "seed": _mc_seed(rng), "method": "cholesky",
               "batch_size": 2000},
        "strategies": [
            {"name": "ladder", "legs": [
                {"from": 0.0, "to": 1.0, "atoms": [
                    {"T": 1.0, "w": w[0]}, {"T": 1.5, "w": w[1]}, {"T": 2.0, "w": w[2]}]},
                {"from": 1.0, "to": 2.0, "atoms": [{"T": 2.0, "w": w[3]}]},
            ]},
            {"name": "gated", "legs": [
                {"from": 0.5, "to": 2.0, "atoms": [{"T": 2.0, "w": 1.0}],
                 "gate": {"kind": "threshold", "maturity": 2.0, "op": "<=",
                          "level": 0.9418}},
            ]},
        ],
        "costs": {"k": [0.0, 0.005, 0.01], "admissibility_bound": 10.0},
    })


WORKLOADS = {f.__name__: f for f in (panel, tabulated_check, simulate_csv, portfolio)}
