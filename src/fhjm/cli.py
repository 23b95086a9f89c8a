"""Command-line frontend: reproducible experiments from a JSON config.

Subcommands:

    fhjm simulate    <config>   forward/bond/discounted CSVs + run manifest
    fhjm drift       <config>   drift-field CSV + closed-form comparison table
    fhjm check       <config>   drift identity, panel z-scores, oscillation probe
    fhjm consistency <config>   curve-family tangency verdicts (exit 0 either way)
    fhjm portfolio   <config>   strategy ledgers and summary statistics

Common flags: ``--out DIR`` (or env FHJM_OUT_DIR), ``--seed`` and
``--paths`` overrides.  Exit status: 0 on success, 1 on config errors,
2 on runtime failures.  A failed ``check`` verification is a result, not a
failure: exit 0 with a line on stdout, the pass flags in
``check_report.json``.  The panel rule (at most one |z| > 3) fails on about
0.7 % of seeds with a correct drift, so a distinct code would mark correct
runs as failed.  Every command writes ``manifest.json`` capturing
the resolved config, its hash, the seed and library versions; rerunning
the same config byte-reproduces every output, whatever the batch size or
the BLAS thread count.  ``main`` freezes the garbage-collected heap when the
interpreter exits, so a command ends without teardown walking and freeing
every module's objects, about 10 ms of each run.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import platform
import sys
from contextlib import ExitStack

import numpy as np

from .config import ConfigError, ExperimentConfig

__all__ = ["main"]


def _out_dir(args) -> str:
    out = args.out or os.environ.get("FHJM_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _scipy_version() -> str:
    """``scipy.__version__``, read from ``scipy/version.py`` without importing scipy.

    A bare ``import scipy`` costs about 14 ms and 21 modules; ``version.py``
    imports nothing, and scipy's own ``__version__`` is taken from it.
    """
    import importlib.util

    root = list(importlib.util.find_spec("scipy").submodule_search_locations)[0]
    path = os.path.join(root, "version.py")
    spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _write_manifest(out: str, command: str, cfg: ExperimentConfig, outputs: list) -> None:
    from . import __version__

    manifest = {
        "command": command,
        "config_sha256": cfg.sha256(),
        "config": cfg.raw,
        "seed": cfg.seed,
        "n_paths": cfg.n_paths,
        "outputs": outputs,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "fhjm": __version__,
        },
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _build_drift(cfg: ExperimentConfig):
    from .hjm import drift_for_simulation

    return drift_for_simulation(
        cfg.model, cfg.hurst, cfg.t_grid, cfg.x_grid, theta_cells=cfg.theta_cells
    )


def _run(pipeline, cfg: ExperimentConfig, drift, **kwargs):
    """The config's Monte Carlo batches from ``pipeline``.

    ``pipeline`` is ``hjm.simulate_batches`` (whole surfaces, for
    ``simulate``), ``hjm.affine_draws`` (pair prices and time rows of Z from
    one draw, for ``check``'s panel and probe) or ``hjm.affine_batches``
    (the same draw's rows gathered into whole Z surfaces, for the ledgers);
    ``kwargs`` pass through.
    """
    return pipeline(
        cfg.model, cfg.hurst, drift, cfg.initial_curve, cfg.t_grid, cfg.x_grid,
        n_paths=cfg.n_paths, seed=cfg.seed, batch_size=cfg.batch_size, method=cfg.method,
        **kwargs,
    )


def _require_sampler(cfg: ExperimentConfig) -> None:
    """A ConfigError, before any compute, when ``mc.method`` cannot draw on ``grids.n_steps``."""
    from .fbm import MAX_CHOLESKY_STEPS

    if cfg.method == "cholesky" and cfg.t_grid.n_steps > MAX_CHOLESKY_STEPS:
        raise ConfigError(
            f"grids.n_steps = {cfg.t_grid.n_steps} exceeds {MAX_CHOLESKY_STEPS}, the most "
            f"that mc.method 'cholesky' draws on; use 'volterra' or a coarser grid"
        )


def cmd_simulate(cfg: ExperimentConfig, out: str) -> list:
    from .fbm import write_paths_csv
    from .hjm import simulate_batches, write_bond_csv, write_forward_csv

    _require_sampler(cfg)
    batches = _run(simulate_batches, cfg, _build_drift(cfg))
    with (
        open(os.path.join(out, "paths.csv"), "w") as fh_paths,
        open(os.path.join(out, "forward.csv"), "w") as fh_fwd,
        open(os.path.join(out, "bonds.csv"), "w") as fh_bond,
    ):
        for offset, paths, surface, discounted in batches:
            first = offset == 0
            write_paths_csv(paths, fh_paths, offset=offset, header=first)
            write_forward_csv(surface, fh_fwd, offset=offset, header=first)
            write_bond_csv(discounted, fh_bond, offset=offset, header=first)
            del paths, surface, discounted  # freed before the next batch is built
    return ["paths.csv", "forward.csv", "bonds.csv"]


def cmd_drift(cfg: ExperimentConfig, out: str) -> list:
    from .drift import ho_lee_drift, hull_white_drift, write_drift_csv
    from .vol import ExpDecayVol, FlatVol

    drift = _build_drift(cfg)
    with open(os.path.join(out, "drift.csv"), "w") as fh:
        write_drift_csv(drift, fh)
    summary = {"rows": int(drift.values.shape[0]), "columns": int(drift.values.shape[1])}
    if cfg.model.dims == 1 and isinstance(cfg.model.factors[0], (FlatVol, ExpDecayVol)):
        factor = cfg.model.factors[0]
        tt = drift.t_points[:, None]
        xx = drift.x_points[None, :]
        if isinstance(factor, FlatVol):
            closed = ho_lee_drift(factor.sigma, cfg.hurst, tt, xx)
        else:
            closed = hull_white_drift(factor.sigma, factor.decay, cfg.hurst, tt, xx)
        rel = np.abs(drift.values - closed) / np.maximum(np.abs(closed), 1e-30)
        rel[0] = 0.0
        summary["max_relative_error_vs_closed_form"] = float(rel.max())
    for key, value in summary.items():
        if not np.isfinite(value):
            raise ValueError(f"non-finite value in drift_summary.json key {key!r}")
    with open(os.path.join(out, "drift_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return ["drift.csv", "drift_summary.json"]


# what ``cmd_check`` passes: the drift identity within a gap of 1e-6, and at
# most one panel pair with |z| above 3; recorded in every report with pairs
CHECK_THRESHOLDS = {"drift_identity_max_gap": 1e-6, "z_level": 3.0, "z_exceedances_max": 1}


def _probe_rows(draws, kept: list):
    """The probe's rows of each draw, with the draw's pair prices (if any) added to ``kept``."""
    for prices, rows in draws:
        if prices is not None:
            kept.append(prices)
        yield rows


def cmd_check(cfg: ExperimentConfig, out: str) -> tuple[list, bool]:
    from .hjm import affine_draws
    from .noarb import check_quasi_martingale, drift_identity_check, oscillation_probe

    report: dict = {}
    ok = True
    pairs, osc = cfg.pairs, cfg.oscillation
    if not pairs and osc is None:
        with open(os.path.join(out, "check_report.json"), "w") as fh:
            json.dump({}, fh, indent=2)
        return ["check_report.json"], True

    _require_sampler(cfg)
    drift = _build_drift(cfg)
    # one draw per path: the panel reads its pair prices, and the probe the
    # rows of every time-grid maturity, where Z_tau(tau) sits on the diagonal
    draws = _run(affine_draws, cfg, drift, pairs=pairs,
                 row_maturities=None if osc is None else cfg.t_grid.points)
    if osc is not None:
        kept = []  # the panel's prices wait for it while the probe streams the rows
        probe = oscillation_probe(_probe_rows(draws, kept), osc["thresholds"], osc["taus"])
        report["oscillation"] = probe.to_dict()
        draws = kept
    else:
        draws = (prices for prices, _ in draws)

    if pairs:
        maturities = sorted({T for _, T in pairs})
        gap = drift_identity_check(
            cfg.model, cfg.hurst, drift, maturities, theta_cells=cfg.theta_cells
        )
        report["thresholds"] = CHECK_THRESHOLDS
        report["drift_identity_max_gap"] = gap
        report["drift_identity_pass"] = bool(gap <= CHECK_THRESHOLDS["drift_identity_max_gap"])
        ok = ok and report["drift_identity_pass"]

        qm = check_quasi_martingale(draws, cfg.model, cfg.hurst, pairs, drift=drift)
        report["quasi_martingale"] = qm.to_dict()
        report["quasi_martingale_pass"] = bool(
            np.all(np.isfinite(qm.z_scores))
            and qm.n_exceeding(CHECK_THRESHOLDS["z_level"]) <= CHECK_THRESHOLDS["z_exceedances_max"]
        )
        ok = ok and report["quasi_martingale_pass"]

    with open(os.path.join(out, "check_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return ["check_report.json"], ok


def cmd_consistency(cfg: ExperimentConfig, out: str) -> list:
    from .consistency import (
        default_membership_grid,
        nagumo_full_check,
        nelson_siegel_family,
    )

    block = cfg.consistency
    decay_fixed = block["decay_fixed"]
    family = nelson_siegel_family(decay_fixed=decay_fixed)
    n_t = block["t_samples"]
    rng = np.random.default_rng(block["seed"])
    ys = np.column_stack([rng.uniform(lo, hi, block["y_samples"]) for lo, hi in block["y_box"]])
    if decay_fixed is not None:
        ys[:, 3] = decay_fixed
    ts = np.linspace(cfg.t_grid.t_star / n_t, cfg.t_grid.t_star, n_t)
    zero_vol = block["zero_volatility"]
    spec = None if zero_vol else cfg.model
    xs, w = default_membership_grid(n=block["x_nodes"])
    verdict = nagumo_full_check(family, spec, cfg.hurst, ts, ys, xs=xs, weights=w)
    xs2, w2 = default_membership_grid(n=2 * block["x_nodes"])
    verdict2 = nagumo_full_check(family, spec, cfg.hurst, ts, ys, xs=xs2, weights=w2)
    label = "consistent (trivial)" if (verdict.passed and zero_vol) else (
        "consistent" if verdict.passed else "inconsistent"
    )
    payload = {
        "family": family.name,
        "verdict": label,
        "stable_under_grid_doubling": bool(verdict.passed == verdict2.passed),
        "detail": verdict.to_dict(),
    }
    with open(os.path.join(out, "consistency_report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return ["consistency_report.json"]


def _quantiles(values: np.ndarray, qs) -> list:
    """``float(np.quantile(values, q))`` for each q, bit for bit.

    numpy's ``'linear'`` rule, step for step: virtual index (n - 1) * q, a
    partition of a copy on numpy's own pivots (a sort could order -0.0 and
    0.0 the other way), then ``_lerp``'s two-branch interpolation, which
    works back from the upper neighbour when the fraction is at least 1/2.
    ``np.quantile`` itself loads ``numpy.ma``, tens of milliseconds per run.
    """
    last = values.size - 1
    out = []
    for q in qs:
        index = last * q
        # at the top numpy reads the last value twice, index -1, and still interpolates
        below, above = (math.floor(index), math.floor(index) + 1) if index < last else (-1, -1)
        part = np.partition(values, sorted({0, -1, below, above}))
        if np.isnan(part[-1]):
            out.append(float(part[-1]))
            continue
        a, b = part[below], part[above]
        t = index - below
        diff = b - a
        out.append(float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t))
    return out


def cmd_portfolio(cfg: ExperimentConfig, out: str) -> list:
    from .ledger import (
        holdings,
        integration_by_parts_check,
        liquidation_value,
        total_variation,
        write_ledger_csv,
    )
    from .hjm import affine_batches

    if not cfg.strategies:
        raise ConfigError("portfolio command needs a 'strategies' block")
    names, strategies = list(cfg.strategies), list(cfg.strategies.values())
    finals = [{f"{k:g}": [] for k in cfg.cost_levels} for _ in names]
    residuals = [[] for _ in names]
    floors = [[] for _ in names]
    outputs = [f"ledger_{name}.csv" for name in names]
    # the ledger reads only the atom and threshold-gate maturity columns
    maturities = sorted(
        {T for strategy in strategies for leg in strategy.legs for T, _ in leg.measure.atoms}
        | {leg.gate.maturity for strategy in strategies for leg in strategy.legs
           if leg.gate.kind == "threshold"}
    )
    _require_sampler(cfg)
    batches = _run(affine_batches, cfg, _build_drift(cfg), maturities=maturities)
    offset = 0
    with ExitStack() as stack:
        files = [stack.enter_context(open(os.path.join(out, f), "w")) for f in outputs]
        for surface in batches:
            for s_i, (strategy, fh) in enumerate(zip(strategies, files)):
                # one holdings series and one ledger per strategy and batch;
                # each cost level only reprices V
                series = holdings(strategy, surface)
                residuals[s_i].append(integration_by_parts_check(strategy, series))
                ledger = liquidation_value(strategy, series, k=cfg.cost_levels[0])
                del series  # freed before the ledger is repriced and written
                for k in cfg.cost_levels:
                    res = ledger.at(k)
                    finals[s_i][f"{k:g}"].append(res.final_values())
                floors[s_i].append(res.admissibility_floor())
                write_ledger_csv(res, fh, offset=offset, header=offset == 0)
            offset += surface.n_paths
            del surface  # freed before the next batch is built
    summary = {}
    for s_i, name in enumerate(names):
        values = {k: np.concatenate(v) for k, v in finals[s_i].items()}
        summary[name] = {
            "total_variation": total_variation(strategies[s_i]),
            "ibp_residual_max": float(np.max(np.concatenate(residuals[s_i]))),
            "admissibility_violations": int(
                np.sum(np.concatenate(floors[s_i]) < -cfg.admissibility_bound)
            ),
            "final_value": {
                k: {"mean": float(np.mean(v)),
                    **dict(zip(("q05", "q50", "q95"), _quantiles(v, (0.05, 0.50, 0.95))))}
                for k, v in values.items()
            },
        }
    with open(os.path.join(out, "portfolio_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    outputs.append("portfolio_summary.json")
    return outputs


# set by the first ``main`` call; unregistering and registering again on each
# call would leave an empty slot in atexit's callback array every time
_freeze_registered = False


def main(argv=None) -> int:
    """Run one ``fhjm`` command; the exit status of the contract above.

    ``gc.freeze`` is registered, once per process, to run at interpreter
    exit: teardown's collections then skip every object alive at exit,
    and the OS takes the memory back.  Every other exit handler still runs
    and the streams are still flushed; each output file is closed before
    ``main`` returns.  Nothing is frozen while the process lives on.
    """
    global _freeze_registered
    if not _freeze_registered:  # once per process, however often main runs
        atexit.register(gc.freeze)
        _freeze_registered = True
    parser = argparse.ArgumentParser(
        prog="fhjm",
        description="Forward-rate Monte Carlo engine for long-memory Gaussian term structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "drift", "check", "consistency", "portfolio"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (or env FHJM_OUT_DIR)")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--paths", type=int, default=None, help="override mc.n_paths")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.load(args.config)
        for key, value, flag in (("mc.seed", args.seed, "--seed"),
                                 ("mc.n_paths", args.paths, "--paths")):
            if value is not None:
                cfg.override(key, value, flag)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = _out_dir(args)
    try:
        ok = True
        if args.command == "simulate":
            outputs = cmd_simulate(cfg, out)
        elif args.command == "drift":
            outputs = cmd_drift(cfg, out)
        elif args.command == "check":
            outputs, ok = cmd_check(cfg, out)
        elif args.command == "consistency":
            outputs = cmd_consistency(cfg, out)
        else:
            outputs = cmd_portfolio(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime / numerics failure contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out, args.command, cfg, sorted(outputs) + ["manifest.json"])
    if args.command == "check" and not ok:
        print("check: one or more verifications failed (see check_report.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
