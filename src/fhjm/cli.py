"""Command-line frontend: reproducible experiments from a JSON config.

Subcommands:

    fhjm simulate    <config>   forward/bond/discounted CSVs + run manifest
    fhjm drift       <config>   drift-field CSV + closed-form comparison table
    fhjm check       <config>   drift identity, panel z-scores, oscillation probe
    fhjm consistency <config>   curve-family tangency verdicts (exit 0 either way)
    fhjm portfolio   <config>   strategy ledgers and summary statistics

Common flags: ``--out DIR`` (or env FHJM_OUT_DIR), ``--seed`` and
``--paths`` overrides.  Exit status: 0 on success, 1 on config errors,
2 on runtime failures.  Every command writes ``manifest.json`` capturing
the resolved config, its hash, the seed and library versions; rerunning
the same config byte-reproduces every output, whatever the batch size or
the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
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


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.paths is not None:
        cfg.set_paths(args.paths, "--paths")
    return cfg


def _write_manifest(out: str, command: str, cfg: ExperimentConfig, outputs: list) -> None:
    import scipy

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
            "scipy": scipy.__version__,
            "fhjm": __version__,
        },
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _build_drift(cfg: ExperimentConfig):
    from .hjm import drift_for_simulation

    tg, xg = cfg.grids()
    return drift_for_simulation(cfg.model, cfg.hurst, tg, xg, theta_cells=cfg.theta_cells)


def _run(pipeline, cfg: ExperimentConfig, drift, **kwargs):
    """The config's Monte Carlo batches from ``pipeline``.

    ``pipeline`` is ``hjm.simulate_batches`` or
    ``noarb.simulate_discounted_batches``; ``kwargs`` (its ``maturities``)
    pass through.
    """
    tg, xg = cfg.grids()
    return pipeline(
        cfg.model, cfg.hurst, drift, cfg.build_initial_curve(), tg, xg,
        n_paths=cfg.n_paths, seed=cfg.seed, batch_size=cfg.batch_size, method=cfg.method,
        **kwargs,
    )


def cmd_simulate(cfg: ExperimentConfig, out: str) -> list:
    from .fbm import write_paths_csv
    from .hjm import simulate_batches, write_bond_csv, write_forward_csv

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
    with open(os.path.join(out, "drift_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return ["drift.csv", "drift_summary.json"]


# what ``cmd_check`` passes: the drift identity within a gap of 1e-6, and at
# most one panel pair with |z| above 3; recorded in every report with pairs
CHECK_THRESHOLDS = {"drift_identity_max_gap": 1e-6, "z_level": 3.0, "z_exceedances_max": 1}


def cmd_check(cfg: ExperimentConfig, out: str) -> tuple[list, bool]:
    from .noarb import (
        check_quasi_martingale,
        drift_identity_check,
        oscillation_probe,
        simulate_discounted_batches,
    )

    report: dict = {}
    ok = True
    pairs = [tuple(map(float, p)) for p in cfg.check_block.get("pairs", [])]
    osc = cfg.check_block.get("oscillation", {})
    if not pairs and not osc:
        with open(os.path.join(out, "check_report.json"), "w") as fh:
            json.dump({}, fh, indent=2)
        return ["check_report.json"], True

    drift = _build_drift(cfg)

    if pairs:
        maturities = sorted({T for _, T in pairs})
        gap = max(
            drift_identity_check(cfg.model, cfg.hurst, drift, T, theta_cells=cfg.theta_cells)
            for T in maturities
        )
        report["thresholds"] = CHECK_THRESHOLDS
        report["drift_identity_max_gap"] = gap
        report["drift_identity_pass"] = bool(gap <= CHECK_THRESHOLDS["drift_identity_max_gap"])
        ok = ok and report["drift_identity_pass"]

        qm = check_quasi_martingale(
            _run(simulate_discounted_batches, cfg, drift, maturities=maturities),
            cfg.model, cfg.hurst, pairs, drift=drift,
        )
        report["quasi_martingale"] = json.loads(qm.to_json())
        report["quasi_martingale_pass"] = bool(
            np.all(np.isfinite(qm.z_scores))
            and qm.n_exceeding(CHECK_THRESHOLDS["z_level"]) <= CHECK_THRESHOLDS["z_exceedances_max"]
        )
        ok = ok and report["quasi_martingale_pass"]

    if osc:
        taus = [float(t) for t in osc.get("taus", [0.0])]
        thresholds = [float(k) for k in osc.get("thresholds", [0.05])]
        probe = oscillation_probe(
            _run(simulate_discounted_batches, cfg, drift), thresholds, taus
        )
        report["oscillation"] = json.loads(probe.to_json())

    with open(os.path.join(out, "check_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return ["check_report.json"], ok


def cmd_consistency(cfg: ExperimentConfig, out: str) -> list:
    from .consistency import (
        default_membership_grid,
        nagumo_full_check,
        nelson_siegel_family,
    )

    block = cfg.consistency_block  # typed and defaulted by the config
    decay_fixed = block["decay_fixed"]
    family = nelson_siegel_family(decay_fixed=decay_fixed)
    n_t = block["t_samples"]
    rng = np.random.default_rng(block["seed"])
    ys = np.column_stack([rng.uniform(lo, hi, block["y_samples"]) for lo, hi in block["y_box"]])
    if decay_fixed is not None:
        ys[:, 3] = decay_fixed
    ts = np.linspace(cfg.t_star / n_t, cfg.t_star, n_t)
    zero_vol = block["zero_volatility"]
    spec = None if zero_vol else cfg.model
    verdict = nagumo_full_check(family, spec, cfg.hurst, ts, ys)
    xs2, w2 = default_membership_grid(n=2 * block["x_nodes"])
    verdict2 = nagumo_full_check(family, spec, cfg.hurst, ts, ys, xs=xs2, weights=w2)
    label = "consistent (trivial)" if (verdict.passed and zero_vol) else (
        "consistent" if verdict.passed else "inconsistent"
    )
    payload = {
        "family": family.name,
        "verdict": label,
        "stable_under_grid_doubling": bool(verdict.passed == verdict2.passed),
        "detail": json.loads(verdict.to_json()),
    }
    with open(os.path.join(out, "consistency_report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return ["consistency_report.json"]


def cmd_portfolio(cfg: ExperimentConfig, out: str) -> list:
    from .ledger import (
        integration_by_parts_check,
        liquidation_value,
        total_variation,
        write_ledger_csv,
    )
    from .noarb import simulate_discounted_batches

    if not cfg.strategies:
        raise ConfigError("portfolio command needs a 'strategies' block")
    names = [block.get("name", f"strategy_{s_i}") for s_i, block in enumerate(cfg.strategies)]
    if len(set(names)) != len(names):
        raise ConfigError(f"strategies need distinct names, got {names}")
    strategies = [cfg.build_strategy(block) for block in cfg.strategies]
    finals = [{f"{k:g}": [] for k in cfg.cost_levels} for _ in names]
    residuals = [[] for _ in names]
    floors = [[] for _ in names]
    outputs = [f"ledger_{name}.csv" for name in names]
    # the ledger reads only the atom and threshold-gate maturity columns
    maturities = sorted(
        {T for strategy in strategies for leg in strategy.legs for T, _ in leg.measure.atoms}
        | {float(leg.gate.maturity) for strategy in strategies for leg in strategy.legs
           if leg.gate.kind == "threshold"}
    )
    batches = _run(simulate_discounted_batches, cfg, _build_drift(cfg), maturities=maturities)
    offset = 0
    with ExitStack() as stack:
        files = [stack.enter_context(open(os.path.join(out, f), "w")) for f in outputs]
        for surface in batches:
            for s_i, (strategy, fh) in enumerate(zip(strategies, files)):
                residuals[s_i].append(integration_by_parts_check(strategy, surface))
                for k in cfg.cost_levels:
                    res = liquidation_value(strategy, surface, k=k)
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
                k: {
                    "mean": float(np.mean(v)),
                    "q05": float(np.quantile(v, 0.05)),
                    "q50": float(np.quantile(v, 0.50)),
                    "q95": float(np.quantile(v, 0.95)),
                }
                for k, v in values.items()
            },
        }
    with open(os.path.join(out, "portfolio_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    outputs.append("portfolio_summary.json")
    return outputs


def main(argv=None) -> int:
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
        cfg = _apply_overrides(cfg, args)
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
