"""Negative controls for the benchmark's output checks.

Each check must pass on genuine output of a small run of the same command
and reject a copy corrupted in one place.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from workloads import Workload, panel, portfolio, simulate_csv  # noqa: E402


def small(workload: Workload, n_steps: int, n_paths: int, batch_size: int) -> Workload:
    cfg = copy.deepcopy(workload.config)
    cfg["grids"]["n_steps"] = cfg["grids"]["m_steps"] = n_steps
    cfg["mc"]["n_paths"] = n_paths
    cfg["mc"]["batch_size"] = batch_size
    return Workload(workload.name, workload.command, cfg)


SMALL = {
    "check": small(panel(1), n_steps=32, n_paths=200, batch_size=128),
    "simulate": small(simulate_csv(1), n_steps=8, n_paths=3, batch_size=2),
    "portfolio": small(portfolio(1), n_steps=8, n_paths=60, batch_size=40),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from fhjm.cli import main

    dirs = {}
    for command, workload in SMALL.items():
        root = tmp_path_factory.mktemp(command)
        cfg = root / "config.json"
        cfg.write_text(json.dumps(workload.config))
        out = root / "out"
        assert main([command, str(cfg), "--out", str(out)]) == 0
        dirs[command] = str(out)
    return dirs


def copy_of(outputs, command: str, tmp_path) -> str:
    out = str(tmp_path / command)
    shutil.copytree(outputs[command], out)
    return out


def rewrite_csv_field(path: str, row: int, column: int, change) -> None:
    """Replace one field of data row ``row`` by ``change(value)``, 17 digits."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = f"{change(float(fields[column])):.17g}"
    lines[row + 1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", sorted(SMALL))
def test_genuine_output_passes(outputs, command):
    assert check(SMALL[command], outputs[command]) == []


def test_bond_price_perturbed_by_1e9_is_rejected(outputs, tmp_path):
    out = copy_of(outputs, "simulate", tmp_path)
    rewrite_csv_field(os.path.join(out, "bonds.csv"), row=17, column=3,
                      change=lambda p: p * (1 + 1e-9))
    errors = check(SMALL["simulate"], out)
    assert any("bonds.csv P" in e for e in errors), errors


def load_report(out: str) -> dict:
    with open(os.path.join(out, "check_report.json")) as fh:
        return json.load(fh)


def save_report(out: str, report: dict) -> None:
    with open(os.path.join(out, "check_report.json"), "w") as fh:
        json.dump(report, fh)


def test_panel_targets_shifted_by_3_standard_errors_are_rejected(outputs, tmp_path):
    out = copy_of(outputs, "check", tmp_path)
    report = load_report(out)
    for row in report["quasi_martingale"]["panel"]:
        row["target"] += 3 * row["std_error"]
    save_report(out, report)
    errors = check(SMALL["check"], out)
    assert any("targets" in e for e in errors), errors
    assert any("z-scores differ" in e for e in errors), errors


def test_panel_mean_biased_beyond_z_bound_is_rejected(outputs, tmp_path):
    out = copy_of(outputs, "check", tmp_path)
    report = load_report(out)
    row = report["quasi_martingale"]["panel"][0]
    row["mc_mean"] = row["target"] + 6 * row["std_error"]
    row["z"] = (row["mc_mean"] - row["target"]) / row["std_error"]
    save_report(out, report)
    errors = check(SMALL["check"], out)
    assert any("max |z|" in e for e in errors), errors


def test_ledger_row_breaking_the_identity_is_rejected(outputs, tmp_path):
    out = copy_of(outputs, "portfolio", tmp_path)
    rewrite_csv_field(os.path.join(out, "ledger_ladder.csv"), row=5, column=5,
                      change=lambda v: v + 1e-9)
    errors = check(SMALL["portfolio"], out)
    assert any("V = gains - cost - liquidation" in e for e in errors), errors
