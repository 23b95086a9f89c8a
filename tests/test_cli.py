import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd, extra_env=None):
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "fhjm.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def smoke_config(**overrides):
    cfg = {
        "model": {"type": "ho-lee", "sigma": 0.01},
        "hurst": 0.7,
        "grids": {"t_star": 1.0, "n_steps": 64, "x_max": 1.0, "m_steps": 64},
        "initial_curve": {"type": "flat", "rate": 0.03},
        "mc": {"n_paths": 100, "seed": 42, "method": "cholesky", "batch_size": 64},
        "drift": {"theta_cells": 256},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def tmp_config(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return path

    return write


def test_simulate_smoke_under_ten_seconds(tmp_path, tmp_config):
    path = tmp_config(smoke_config())
    start = time.time()
    result = run_cli("simulate", str(path), "--out", str(tmp_path / "out"), cwd=tmp_path)
    elapsed = time.time() - start
    assert result.returncode == 0, result.stderr
    assert elapsed < 10.0
    out = tmp_path / "out"
    for name in ("paths.csv", "forward.csv", "bonds.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["config_sha256"]
    assert "numpy" in manifest["versions"]


def test_simulate_byte_identical_and_thread_invariant(tmp_path, tmp_config):
    path = tmp_config(smoke_config())
    for out, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        r = run_cli("simulate", str(path), "--out", str(tmp_path / out), cwd=tmp_path,
                    extra_env={"OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
    for name in ("paths.csv", "forward.csv", "bonds.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a == (tmp_path / "c" / name).read_bytes()


def test_config_rejections_exit_code_one(tmp_path, tmp_config, capsys):
    from fhjm.cli import main

    bad = smoke_config()
    bad["mc"]["n_paths"] = 0
    r = run_cli("simulate", str(tmp_config(bad, "bad1.json")), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 1
    assert "n_paths" in r.stderr

    bad2 = smoke_config(hurst=0.4)
    r2 = run_cli("simulate", str(tmp_config(bad2, "bad2.json")), "--out", str(tmp_path), cwd=tmp_path)
    assert r2.returncode == 1
    assert "hurst" in r2.stderr

    bad3 = smoke_config(grids={"t_star": 1.0, "n_steps": 64, "x_max": 1.0, "m_steps": 48})
    r3 = run_cli("simulate", str(tmp_config(bad3, "bad3.json")), "--out", str(tmp_path), cwd=tmp_path)
    assert r3.returncode == 1

    r4 = run_cli("simulate", str(tmp_path / "missing.json"), "--out", str(tmp_path), cwd=tmp_path)
    assert r4.returncode == 1

    # values of the wrong type name their key instead of ending in a traceback
    typed = (
        ("hurst", smoke_config(hurst="abc")),
        ("mc.n_paths", smoke_config(mc={"n_paths": "x"})),
        ("grids.n_steps", smoke_config(grids={"n_steps": None})),
        ("check.pairs", smoke_config(check={"pairs": [["a", 1.0]]})),
        ("check.pairs", smoke_config(check={"pairs": [[0.1, 0.5, 0.7]]})),
        ("costs.k", smoke_config(costs={"k": 0.01})),
        ("costs.k", smoke_config(costs={"k": []})),
        ("grids", smoke_config(grids=[1])),
        ("mc", smoke_config(mc=[1])),
        ("initial_curve", smoke_config(initial_curve=[1])),
        # these once passed validation and failed only at runtime, with exit 2
        ("initial_curve.rate", smoke_config(initial_curve={"type": "flat", "rate": "abc"})),
        ("check.oscillation.taus", smoke_config(check={"oscillation": {"taus": "abc"}})),
        ("check.oscillation.thresholds",
         smoke_config(check={"oscillation": {"thresholds": ["x"]}})),
        # off-grid probe times, off-grid maturities and too few panel paths
        # also failed only at runtime, with exit 2
        ("check.oscillation.taus", smoke_config(check={"oscillation": {"taus": [5.0]}})),
        ("check.oscillation.taus", smoke_config(check={"oscillation": {"taus": [0.01]}})),
        ("check.oscillation.thresholds",
         smoke_config(check={"oscillation": {"thresholds": [0.0]}})),
        ("strategies[0].legs[0].atoms[0].T", smoke_config(strategies=[
            {"name": "off", "legs": [{"from": 0.0, "to": 1.0,
                                      "atoms": [{"T": 1.01234, "w": 1.0}]}]},
        ])),
        ("strategies[0].legs[0].gate.maturity", smoke_config(strategies=[
            {"name": "off", "legs": [{"from": 0.0, "to": 0.5, "atoms": [{"T": 1.0, "w": 1.0}],
                                      "gate": {"kind": "threshold", "maturity": 0.51234,
                                               "op": "<=", "level": 1.0}}]},
        ])),
        ("mc.n_paths", smoke_config(mc={"n_paths": 1}, check={"pairs": [[0.25, 0.75]]})),
        # unknown keys are typos, not settings to ignore
        ("mc.n_path", smoke_config(mc={"n_path": 10})),
        ("check.oscillation.tau", smoke_config(check={"oscillation": {"tau": [0.0]}})),
        ("grids.tstar", smoke_config(grids={"tstar": 1.0})),
        ("initial_curve.rates", smoke_config(initial_curve={"type": "flat", "rate": 0.0,
                                                            "rates": 1.0})),
        ("drift.theta_cell", smoke_config(drift={"theta_cell": 64})),
        ("costs.kk", smoke_config(costs={"kk": [0.0]})),
        ("consistency.familly", smoke_config(consistency={"familly": "nelson-siegel"})),
        ("checks", smoke_config(checks={})),
        # the consistency block was read only at runtime, where these exited 2
        ("consistency.t_samples", smoke_config(consistency={"t_samples": "abc"})),
        ("consistency.y_samples", smoke_config(consistency={"y_samples": 0})),
        ("consistency.x_nodes", smoke_config(consistency={"x_nodes": [512]})),
        ("consistency.seed", smoke_config(consistency={"seed": -1})),
        ("consistency.y_box", smoke_config(consistency={"y_box": [[0, 1]]})),
        ("consistency.y_box",
         smoke_config(consistency={"y_box": [[0, 1], [0, 1], [1, 0], [0, 1]]})),
        ("consistency.y_box", smoke_config(consistency={"y_box": "abc"})),
        ("consistency.decay_fixed", smoke_config(consistency={"decay_fixed": "x"})),
        ("consistency.decay_fixed", smoke_config(consistency={"decay_fixed": 0.0})),
        ("consistency.zero_volatility", smoke_config(consistency={"zero_volatility": "no"})),
    )
    # in process: a traceback would escape ``main`` and fail the test
    for i, (key, cfg) in enumerate(typed):
        status = main(["simulate", str(tmp_config(cfg, f"typed{i}.json")), "--out", str(tmp_path)])
        stderr = capsys.readouterr().err
        assert status == 1
        assert "config error" in stderr and key in stderr, key

    # the path count rule also holds after a --paths override
    pairs = tmp_config(smoke_config(check={"pairs": [[0.25, 0.75]]}), "pairs.json")
    for paths in ("1", "0"):
        status = main(["check", str(pairs), "--paths", paths, "--out", str(tmp_path / "p")])
        stderr = capsys.readouterr().err
        assert status == 1
        assert "config error" in stderr and "--paths" in stderr
    assert not (tmp_path / "p").exists()


def test_outputs_independent_of_batch_size(tmp_path):
    config = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())
    for batch in (7, 20):
        config["mc"]["batch_size"] = batch
        path = tmp_path / f"batch{batch}.json"
        path.write_text(json.dumps(config))
        for command in ("simulate", "check", "portfolio"):
            r = run_cli(command, str(path), "--paths", "20",
                        "--out", str(tmp_path / f"{command}{batch}"), cwd=tmp_path)
            assert r.returncode == 0, r.stderr
    for command in ("simulate", "check", "portfolio"):
        small, whole = tmp_path / f"{command}7", tmp_path / f"{command}20"
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in small.iterdir())
        # manifest.json records the config, whose batch_size differs by design
        for name in names:
            if name != "manifest.json":
                assert (small / name).read_bytes() == (whole / name).read_bytes(), name

    # the panel statistics sum every path in one order, whatever the batches
    del config["check"]["oscillation"]
    reports = []
    for batch in (7, 64, 100):
        config["mc"]["batch_size"] = batch
        path = tmp_path / f"panel{batch}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"panel{batch}"
        r = run_cli("check", str(path), "--paths", "100", "--out", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        reports.append((out / "check_report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_drift_command_error_summaries(tmp_path, tmp_config):
    path = tmp_config(smoke_config())
    r = run_cli("drift", str(path), "--out", str(tmp_path / "d1"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "d1" / "drift_summary.json").read_text())
    assert summary["max_relative_error_vs_closed_form"] <= 1e-6

    hw = smoke_config(model={"type": "hull-white", "sigma": 0.01, "decay": 1.0})
    hw["drift"]["theta_cells"] = 1024
    r2 = run_cli("drift", str(tmp_config(hw, "hw.json")), "--out", str(tmp_path / "d2"), cwd=tmp_path)
    assert r2.returncode == 0, r2.stderr
    summary2 = json.loads((tmp_path / "d2" / "drift_summary.json").read_text())
    assert summary2["max_relative_error_vs_closed_form"] <= 1e-6


def test_drift_command_single_step_grid(tmp_path, tmp_config):
    cfg = smoke_config(grids={"t_star": 1.0, "n_steps": 1, "x_max": 1.0, "m_steps": 1})
    r = run_cli("drift", str(tmp_config(cfg)), "--out", str(tmp_path / "d"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "d" / "drift.csv").read_text().strip().split("\n")
    header, data = rows[0], rows[1:]
    assert header == "t,x,value"
    zero_rows = [line for line in data if line.startswith("0,")]
    assert all(line.split(",")[2] == "0" for line in zero_rows)


def test_check_command(tmp_path, tmp_config):
    cfg = smoke_config()
    cfg["mc"]["n_paths"] = 400
    cfg["check"] = {
        "pairs": [[0.25, 0.75], [0.5, 1.0]],
        "oscillation": {"thresholds": [0.05, 10.0], "taus": [0.0]},
    }
    r = run_cli("check", str(tmp_config(cfg)), "--out", str(tmp_path / "c"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "c" / "check_report.json").read_text())
    assert report["drift_identity_pass"]
    assert report["quasi_martingale_pass"]
    assert report["oscillation"]["frequencies"][0][1] == 1.0  # huge band


def test_check_report_records_its_thresholds(tmp_path):
    from fhjm.cli import CHECK_THRESHOLDS, cmd_check
    from fhjm.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(smoke_config(
        grids={"t_star": 1.0, "n_steps": 16, "x_max": 1.0, "m_steps": 16},
        mc={"n_paths": 20, "seed": 3, "method": "cholesky", "batch_size": 20},
        drift={"theta_cells": 32}, check={"pairs": [[0.25, 0.75]]},
    ))
    cmd_check(cfg, str(tmp_path))
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["thresholds"] == CHECK_THRESHOLDS == {
        "drift_identity_max_gap": 1e-6, "z_level": 3.0, "z_exceedances_max": 1,
    }
    assert report["drift_identity_pass"] == (
        report["drift_identity_max_gap"] <= report["thresholds"]["drift_identity_max_gap"]
    )


def test_check_and_portfolio_thread_invariant(tmp_path):
    # the affine route's per-path products give the same bits under one and
    # two BLAS threads; n = 64, where the increment factor is thread invariant
    config = REPO / "demos" / "configs" / "smoke.json"
    for command in ("check", "portfolio"):
        for threads in ("1", "2"):
            r = run_cli(command, str(config), "--out", str(tmp_path / f"{command}{threads}"),
                        cwd=tmp_path, extra_env={"OPENBLAS_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
        one, two = tmp_path / f"{command}1", tmp_path / f"{command}2"
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_check_pairs_past_maturity_range_rejected(tmp_path, tmp_config):
    # P(0, T) comes from the t = 0 curve, which ends at x_max = 1
    cfg = smoke_config(check={"pairs": [[0.5, 1.5]]})
    r = run_cli("check", str(tmp_config(cfg)), "--out", str(tmp_path / "c"), cwd=tmp_path)
    assert r.returncode == 1
    assert "config error" in r.stderr and "check.pairs" in r.stderr
    assert not (tmp_path / "c" / "check_report.json").exists()


def test_check_fails_on_non_finite_z(tmp_path):
    from fhjm.cli import cmd_check
    from fhjm.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(smoke_config(
        grids={"t_star": 1.0, "n_steps": 16, "x_max": 1.0, "m_steps": 16},
        mc={"n_paths": 20, "seed": 3, "method": "cholesky", "batch_size": 20},
        drift={"theta_cells": 32},
    ))
    # bypass validation: the target P(0, 1.5) lies past the t = 0 curve
    cfg.check_block = {"pairs": [[0.5, 1.5]]}
    _, ok = cmd_check(cfg, str(tmp_path))
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not ok
    assert report["quasi_martingale_pass"] is False


def test_check_command_empty_block(tmp_path, tmp_config):
    cfg = smoke_config(check={})
    r = run_cli("check", str(tmp_config(cfg)), "--out", str(tmp_path / "c"), cwd=tmp_path)
    assert r.returncode == 0
    assert json.loads((tmp_path / "c" / "check_report.json").read_text()) == {}


def test_consistency_command_verdicts(tmp_path, tmp_config):
    cfg = smoke_config()
    cfg["consistency"] = {"family": "nelson-siegel", "t_samples": 4, "y_samples": 8, "seed": 7}
    r = run_cli("consistency", str(tmp_config(cfg)), "--out", str(tmp_path / "k1"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "k1" / "consistency_report.json").read_text())
    assert rep["verdict"] == "inconsistent"
    assert rep["stable_under_grid_doubling"]
    labels = [w["component"] for w in rep["detail"]["witnesses"]]
    assert "drift linear-in-x term" in labels

    hw = smoke_config(model={"type": "hull-white", "sigma": 0.01, "decay": 1.0})
    hw["consistency"] = {"family": "nelson-siegel", "t_samples": 4, "y_samples": 8, "seed": 7}
    r2 = run_cli("consistency", str(tmp_config(hw, "hw.json")), "--out", str(tmp_path / "k2"), cwd=tmp_path)
    assert r2.returncode == 0
    rep2 = json.loads((tmp_path / "k2" / "consistency_report.json").read_text())
    assert rep2["verdict"] == "inconsistent"

    zero = smoke_config()
    zero["consistency"] = {
        "family": "nelson-siegel", "t_samples": 2, "y_samples": 4,
        "seed": 7, "zero_volatility": True,
    }
    r3 = run_cli("consistency", str(tmp_config(zero, "z.json")), "--out", str(tmp_path / "k3"), cwd=tmp_path)
    assert r3.returncode == 0
    rep3 = json.loads((tmp_path / "k3" / "consistency_report.json").read_text())
    assert rep3["verdict"] == "consistent (trivial)"


def test_portfolio_command(tmp_path, tmp_config):
    cfg = smoke_config(initial_curve={"type": "flat", "rate": 0.0})
    cfg["model"]["sigma"] = 1e-8  # effectively deterministic flat market
    cfg["mc"]["n_paths"] = 3
    cfg["strategies"] = [
        {"name": "buyhold",
         "legs": [{"from": 0.0, "to": 1.0, "atoms": [{"T": 1.0, "w": 1.0}]}]}
    ]
    cfg["costs"] = {"k": [0.0, 0.01]}
    r = run_cli("portfolio", str(tmp_config(cfg)), "--out", str(tmp_path / "p"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "p" / "portfolio_summary.json").read_text())
    stats = summary["buyhold"]
    assert stats["total_variation"] == 1.0
    assert stats["ibp_residual_max"] <= 1e-10
    assert stats["final_value"]["0.01"]["mean"] == pytest.approx(-0.02, abs=1e-6)
    assert stats["final_value"]["0"]["mean"] == pytest.approx(0.0, abs=1e-6)
    ledger = (tmp_path / "p" / "ledger_buyhold.csv").read_text().strip().split("\n")
    assert ledger[0] == "path_id,t,gains,cost,liquidation,V"


def test_portfolio_requires_strategies(tmp_path, tmp_config):
    cfg = smoke_config()
    r = run_cli("portfolio", str(tmp_config(cfg)), "--out", str(tmp_path / "p"), cwd=tmp_path)
    assert r.returncode == 1

    # every strategy's ledger file is open at once, so names must differ
    leg = {"from": 0.0, "to": 1.0, "atoms": [{"T": 1.0, "w": 1.0}]}
    cfg["strategies"] = [{"name": "a", "legs": [leg]}, {"name": "a", "legs": [leg]}]
    r2 = run_cli("portfolio", str(tmp_config(cfg, "dup.json")), "--out", str(tmp_path / "p"),
                 cwd=tmp_path)
    assert r2.returncode == 1
    assert "config error" in r2.stderr and "distinct names" in r2.stderr


def test_output_directory_env_var(tmp_path, tmp_config):
    cfg = smoke_config()
    cfg["mc"]["n_paths"] = 5
    path = tmp_config(cfg)
    target = tmp_path / "from_env"
    r = run_cli("drift", str(path), cwd=tmp_path, extra_env={"FHJM_OUT_DIR": str(target)})
    assert r.returncode == 0, r.stderr
    assert (target / "drift.csv").exists()
    assert (target / "manifest.json").exists()


def test_simulate_with_volterra_method(tmp_path, tmp_config):
    cfg = smoke_config()
    cfg["mc"] = {"n_paths": 20, "seed": 9, "method": "volterra", "batch_size": 8}
    r = run_cli("simulate", str(tmp_config(cfg)), "--out", str(tmp_path / "v1"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r2 = run_cli("simulate", str(tmp_config(cfg)), "--out", str(tmp_path / "v2"), cwd=tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "v1" / "bonds.csv").read_bytes() == (tmp_path / "v2" / "bonds.csv").read_bytes()
