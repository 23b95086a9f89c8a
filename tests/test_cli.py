import copy
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd, extra_env=None, entry=("-m", "fhjm.cli")):
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, *entry, *args],
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
    for method in ("cholesky", "volterra"):
        path = tmp_config(smoke_config(mc={"n_paths": 100, "seed": 42, "method": method,
                                           "batch_size": 64}), f"{method}.json")
        for out, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            r = run_cli("simulate", str(path), "--out", str(tmp_path / method / out),
                        cwd=tmp_path, extra_env={"OPENBLAS_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
        for name in ("paths.csv", "forward.csv", "bonds.csv"):
            a = (tmp_path / method / "a" / name).read_bytes()
            assert a == (tmp_path / method / "b" / name).read_bytes(), (method, name)
            assert a == (tmp_path / method / "c" / name).read_bytes(), (method, name)


def _gated_config(maturity=0.5, level=1.0):
    return smoke_config(strategies=[
        {"name": "gated", "legs": [{"from": 0.0, "to": 0.5, "atoms": [{"T": 1.0, "w": 1.0}],
                                    "gate": {"kind": "threshold", "maturity": maturity,
                                             "op": "<=", "level": level}}]},
    ])


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

    nan, inf = float("nan"), float("inf")
    leg = {"from": 0.0, "to": 1.0, "atoms": [{"T": 1.0, "w": 1.0}]}
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
        # a gate's maturity and level reached the ledger untyped and failed there
        ("strategies[0].legs[0].gate.maturity", _gated_config(maturity="1.0")),
        ("strategies[0].legs[0].gate.level", _gated_config(level="abc")),
        # a factor's numbers took strings and booleans: decay true ran as 1.0
        ("model.sigma", smoke_config(model={"type": "ho-lee", "sigma": "0.01"})),
        ("model.factors[1].decay", smoke_config(model={"factors": [
            {"type": "ho-lee", "sigma": 0.01},
            {"type": "hull-white", "sigma": 0.01, "decay": True}]})),
        # integer keys once truncated fractional values: 64.7 steps ran as 64
        ("grids.n_steps", smoke_config(grids={"n_steps": 64.7, "m_steps": 64})),
        ("grids.m_steps", smoke_config(grids={"n_steps": 64, "m_steps": 64.7})),
        ("mc.n_paths", smoke_config(mc={"n_paths": 2.9})),
        ("mc.seed", smoke_config(mc={"n_paths": 10, "seed": 1.5})),
        ("mc.batch_size", smoke_config(mc={"n_paths": 10, "batch_size": 7.5})),
        ("drift.theta_cells", smoke_config(drift={"theta_cells": 64.5})),
        ("consistency.t_samples", smoke_config(consistency={"t_samples": 8.5})),
        ("consistency.x_nodes", smoke_config(consistency={"x_nodes": 512.25})),
        # a negative seed ended in a runtime error, exit 2; names were checked
        # only by portfolio, where "a/b" failed after compute
        ("mc.seed", smoke_config(mc={"n_paths": 10, "seed": -1})),
        ("strategies[0].name", smoke_config(strategies=[{"name": "a/b", "legs": [leg]}])),
        ("strategies[1].name", smoke_config(strategies=[{"name": "a", "legs": [leg]},
                                                        {"name": "a", "legs": [leg]}])),
        # initial-curve defects surfaced only when the curve was built
        ("initial_curve.x", smoke_config(initial_curve={"type": "table", "x": [0.0, 1.0],
                                                        "value": [0.03, 0.03]})),
        ("initial_curve.value", smoke_config(initial_curve={"type": "table", "x": [0.0, 2.0],
                                                            "value": [0.03]})),
        ("initial_curve.x", smoke_config(initial_curve={"type": "table", "x": [0.0, 3.0, 2.0],
                                                        "value": [0.03, 0.03, 0.03]})),
        ("initial_curve.rate", smoke_config(initial_curve={"type": "flat", "rate": nan})),
        # NaN and Infinity, which JSON readers accept, passed every float key
        ("costs.admissibility_bound", smoke_config(costs={"admissibility_bound": nan})),
        ("costs.k", smoke_config(costs={"k": [inf]})),
        ("strategies[0].legs[0].atoms[0].w", smoke_config(strategies=[
            {"name": "inf", "legs": [{"from": 0.0, "to": 1.0, "atoms": [{"T": 1.0, "w": inf}]}]},
        ])),
        ("grids.t_star", smoke_config(grids={"t_star": inf})),
        # panel pairs off the grids failed only after the drift was built, with exit 2
        ("check.pairs[0] t", smoke_config(check={"pairs": [[0.2, 0.75]]})),
        ("check.pairs[0] T", smoke_config(check={"pairs": [[0.25, 0.7]]})),
    )
    # in process: a traceback would escape ``main`` and fail the test
    for i, (key, cfg) in enumerate(typed):
        status = main(["simulate", str(tmp_config(cfg, f"typed{i}.json")), "--out", str(tmp_path)])
        stderr = capsys.readouterr().err
        assert status == 1
        assert "config error" in stderr and key in stderr, key

    # the path count rule also holds after a --paths override, the seed rule after --seed
    pairs = tmp_config(smoke_config(check={"pairs": [[0.25, 0.75]]}), "pairs.json")
    for flag, value in (("--paths", "1"), ("--paths", "0"), ("--seed", "-1")):
        status = main(["check", str(pairs), flag, value, "--out", str(tmp_path / "p")])
        stderr = capsys.readouterr().err
        assert status == 1
        assert "config error" in stderr and flag in stderr
    assert not (tmp_path / "p").exists()


def test_integral_floats_and_typed_gates_load():
    from fhjm.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(smoke_config(
        grids={"t_star": 1.0, "n_steps": 64.0, "x_max": 1.0, "m_steps": 64.0},
        mc={"n_paths": 100.0, "seed": 42.0, "batch_size": 64.0},
    ))
    counts = (cfg.t_grid.n_steps, cfg.x_grid.m_steps, cfg.n_paths, cfg.seed, cfg.batch_size)
    assert counts == (64, 64, 100, 42, 64)
    assert all(type(v) is int for v in counts)
    gated = ExperimentConfig.from_dict(_gated_config(maturity=0.5, level=1))
    gate = gated.strategies["gated"].legs[0].gate
    assert (gate.maturity, gate.level) == (0.5, 1)


SMOKE = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())

# any JSON value; integers stay small, because an accepted count (paths,
# cells) buys work in proportion and the drift below must finish
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4096, 4096) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _places(node, path=()):
    """``(path, key)`` of every value below ``node``, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


PLACES = list(_places(SMOKE))
OBJECTS = [()] + [path + (key,) for path, key in PLACES
                  if isinstance(_at(SMOKE, path + (key,)), dict)]


@st.composite
def one_key_edits(draw):
    """``smoke.json`` with one key replaced, dropped or added, at any depth."""
    cfg = copy.deepcopy(SMOKE)
    edit = draw(st.sampled_from(("replace", "drop", "add")))
    if edit == "add":
        key = draw(st.text(max_size=8) | st.sampled_from(sorted({k for _, k in PLACES
                                                                  if isinstance(k, str)})))
        _at(cfg, draw(st.sampled_from(OBJECTS)))[key] = draw(JSON_VALUES)
        return cfg
    path, key = draw(st.sampled_from(PLACES))
    if edit == "drop":
        del _at(cfg, path)[key]
    else:
        _at(cfg, path)[key] = draw(JSON_VALUES)
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=one_key_edits())
def test_one_key_edits_fail_as_config_errors_or_run(cfg):
    # a config that parses either runs (exit 0) or fails as a config error
    # (exit 1) in every command, never as a runtime error (exit 2)
    from fhjm.cli import main
    from fhjm.config import ConfigError, ExperimentConfig

    try:
        ExperimentConfig.from_dict(cfg)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["drift", str(path), "--out", tmp]) == 0
        for command in ("simulate", "check", "portfolio", "consistency"):
            out = str(Path(tmp) / command)
            assert main([command, str(path), "--out", out, "--paths", "3"]) in (0, 1), command


@pytest.mark.parametrize("command, block", [
    ("simulate", {}),
    ("portfolio", {}),
    ("check", {"check": {"pairs": [[0.25, 0.75]]}}),
    ("check", {"check": {"oscillation": {"taus": [0.0]}}}),
])
def test_grid_past_the_cholesky_cap_is_a_config_error(command, block, tmp_path, capsys):
    # refused before the drift field is built: nothing is written
    from fhjm.cli import main
    from fhjm.fbm import MAX_CHOLESKY_STEPS

    n = MAX_CHOLESKY_STEPS + 4  # keeps every smoke.json time a grid node
    cfg = {**SMOKE, "grids": {"t_star": 1.0, "n_steps": n, "x_max": 1.0, "m_steps": n}, **block}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, str(path), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "config error" in err and "grids.n_steps" in err and "mc.method" in err
    assert not out.exists() or not any(out.iterdir())


def test_outputs_independent_of_batch_size(tmp_path):
    config = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())
    # each generator's per-path products give every path the same bits in a
    # batch of one as in a batch of all
    for method, batches in (("cholesky", (7, 20)), ("volterra", (1, 7, 20))):
        for batch in batches:
            mc = {**config["mc"], "method": method, "batch_size": batch}
            path = tmp_path / f"{method}{batch}.json"
            path.write_text(json.dumps({**config, "mc": mc}))
            for command in ("simulate", "check", "portfolio"):
                r = run_cli(command, str(path), "--paths", "20",
                            "--out", str(tmp_path / f"{method}{command}{batch}"), cwd=tmp_path)
                assert r.returncode == 0, r.stderr
        for command in ("simulate", "check", "portfolio"):
            whole = tmp_path / f"{method}{command}20"
            names = sorted(p.name for p in whole.iterdir())
            for batch in batches[:-1]:
                small = tmp_path / f"{method}{command}{batch}"
                assert names == sorted(p.name for p in small.iterdir())
                # manifest.json records the config, whose batch_size differs by design
                for name in names:
                    if name != "manifest.json":
                        assert (small / name).read_bytes() == (whole / name).read_bytes(), (
                            method, batch, name)

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

    # the closed-form Hull-White drift overflows at a tiny decay; the summary
    # recorded Infinity and the command exited 0
    tiny = smoke_config(model={"type": "hull-white", "sigma": 0.01, "decay": 1e-300})
    r3 = run_cli("drift", str(tmp_config(tiny, "tiny.json")), "--out", str(tmp_path / "d3"),
                 cwd=tmp_path)
    assert r3.returncode == 2
    assert "runtime error" in r3.stderr
    assert "drift_summary.json" in r3.stderr and "max_relative_error_vs_closed_form" in r3.stderr
    assert not (tmp_path / "d3" / "drift_summary.json").exists()
    assert not (tmp_path / "d3" / "manifest.json").exists()


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
    # two BLAS threads
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


def test_portfolio_and_simulate_thread_invariant_at_n_128(tmp_path, tmp_config):
    # the portfolio workload's grids: from n = 128 on, LAPACK's blocked
    # Cholesky factor changed with the BLAS thread count; the Toeplitz one does not
    cfg = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())
    cfg["grids"] = {"t_star": 2.0, "n_steps": 128, "x_max": 2.0, "m_steps": 128}
    cfg["mc"]["n_paths"] = 12
    path = tmp_config(cfg)
    for command in ("portfolio", "simulate"):
        for threads in ("1", "2"):
            r = run_cli(command, str(path), "--out", str(tmp_path / f"{command}{threads}"),
                        cwd=tmp_path, extra_env={"OPENBLAS_NUM_THREADS": threads})
            assert r.returncode == 0, r.stderr
        one, two = tmp_path / f"{command}1", tmp_path / f"{command}2"
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), (command, name)


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
    cfg.pairs = ((0.5, 1.5),)
    _, ok = cmd_check(cfg, str(tmp_path))
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not ok
    assert report["quasi_martingale_pass"] is False


def test_check_command_empty_block(tmp_path, tmp_config):
    cfg = smoke_config(check={})
    r = run_cli("check", str(tmp_config(cfg)), "--out", str(tmp_path / "c"), cwd=tmp_path)
    assert r.returncode == 0
    assert json.loads((tmp_path / "c" / "check_report.json").read_text()) == {}


def test_consistency_verdict_reads_x_nodes(tmp_path, tmp_config):
    # the verdict itself, not only its grid-doubling rerun, uses x_nodes maturity nodes
    details = []
    for name, extra in (("default", {}), ("coarse", {"x_nodes": 64})):
        cfg = smoke_config()
        cfg["consistency"] = {"t_samples": 4, "y_samples": 8, "seed": 7, **extra}
        out = tmp_path / name
        r = run_cli("consistency", str(tmp_config(cfg, f"{name}.json")), "--out", str(out),
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        details.append(json.loads((out / "consistency_report.json").read_text())["detail"])
    assert details[0]["max_residual"] != details[1]["max_residual"]


def test_consistency_warns_when_a_table_is_read_flat(tmp_path, tmp_config):
    # the membership grid's drift curves read the table from x = 0 to 10 + t,
    # far outside columns on [0.5, 2]; the drift command warns the same way
    from fhjm.cli import main

    cfg = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())
    cfg["model"] = {"type": "tabulated", "t_grid": [0.0, 1.0], "x_grid": [0.5, 1.0, 2.0],
                    "values": [[0.01, 0.012, 0.011], [0.011, 0.01, 0.012]]}
    path = str(tmp_config(cfg))
    for command in ("consistency", "drift"):
        with pytest.warns(RuntimeWarning, match="extrapolated flat outside its x-table"):
            assert main([command, path, "--out", str(tmp_path / command)]) == 0


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


def test_consistency_box_outside_the_family_domain_is_a_config_error(tmp_path, tmp_config,
                                                                      capsys):
    # the family's domain is |y4| > 1e-12: these boxes once reached the solver
    # and exited 2 (an SVD that did not converge, a parameter outside the
    # domain, an overflow in exp); [-1, 1] ran only because a draw within
    # 1e-12 of 0 is unlikely
    from fhjm.cli import main

    level = [[0.0, 0.06], [-0.03, 0.03], [-0.02, 0.02]]
    boxes = (
        [[-1e300, 1e300]] * 4,
        [[0.0, 1e-300]] * 4,
        level + [[0.0, 1e-300]],
        level + [[-200.0, -100.0]],
        level + [[-1.0, 1.0]],
    )
    for i, box in enumerate(boxes):
        cfg = smoke_config(consistency={"t_samples": 4, "y_samples": 10, "seed": 7, "y_box": box})
        out = tmp_path / f"bad{i}"
        assert main(["consistency", str(tmp_config(cfg, f"bad{i}.json")), "--out", str(out)]) == 1
        stderr = capsys.readouterr().err
        assert "config error" in stderr and "consistency.y_box" in stderr, box
        assert not (out / "consistency_report.json").exists()

    for i, box in enumerate((None, level + [[100.0, 200.0]])):
        block = {"t_samples": 4, "y_samples": 10, "seed": 7}
        if box is not None:
            block["y_box"] = box
        out = tmp_path / f"good{i}"
        cfg = tmp_config(smoke_config(consistency=block), f"good{i}.json")
        assert main(["consistency", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "consistency_report.json").read_text())
        assert report["verdict"] in ("consistent", "inconsistent")


def test_consistency_on_huge_parameters_writes_a_finite_report(tmp_path, tmp_config):
    # levels of 1e300 once overflowed the residual norms: numpy warned, the
    # residual read nan, and the shift check passed it
    cfg = copy.deepcopy(SMOKE)
    cfg["consistency"]["y_box"] = [[-1e300, 1e300]] * 3 + [[0.3, 3.0]]
    out = tmp_path / "huge"
    r = run_cli("consistency", str(tmp_config(cfg)), "--out", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "overflow" not in r.stderr

    def reject(constant):
        raise AssertionError(f"{constant} in consistency_report.json")

    report = json.loads((out / "consistency_report.json").read_text(), parse_constant=reject)
    assert report["verdict"] == "inconsistent"
    assert any(w["component"] == "shift dF/dx" for w in report["detail"]["witnesses"])


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


def test_portfolio_builds_one_ledger_per_strategy_and_batch(tmp_path, tmp_config, monkeypatch):
    # the cost levels reprice one ledger, and the pairing check reads the
    # ledger's holdings series
    from fhjm import ledger
    from fhjm.cli import main

    calls = {"ledger": 0, "holdings": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ledger, "liquidation_value", counted("ledger", ledger.liquidation_value))
    monkeypatch.setattr(ledger, "holdings", counted("holdings", ledger.holdings))
    cfg = json.loads((REPO / "demos" / "configs" / "smoke.json").read_text())
    cfg["mc"].update(n_paths=10, batch_size=4)  # three batches
    cfg["strategies"].append({"name": "short", "legs": [
        {"from": 0.0, "to": 0.5, "atoms": [{"T": 0.5, "w": -1.0}]}]})
    cfg["costs"]["k"] = [0.0, 0.005, 0.01]
    assert main(["portfolio", str(tmp_config(cfg)), "--out", str(tmp_path / "p")]) == 0
    assert calls == {"ledger": 2 * 3, "holdings": 2 * 3}
    summary = json.loads((tmp_path / "p" / "portfolio_summary.json").read_text())
    assert sorted(summary["short"]["final_value"]) == ["0", "0.005", "0.01"]


def test_check_draws_each_path_once_for_the_panel_and_the_probe(tmp_path, monkeypatch):
    # smoke.json has both pairs and a probe: one draw of driver increments per
    # path feeds the panel's prices and the probe's rows
    from fhjm import fbm, hjm
    from fhjm.cli import main

    drawn, generate = [], fbm.BrownianDriver.generate.__func__

    def counted(cls, grid, dims, n_paths, seed, path_offset=0):
        drawn.extend(range(path_offset, path_offset + n_paths))
        return generate(cls, grid, dims, n_paths, seed, path_offset)

    monkeypatch.setattr(fbm.BrownianDriver, "generate", classmethod(counted))
    monkeypatch.setattr(hjm, "_generate_paths", None)  # no path from the row route
    config = REPO / "demos" / "configs" / "smoke.json"
    assert main(["check", str(config), "--out", str(tmp_path)]) == 0
    assert drawn == list(range(SMOKE["mc"]["n_paths"]))
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["quasi_martingale"]["n_paths"] == report["oscillation"]["n_paths"] == 100


def test_check_builds_one_affine_map_for_the_panel_and_the_probe(tmp_path, monkeypatch):
    # smoke.json has both pairs and a probe: (c, g) and the driver map A are
    # built once, on the union of the pair and probe maturities
    from fhjm import hjm
    from fhjm.cli import main

    calls = {"affine_log_discount": 0, "_driver_map": 0}

    def counted(name):
        fn = getattr(hjm, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hjm, name, counted(name))
    config = REPO / "demos" / "configs" / "smoke.json"
    assert SMOKE["check"]["pairs"] and SMOKE["check"]["oscillation"]
    assert main(["check", str(config), "--out", str(tmp_path)]) == 0
    assert calls == {"affine_log_discount": 1, "_driver_map": 1}


def test_check_panel_is_the_call_of_criterion_3(tmp_path):
    # criterion 3 prices its panel as `fhjm check` does: the pair prices that
    # affine_draws yields; the report holds that call's values, one for one,
    # beside the integrated identity gap on the config's pairs, bit for bit
    from fhjm.cli import main
    from fhjm.config import ExperimentConfig
    from fhjm.hjm import affine_draws, drift_for_simulation
    from fhjm.noarb import check_quasi_martingale, integrated_identity_gap

    config = REPO / "demos" / "configs" / "smoke.json"
    assert main(["check", str(config), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    cfg = ExperimentConfig.load(str(config))
    drift = drift_for_simulation(cfg.model, cfg.hurst, cfg.t_grid, cfg.x_grid,
                                 theta_cells=cfg.theta_cells)
    draws = affine_draws(cfg.model, cfg.hurst, drift, cfg.initial_curve, cfg.t_grid, cfg.x_grid,
                         n_paths=cfg.n_paths, seed=cfg.seed, pairs=cfg.pairs,
                         batch_size=cfg.batch_size, method=cfg.method)
    qm = check_quasi_martingale((p for p, _ in draws), cfg.pairs)
    gap = integrated_identity_gap(cfg.model, cfg.hurst, drift, cfg.pairs)
    reported = report["quasi_martingale"]
    assert len(reported["panel"]) == len(SMOKE["check"]["pairs"])
    assert reported.pop("identity_gap").hex() == gap.hex()
    assert reported == json.loads(json.dumps(qm.to_dict()))


@pytest.mark.parametrize("command, spans", [
    ("check", {"noarb.estimator", "drift.identity"}),
    ("portfolio", {"ledger.liquidation", "ledger.ibp"}),
])
def test_traced_benchmark_launch_records_the_estimator_spans(tmp_path, command, spans):
    # perfbench/launch.py wraps fhjm functions by name from outside the
    # package: a rename or a changed signature would otherwise show only in
    # the benchmark's traced runs
    import numpy as np

    marks = tmp_path / "marks.json"
    result = run_cli(str(marks), "1", "--", command, str(REPO / "demos" / "configs" / "smoke.json"),
                     "--out", str(tmp_path / "out"), cwd=tmp_path,
                     entry=(str(REPO / "perfbench" / "launch.py"),))
    assert result.returncode == 0, result.stderr
    names = json.loads(marks.read_text())["names"]
    recorded = {names[int(i)] for i in np.load(f"{marks}.npy")[:, 0]}
    assert spans <= recorded, sorted(recorded)


def test_portfolio_draws_each_path_once_through_the_driver(tmp_path, monkeypatch):
    # the ledgers read the rows of affine_draws: one draw of driver increments
    # per path, and no path from the path generators
    from fhjm import fbm, hjm
    from fhjm.cli import main

    drawn, generate = [], fbm.BrownianDriver.generate.__func__

    def counted(cls, grid, dims, n_paths, seed, path_offset=0):
        drawn.extend(range(path_offset, path_offset + n_paths))
        return generate(cls, grid, dims, n_paths, seed, path_offset)

    monkeypatch.setattr(fbm.BrownianDriver, "generate", classmethod(counted))
    monkeypatch.setattr(hjm, "_generate_paths", None)
    config = REPO / "demos" / "configs" / "smoke.json"
    assert SMOKE["strategies"]
    assert main(["portfolio", str(config), "--out", str(tmp_path)]) == 0
    assert drawn == list(range(SMOKE["mc"]["n_paths"]))
    ledger = (tmp_path / "ledger_buyhold.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in ledger[1:]} == {str(p) for p in drawn}


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


def test_commands_leave_scipy_special_and_optimize_unloaded(tmp_path):
    # only the fractional-calculus helpers and ``family_fit_distance`` need
    # them, and importing scipy.special alone once took about 0.3 s of every
    # command; the manifest reads scipy's version from scipy/version.py, and
    # the Gauss-Legendre rules (numpy.polynomial) are built on first use
    import scipy

    config = REPO / "demos" / "configs" / "smoke.json"
    modules = ("scipy", "scipy.special", "scipy.optimize", "numpy.polynomial")
    probe = (
        "import sys; from fhjm.cli import main; status = main(sys.argv[1:]); "
        f"print(sorted(m for m in {modules!r} if m in sys.modules)); "
        "sys.exit(status)"
    )
    assert json.loads(config.read_text())["check"]["pairs"]
    for command in ("simulate", "drift", "check", "portfolio", "consistency"):
        out = tmp_path / command
        r = run_cli(command, str(config), "--out", str(out), cwd=tmp_path, entry=("-c", probe))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[]", (command, r.stdout)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__


def test_quantiles_bitwise_equal_numpy_quantile():
    import numpy as np

    from fhjm.cli import _quantiles

    rng = np.random.default_rng(5)
    for n in list(range(1, 12)) + [199, 200, 201]:  # odd and even lengths, n = 1
        for _ in range(40):
            values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
            if rng.random() < 0.5:  # ties, -0.0 among them
                values = np.round(values, int(rng.integers(0, 2)))
            qs = (0.05, 0.50, 0.95, 0.0, 1.0, float(rng.random()))
            for q, got in zip(qs, _quantiles(values, qs), strict=True):
                want = np.quantile(values, q)
                assert np.float64(got).tobytes() == want.tobytes(), (q, values)


def assert_numpy_ma_unloaded(command, tmp_path):
    # np.quantile and np.unique import numpy.ma on first use, about 16-30 ms per run
    config = REPO / "demos" / "configs" / "smoke.json"
    probe = (
        "import sys; from fhjm.cli import main; status = main(sys.argv[1:]); "
        "print('numpy.ma' in sys.modules); sys.exit(status)"
    )
    r = run_cli(command, str(config), "--out", str(tmp_path / "out"), cwd=tmp_path,
                entry=("-c", probe))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False", r.stdout


def test_portfolio_leaves_numpy_ma_unloaded(tmp_path):
    assert_numpy_ma_unloaded("portfolio", tmp_path)


@pytest.mark.parametrize("command", ["simulate", "drift"])
def test_csv_commands_leave_numpy_ma_unloaded(command, tmp_path):
    assert_numpy_ma_unloaded(command, tmp_path)


@pytest.mark.parametrize("command", ["check", "consistency"])
def test_report_commands_leave_numpy_ma_unloaded(command, tmp_path):
    # check merges its pair and probe maturities with a set, not np.union1d
    assert_numpy_ma_unloaded(command, tmp_path)


def test_simulate_with_volterra_method(tmp_path, tmp_config):
    cfg = smoke_config()
    cfg["mc"] = {"n_paths": 20, "seed": 9, "method": "volterra", "batch_size": 8}
    r = run_cli("simulate", str(tmp_config(cfg)), "--out", str(tmp_path / "v1"), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r2 = run_cli("simulate", str(tmp_config(cfg)), "--out", str(tmp_path / "v2"), cwd=tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "v1" / "bonds.csv").read_bytes() == (tmp_path / "v2" / "bonds.csv").read_bytes()


def test_check_exits_zero_when_a_verification_fails(tmp_path, tmp_config):
    # a failed verification is a result, not an error: exit 0 with one stdout line
    cfg = smoke_config(
        model={"type": "hull-white", "sigma": 0.2, "decay": 3.0},
        grids={"t_star": 1.0, "n_steps": 16, "x_max": 1.0, "m_steps": 16},
        mc={"n_paths": 20, "seed": 3, "method": "cholesky", "batch_size": 20},
        drift={"theta_cells": 16}, check={"pairs": [[0.25, 0.75]]},
    )
    r = run_cli("check", str(tmp_config(cfg)), "--out", str(tmp_path / "c"), cwd=tmp_path)
    report = json.loads((tmp_path / "c" / "check_report.json").read_text())
    assert report["drift_identity_pass"] is False
    assert r.returncode == 0, r.stderr
    assert "one or more verifications failed" in r.stdout
    assert (tmp_path / "c" / "manifest.json").exists()


# counts the calls of gc.freeze, and prints them with the freeze count at exit
FREEZE_PROBE = (
    "import atexit, gc, sys; calls, freeze = [], gc.freeze; "
    "gc.freeze = lambda: calls.append(freeze()); "
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, 'calls', len(calls))); "
    "import fhjm, fhjm.cli; "
)


def test_importing_fhjm_freezes_nothing_at_exit(tmp_path):
    # a library user keeps the interpreter's normal finalization
    r = run_cli(cwd=tmp_path, entry=("-c", FREEZE_PROBE))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "frozen False calls 0"


def test_a_command_freezes_the_heap_once_at_exit(tmp_path):
    # handlers run last in, first out: main's freeze runs before the probe's
    # print, once however often main ran, and config errors freeze too
    config = REPO / "demos" / "configs" / "smoke.json"
    probe = FREEZE_PROBE + "sys.exit([fhjm.cli.main(sys.argv[1:]) for _ in range(2)][-1])"
    for path, status in ((config, 0), (tmp_path / "missing.json", 1)):
        r = run_cli("drift", str(path), "--out", str(tmp_path), cwd=tmp_path,
                    entry=("-c", probe))
        assert r.returncode == status, r.stderr
        assert r.stdout.splitlines()[-1] == "frozen True calls 1"


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    import gc

    from fhjm.cli import main

    config = str(REPO / "demos" / "configs" / "smoke.json")
    assert main(["drift", config, "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


def test_repeated_in_process_main_calls_register_no_more_exit_handlers(tmp_path):
    # an unregister and register per call would leave an empty slot each time
    import atexit

    from fhjm.cli import main

    config = str(REPO / "demos" / "configs" / "smoke.json")
    missing = str(tmp_path / "missing.json")
    assert main(["drift", config, "--out", str(tmp_path)]) == 0
    slots = atexit._ncallbacks()
    for _ in range(3):
        assert main(["drift", config, "--out", str(tmp_path)]) == 0
        assert main(["drift", missing, "--out", str(tmp_path)]) == 1
    assert atexit._ncallbacks() == slots


def test_every_output_byte_survives_the_exit(tmp_path):
    # the same bytes whether the command ends the interpreter or returns
    from fhjm.cli import main

    config = str(REPO / "demos" / "configs" / "smoke.json")
    for command in ("simulate", "drift", "check", "consistency", "portfolio"):
        fresh, in_process = tmp_path / command / "fresh", tmp_path / command / "in_process"
        r = run_cli(command, config, "--out", str(fresh), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert main([command, config, "--out", str(in_process)]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert "manifest.json" in names
        assert names == sorted(p.name for p in in_process.iterdir())
        for name in names:
            assert (fresh / name).read_bytes() == (in_process / name).read_bytes(), name
