"""JSON experiment configuration: schema validation and object construction.

A config drives one reproducible experiment.  Shape:

    {
      "model": {"type": "ho-lee", "sigma": 0.01}
             | {"type": "hull-white", "sigma": 0.01, "decay": 1.0}
             | {"type": "tabulated", "t_grid": [...], "x_grid": [...], "values": [[...]]}
             | {"factors": [ ...one object per factor... ]},
      "hurst": 0.7,
      "grids": {"t_star": 1.0, "n_steps": 64, "x_max": 1.0, "m_steps": 64},
      "initial_curve": {"type": "flat", "rate": 0.03}
                     | {"type": "table", "x": [...], "value": [...]},
      "mc": {"n_paths": 1000, "seed": 42, "method": "cholesky", "batch_size": 2000},
      "drift": {"theta_cells": 512},
      "check": {"pairs": [[t, T], ...],        # 0 <= t <= min(T, t_star), T <= x_max
                 "oscillation": {"thresholds": [...], "taus": [...]}},
      "strategies": [{"name": "...", "legs": [{"from": 0.0, "to": 1.0,
                       "atoms": [{"T": 1.0, "w": 1.0}],
                       "gate": {"kind": "always"}}]}],
      "costs": {"k": [0.0, 0.01], "admissibility_bound": 10.0},
      "consistency": {"family": "nelson-siegel", "decay_fixed": null,
                       "t_samples": 8, "y_samples": 50,
                       "y_box": [[0.0, 0.06], [-0.03, 0.03], [-0.02, 0.02], [0.3, 3.0]],
                       "seed": 7, "zero_volatility": false, "x_nodes": 512}
    }

Keys outside this shape are rejected (only the model and strategy
objects are open).  Oscillation times, leg boundaries, atom and gate
maturities must be nodes of the time grid on [0, t_star], a check
panel needs at least two paths, and every ``consistency`` value is typed
(``y_box`` holds four ``[lo, hi]`` pairs with lo < hi).  Validation
failures raise :class:`ConfigError` naming the key; the CLI maps those
to exit status 1 and runtime failures to status 2.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .hjm import simulation_grids
from .kernels import HurstParam
from .ledger import DiscreteMeasure, Gate, Strategy, StrategyLeg
from .vol import ExpDecayVol, FlatVol, TabulatedVol, VolatilitySpec

__all__ = ["ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _coerce(kind, value, key: str):
    """``kind(value)`` (``int`` or ``float``), or a ConfigError naming ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _typed(value, kind: type, key: str):
    """``value`` when it is a ``kind`` (dict or list), or a ConfigError naming ``key``."""
    name = "an object" if kind is dict else "a list"
    _require(isinstance(value, kind), f"{key} must be {name}, got {value!r}")
    return value


def _numbers(value, key: str) -> list:
    """``value`` as a list of floats, or a ConfigError naming ``key``."""
    return [_coerce(float, v, key) for v in _typed(value, list, key)]


_TOP_KEYS = ("model", "hurst", "grids", "initial_curve", "mc", "drift", "check", "strategies",
             "costs", "consistency")
_BLOCK_KEYS = {
    "grids": ("t_star", "n_steps", "x_max", "m_steps"),
    "initial_curve": ("type", "rate", "x", "value"),
    "mc": ("n_paths", "seed", "method", "batch_size"),
    "drift": ("theta_cells",),
    "check": ("pairs", "oscillation"),
    "check.oscillation": ("thresholds", "taus"),
    "costs": ("k", "admissibility_bound"),
    "consistency": ("family", "decay_fixed", "t_samples", "y_samples", "y_box", "seed",
                    "zero_volatility", "x_nodes"),
}


def _block(parent: dict, key: str, default=None) -> dict:
    """The object at dotted ``key``, its last part read from ``parent``.

    ``default`` (else ``{}``) when absent; a ConfigError naming the key
    when it is not an object or holds a key outside ``_BLOCK_KEYS[key]``.
    """
    block = _typed(parent.get(key.split(".")[-1], default or {}), dict, key)
    for name in block:
        _require(name in _BLOCK_KEYS[key], f"unknown config key {key}.{name}")
    return block


def _on_t_grid(value, key: str, t_star: float, n_steps: int) -> None:
    """A ConfigError naming ``key`` unless ``value`` is a node of the time grid on [0, t_star]."""
    value = _coerce(float, value, key)
    steps = value / t_star * n_steps
    _require(  # the range test comes first: it also rejects NaN and infinities
        -0.5 <= steps <= n_steps + 0.5 and abs(round(steps) * t_star / n_steps - value) <= 1e-9,
        f"{key} = {value} must be a node of the time grid on [0, t_star]",
    )


def _path_count(n_paths: int, check_block: dict, key: str) -> int:
    """``n_paths`` if the config can run that many paths, else a ConfigError naming ``key``."""
    _require(n_paths >= 1, f"{key} must be >= 1")
    _require(
        n_paths >= 2 or not check_block.get("pairs"),
        f"{key} must be >= 2 when check.pairs is set: the panel needs standard errors",
    )
    return n_paths


_CONSISTENCY_DEFAULTS = {
    "family": "nelson-siegel", "decay_fixed": None, "t_samples": 8, "y_samples": 50,
    "y_box": [[0.0, 0.06], [-0.03, 0.03], [-0.02, 0.02], [0.3, 3.0]],
    "seed": 7, "zero_volatility": False, "x_nodes": 512,
}


def _consistency_block(raw: dict) -> dict:
    """The ``consistency`` block with its defaults filled in and every value typed."""
    block = {**_CONSISTENCY_DEFAULTS, **_block(raw, "consistency")}
    _require(block["family"] == "nelson-siegel", "only the 'nelson-siegel' family is built in")
    for key, least in (("t_samples", 1), ("y_samples", 1), ("x_nodes", 2), ("seed", 0)):
        block[key] = _coerce(int, block[key], f"consistency.{key}")
        _require(block[key] >= least, f"consistency.{key} must be >= {least}")
    if block["decay_fixed"] is not None:
        decay = _coerce(float, block["decay_fixed"], "consistency.decay_fixed")
        _require(0 < decay < math.inf, f"consistency.decay_fixed must be positive, got {decay}")
        block["decay_fixed"] = decay
    _require(
        isinstance(block["zero_volatility"], bool),
        f"consistency.zero_volatility must be true or false, got {block['zero_volatility']!r}",
    )
    box = [_numbers(pair, "consistency.y_box") for pair in
           _typed(block["y_box"], list, "consistency.y_box")]
    _require(
        len(box) == 4 and all(len(p) == 2 and -math.inf < p[0] < p[1] < math.inf for p in box),
        f"consistency.y_box must be 4 pairs [lo, hi] with lo < hi, got {box}",
    )
    block["y_box"] = box
    return block


def _build_factor(obj: dict):
    _require(isinstance(obj, dict), "factor spec must be an object")
    kind = obj.get("type")
    try:
        if kind == "ho-lee":
            return FlatVol(float(obj["sigma"]))
        if kind == "hull-white":
            return ExpDecayVol(float(obj["sigma"]), float(obj["decay"]))
        if kind == "tabulated":
            return TabulatedVol(obj["t_grid"], obj["x_grid"], obj["values"])
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {kind!r} factor: {exc}") from exc
    raise ConfigError(f"unknown model type {kind!r}")


@dataclass
class ExperimentConfig:
    raw: dict
    hurst: HurstParam
    model: VolatilitySpec
    t_star: float
    n_steps: int
    x_max: float
    m_steps: int
    initial_curve: dict
    n_paths: int
    seed: int
    method: str
    batch_size: int
    theta_cells: int
    check_block: dict
    strategies: list
    cost_levels: list
    admissibility_bound: float
    consistency_block: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config root must be a JSON object")
        for name in raw:
            _require(name in _TOP_KEYS, f"unknown config key {name}")
        _require("model" in raw, "config needs a 'model' block")
        _require("hurst" in raw, "config needs 'hurst'")
        h = _coerce(float, raw["hurst"], "hurst")
        _require(0.5 < h < 1.0, f"hurst must lie in (0.5, 1), got {h}")

        model_block = raw["model"]
        if isinstance(model_block, dict) and "factors" in model_block:
            factors = tuple(_build_factor(f) for f in model_block["factors"])
        else:
            factors = (_build_factor(model_block),)
        model = VolatilitySpec(factors=factors)

        grids = _block(raw, "grids")
        t_star = _coerce(float, grids.get("t_star", 1.0), "grids.t_star")
        n_steps = _coerce(int, grids.get("n_steps", 64), "grids.n_steps")
        x_max = _coerce(float, grids.get("x_max", t_star), "grids.x_max")
        m_steps = _coerce(int, grids.get("m_steps", n_steps), "grids.m_steps")
        try:
            simulation_grids(t_star, n_steps, x_max, m_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        init = _block(raw, "initial_curve", default={"type": "flat", "rate": 0.0})
        _require(init.get("type") in ("flat", "table"), "initial_curve type must be flat|table")
        if init["type"] == "flat":
            _require("rate" in init, "flat initial curve needs 'rate'")
            _coerce(float, init["rate"], "initial_curve.rate")
        else:
            _require("x" in init and "value" in init, "table initial curve needs x/value")
            _numbers(init["x"], "initial_curve.x")
            _numbers(init["value"], "initial_curve.value")

        check_block = _block(raw, "check")
        mc = _block(raw, "mc")
        n_paths = _path_count(
            _coerce(int, mc.get("n_paths", 100), "mc.n_paths"), check_block, "mc.n_paths"
        )
        seed = _coerce(int, mc.get("seed", 0), "mc.seed")
        method = str(mc.get("method", "cholesky"))
        _require(method in ("cholesky", "volterra"), "mc.method must be cholesky|volterra")
        batch_size = _coerce(int, mc.get("batch_size", 2000), "mc.batch_size")
        _require(batch_size >= 1, "mc.batch_size must be >= 1")

        theta_cells = _coerce(
            int, _block(raw, "drift").get("theta_cells", 512), "drift.theta_cells"
        )
        _require(theta_cells >= 16, "drift.theta_cells must be >= 16")

        # the panel target P(0, T) is read off the t = 0 curve, which ends at x_max
        for pair in _typed(check_block.get("pairs", []), list, "check.pairs"):
            pair = _numbers(pair, "check.pairs")
            _require(
                len(pair) == 2 and 0.0 <= pair[0] <= min(pair[1], t_star) and pair[1] <= x_max,
                f"check.pairs: {pair} needs [t, T] with 0 <= t <= min(T, t_star) and T <= x_max",
            )
        # the probe reads Z_tau(tau) off the surface's maturity axis, the time grid
        oscillation = _block(check_block, "check.oscillation")
        for tau in _numbers(oscillation.get("taus", []), "check.oscillation.taus"):
            _on_t_grid(tau, "check.oscillation.taus", t_star, n_steps)
        thresholds = _numbers(oscillation.get("thresholds", []), "check.oscillation.thresholds")
        _require(all(k > 0 for k in thresholds), "check.oscillation.thresholds must be positive")

        strategies = _typed(raw.get("strategies", []), list, "strategies")
        for s in strategies:
            _require(isinstance(s, dict) and s.get("legs"), "each strategy needs non-empty 'legs'")
        costs = _block(raw, "costs")
        cost_levels = _numbers(costs.get("k", [0.01]), "costs.k")
        _require(cost_levels, "costs.k must list at least one cost level")
        _require(all(k >= 0 for k in cost_levels), "cost levels must be nonnegative")
        admissibility = _coerce(
            float, costs.get("admissibility_bound", 10.0), "costs.admissibility_bound"
        )

        consistency_block = _consistency_block(raw)

        cfg = cls(
            raw=raw, hurst=HurstParam(h), model=model,
            t_star=t_star, n_steps=n_steps, x_max=x_max, m_steps=m_steps,
            initial_curve=init, n_paths=n_paths, seed=seed, method=method,
            batch_size=batch_size, theta_cells=theta_cells,
            check_block=check_block, strategies=strategies,
            cost_levels=cost_levels, admissibility_bound=admissibility,
            consistency_block=consistency_block,
        )
        # building a strategy checks its legs; the ledger then reads every leg
        # boundary, atom and gate maturity off the bond surface, whose
        # maturities are the time grid
        for s_i, block in enumerate(strategies):
            cfg.build_strategy(block)
            for l_i, leg in enumerate(block["legs"]):
                key = f"strategies[{s_i}].legs[{l_i}]"
                for end in ("from", "to"):
                    _on_t_grid(leg[end], f"{key}.{end}", t_star, n_steps)
                for a_i, atom in enumerate(leg["atoms"]):
                    _on_t_grid(atom["T"], f"{key}.atoms[{a_i}].T", t_star, n_steps)
                gate = leg.get("gate", {})
                if gate.get("kind") == "threshold":
                    _on_t_grid(gate["maturity"], f"{key}.gate.maturity", t_star, n_steps)
        return cfg

    def set_paths(self, n_paths: int, key: str) -> None:
        """Replace ``n_paths`` (an override named ``key``) under the rules of ``mc.n_paths``."""
        self.n_paths = _path_count(int(n_paths), self.check_block, key)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    # -- derived objects ---------------------------------------------------

    def grids(self):
        return simulation_grids(self.t_star, self.n_steps, self.x_max, self.m_steps)

    def build_initial_curve(self):
        from .hjm import InitialCurve

        tg, _ = self.grids()
        n_points = self.n_steps + self.m_steps + 1
        if self.initial_curve["type"] == "flat":
            return InitialCurve.flat(float(self.initial_curve["rate"]), tg.dt, n_points)
        return InitialCurve.from_table(
            self.initial_curve["x"], self.initial_curve["value"], tg.dt, n_points
        )

    def build_strategy(self, block: dict) -> Strategy:
        legs = []
        for leg in block["legs"]:
            try:
                atoms = tuple((float(a["T"]), float(a["w"])) for a in leg["atoms"])
                gate_block = leg.get("gate", {"kind": "always"})
                gate = Gate(
                    kind=gate_block.get("kind", "always"),
                    maturity=gate_block.get("maturity"),
                    op=gate_block.get("op"),
                    level=gate_block.get("level"),
                )
                legs.append(
                    StrategyLeg(
                        start=float(leg["from"]), end=float(leg["to"]),
                        measure=DiscreteMeasure(atoms), gate=gate,
                    )
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid strategy leg {leg!r}: {exc}") from exc
        try:
            return Strategy(legs=tuple(legs), horizon=self.t_star)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()
