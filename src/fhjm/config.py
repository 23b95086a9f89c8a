"""JSON experiment configuration: the one contract between a config file and the engine.

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
      "check": {"pairs": [[t, T], ...], "oscillation": {"thresholds": [...], "taus": [...]}},
      "strategies": [{"name": "...", "legs": [{"from": 0.0, "to": 1.0,
                       "atoms": [{"T": 1.0, "w": 1.0}], "gate": {"kind": "always"}}]}],
      "costs": {"k": [0.0, 0.01], "admissibility_bound": 10.0},
      "consistency": {"family": "nelson-siegel", "decay_fixed": null, "t_samples": 8,
                       "y_samples": 50, "y_box": [[lo, hi] x 4], "seed": 7,
                       "zero_volatility": false, "x_nodes": 512}
    }

The contract.  ``_KEYS`` holds every per-key rule, one row per dotted key
(``[]`` stands for any list index): its kind, its default and its bound.
The root and the fixed-shape blocks take exactly the keys of their rows;
the model and strategy objects are open, so keys without a row are
ignored there.  A number is a JSON number, never a string or a boolean.
A float is finite: ``NaN`` and ``Infinity``, which Python's ``json``
reads, fail every float key.  An integer is integral (64.0 loads as 64,
64.7 fails).  A list kind types each entry and bounds each entry.  An
absent key takes its default: ``_REQUIRED`` keys have none, a ``None``
default leaves a key unset when absent or null, and ``_Same`` copies a
sibling.  An empty ``check.oscillation`` block means no probe.  A
strategy ``name`` (``strategy_<i>`` when unset) names its ledger file:
it holds no ``/``, ``\\`` or NUL, and the names are distinct.

``portfolio`` reports the final value at every level of ``costs.k``, but
it writes ``ledger_<name>.csv`` and counts ``admissibility_violations``
at the last level in config order only.  ``consistency.x_nodes`` is the
node count of the maturity grid on [0, 10] behind the verdict; the
grid-doubling rerun uses twice as many.  ``consistency.y_box`` draws the
Nelson-Siegel parameters y1..y4 uniformly, and its fourth pair, the decay
y4, has lo > 1e-12.

Rules across keys are the small functions after the table: the grids
align; check pairs [t, T] satisfy 0 <= t <= min(T, t_star) and
T <= x_max, t is a node of the time grid and T of the maturity grid;
oscillation times, leg boundaries, atom and gate maturities
are nodes of the time grid on [0, t_star]; a check panel needs two paths
(also after ``--paths``); a table initial curve has increasing ``x``, one
``value`` per ``x``, and covers [0, t_star + x_max].  One rule depends on
the command and lives in the CLI: ``mc.method`` ``cholesky`` draws on at
most 4096 ``grids.n_steps``, checked before any compute by every command
that draws paths; ``drift`` and ``consistency`` draw none.

:meth:`ExperimentConfig.from_dict` returns resolved values: the grids,
initial curve, model and strategies built, the panel pairs as float
tuples, the probe's taus and thresholds with their defaults, and the
typed ``consistency`` block.  Every failure raises :class:`ConfigError`
naming the key; the CLI maps those to exit status 1 and runtime failures
to status 2.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
from dataclasses import dataclass

from .fbm import TimeGrid
from .hjm import InitialCurve, simulation_grids
from .kernels import HurstParam
from .ledger import DiscreteMeasure, Gate, Strategy, StrategyLeg
from .vol import ExpDecayVol, FlatVol, MaturityGrid, TabulatedVol, VolatilitySpec

__all__ = ["ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# -- kinds: ``kind(value, name)`` is the typed value, or a ConfigError naming ``name``


def _is(test, what: str):
    """The kind that passes a value when ``test(value)`` holds; it must be ``what``."""

    def kind(value, name: str):
        _require(test(value), f"{name} must be {what}, got {value!r}")
        return value

    return kind


def _choice(*options: str):
    return _is(lambda v: v in options, "|".join(options))


_number = _is(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
_bool = _is(lambda v: isinstance(v, bool), "true or false")
_list = _is(lambda v: isinstance(v, list), "a list")
_object = _is(lambda v: isinstance(v, dict), "an object")
_objects = _is(lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
               "a list of objects")
_name = _is(lambda v: isinstance(v, str) and not any(c in v for c in "/\\\0"),
            "a string without '/', '\\' or NUL (it names a file)")


def _int(value, name: str) -> int:
    value = _number(value, name)
    _require(isinstance(value, int) or value.is_integer(),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _float(value, name: str) -> float:
    try:
        value = float(_number(value, name))
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{name} is out of range, got {value!r}") from exc
    _require(math.isfinite(value), f"{name} must be finite, got {value!r}")
    return value


def _floats(value, name: str) -> list:
    return [_float(v, name) for v in _list(value, name)]


def _nonempty(kind):
    return lambda value, name: _is(len, "non-empty")(kind(value, name), name)


def _pairs(value, name: str) -> tuple:
    return tuple(tuple(_floats(pair, name)) for pair in _list(value, name))


def _box(value, name: str) -> list:
    box = [_floats(pair, name) for pair in _list(value, name)]
    _require(len(box) == 4 and all(len(p) == 2 and p[0] < p[1] for p in box),
             f"{name} must be 4 pairs [lo, hi] with lo < hi, got {box}")
    # the family's domain is |y4| > 1e-12, taken on the side of decay_fixed > 0
    _require(box[3][0] > 1e-12, f"{name} decay pair must have lo > 1e-12, got {box[3]}")
    return box


def _values(block, prefix: str) -> dict:
    """The rows directly under ``prefix`` (``""``: the root) read from ``block``, typed."""
    rows = {k.rpartition(".")[2]: k for k in _KEYS if k.rpartition(".")[0] == prefix}
    for name in _object(block, prefix or "config root"):
        _require(name in rows, f"unknown config key {prefix + '.' if prefix else ''}{name}")
    out = {}
    for name, key in rows.items():
        same = _KEYS[key][1]
        absent = isinstance(same, _Same) and name not in block
        out[name] = out[same] if absent else _coerce(key, block.get(name, _ABSENT))
    return out


def _probe(value, name: str):
    """The ``check.oscillation`` rows; ``None`` (no probe) for an empty block."""
    return None if value == {} else _values(value, name)


class _Same(str):
    """A default: the value of the sibling key it names."""


_REQUIRED = object()
_ABSENT = object()
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

# dotted key: (kind, default, bound), a bound being ((op, limit), ...).  The
# bounds on sigma, on the initial rates and on k keep every price, account and
# ledger value finite: a forward-rate volatility above 10 per year^H, a rate
# beyond 1000 % a year or a cost above the notional is no market, and beyond
# them bond prices and ledger values overflow to inf before they reach a file.
# The caps on counts that buy work in proportion (cells, samples, nodes) keep
# an integral float such as 6e16 from asking for petabytes.
_KEYS = {
    "model": (_object, _REQUIRED, None),
    "model.factors": (_nonempty(_objects), None, None),
    "model.type": (_choice("ho-lee", "hull-white", "tabulated"), _REQUIRED, None),
    "model.sigma": (_float, _REQUIRED, ((">", 0.0), ("<=", 10.0))),
    "model.decay": (_float, _REQUIRED, ((">", 0.0),)),
    "hurst": (_float, _REQUIRED, ((">", 0.5), ("<", 1.0))),
    "grids": (_values, {}, None),
    "grids.t_star": (_float, 1.0, ((">", 0.0),)),
    "grids.n_steps": (_int, 64, ((">=", 1),)),
    "grids.x_max": (_float, _Same("t_star"), ((">", 0.0),)),
    "grids.m_steps": (_int, _Same("n_steps"), ((">=", 1),)),
    "initial_curve": (_values, {"type": "flat", "rate": 0.0}, None),
    "initial_curve.type": (_choice("flat", "table"), _REQUIRED, None),
    "initial_curve.rate": (_float, None, ((">=", -10.0), ("<=", 10.0))),
    "initial_curve.x": (_floats, None, None),
    "initial_curve.value": (_floats, None, ((">=", -10.0), ("<=", 10.0))),
    "mc": (_values, {}, None),
    "mc.n_paths": (_int, 100, ((">=", 1),)),
    "mc.seed": (_int, 0, ((">=", 0),)),
    "mc.method": (_choice("cholesky", "volterra"), "cholesky", None),
    "mc.batch_size": (_int, 2000, ((">=", 1),)),
    "drift": (_values, {}, None),
    "drift.theta_cells": (_int, 512, ((">=", 16), ("<=", 65536))),
    "check": (_values, {}, None),
    "check.pairs": (_pairs, [], None),
    "check.oscillation": (_probe, None, None),
    "check.oscillation.taus": (_floats, [0.0], None),
    "check.oscillation.thresholds": (_floats, [0.05], ((">", 0.0),)),
    "strategies": (_objects, [], None),
    "strategies[].name": (_name, None, None),
    "strategies[].legs": (_nonempty(_objects), _REQUIRED, None),
    "strategies[].legs[].from": (_float, _REQUIRED, None),
    "strategies[].legs[].to": (_float, _REQUIRED, None),
    "strategies[].legs[].atoms": (_objects, _REQUIRED, None),
    "strategies[].legs[].atoms[].T": (_float, _REQUIRED, None),
    "strategies[].legs[].atoms[].w": (_float, _REQUIRED, None),
    "strategies[].legs[].gate": (_object, {"kind": "always"}, None),
    "strategies[].legs[].gate.kind": (_choice("always", "threshold"), "always", None),
    "strategies[].legs[].gate.maturity": (_float, _REQUIRED, None),
    "strategies[].legs[].gate.op": (_choice("<=", ">="), _REQUIRED, None),
    "strategies[].legs[].gate.level": (_float, _REQUIRED, None),
    "costs": (_values, {}, None),
    "costs.k": (_nonempty(_floats), [0.01], ((">=", 0.0), ("<=", 1.0))),
    "costs.admissibility_bound": (_float, 10.0, None),
    "consistency": (_values, {}, None),
    "consistency.family": (_choice("nelson-siegel"), "nelson-siegel", None),
    "consistency.decay_fixed": (_float, None, ((">", 0.0),)),
    "consistency.t_samples": (_int, 8, ((">=", 1), ("<=", 4096))),
    "consistency.y_samples": (_int, 50, ((">=", 1), ("<=", 65536))),
    "consistency.y_box": (_box, [[0.0, 0.06], [-0.03, 0.03], [-0.02, 0.02], [0.3, 3.0]], None),
    "consistency.seed": (_int, 7, ((">=", 0),)),
    "consistency.zero_volatility": (_bool, False, None),
    "consistency.x_nodes": (_int, 512, ((">=", 2), ("<=", 65536))),
}


def _coerce(name: str, value=_ABSENT, key: str | None = None):
    """``value`` of the config key ``name`` under its row's kind, default and bound.

    The row is ``key``, else ``name`` with every list index written ``[]``.
    """
    kind, default, bound = _KEYS[key or re.sub(r"\[\d+\]", "[]", name)]
    if value is _ABSENT or (value is None and default is None):
        _require(default is not _REQUIRED, f"config needs {name}")
        if default is None:
            return None
        value = default
    value = kind(value, name)
    for op, limit in bound or ():
        for v in value if isinstance(value, list) else (value,):
            _require(_OPS[op](v, limit), f"{name} must be {op} {limit}, got {v!r}")
    return value


def _get(obj: dict, name: str, key: str | None = None):
    """The entry of ``obj`` at ``name``'s last part, through :func:`_coerce`."""
    return _coerce(name, obj.get(name.rpartition(".")[2], _ABSENT), key)


# -- rules across keys and the objects built from the values


def _on_grid(value: float, name: str, end: float, n_steps: int, grid: str) -> float:
    """``value`` if it is a node of ``n_steps`` equal cells on [0, end], else a ConfigError."""
    steps = value / end * n_steps
    _require(
        -0.5 <= steps <= n_steps + 0.5 and abs(round(steps) * end / n_steps - value) <= 1e-9,
        f"{name} = {value} must be a node of the {grid}",
    )
    return value


def _on_t_grid(value: float, name: str, t_grid: TimeGrid) -> float:
    """``value`` if it is a node of the time grid on [0, t_star], else a ConfigError naming ``name``."""
    return _on_grid(value, name, t_grid.t_star, t_grid.n_steps, "time grid on [0, t_star]")


def _panel(pairs: tuple, t_grid: TimeGrid, x_grid: MaturityGrid) -> tuple:
    # the panel target P(0, T) is read off the t = 0 curve, which ends at x_max;
    # the estimator reads row t and maturity column T of the priced surfaces
    for i, pair in enumerate(pairs):
        _require(
            len(pair) == 2 and 0.0 <= pair[0] <= min(pair[1], t_grid.t_star)
            and pair[1] <= x_grid.x_max,
            f"check.pairs: {list(pair)} needs [t, T] with 0 <= t <= min(T, t_star) and T <= x_max",
        )
        _on_t_grid(pair[0], f"check.pairs[{i}] t", t_grid)
        _on_grid(pair[1], f"check.pairs[{i}] T", x_grid.x_max, x_grid.m_steps,
                 "maturity grid on [0, x_max]")
    return pairs


def _path_count(n_paths: int, pairs: tuple, name: str) -> int:
    """``n_paths`` if the panel can run on that many paths, else a ConfigError naming ``name``."""
    _require(n_paths >= 2 or not pairs,
             f"{name} must be >= 2 when check.pairs is set: the panel needs standard errors")
    return n_paths


def _initial_curve(block: dict, t_grid: TimeGrid, x_grid: MaturityGrid) -> InitialCurve:
    """The ``initial_curve`` block sampled on the extended grid [0, t_star + x_max]."""
    n_points = t_grid.n_steps + x_grid.m_steps + 1
    if block["type"] == "flat":
        _require(block["rate"] is not None, "config needs initial_curve.rate for a flat curve")
        return InitialCurve.flat(block["rate"], t_grid.dt, n_points)
    xs, values, end = block["x"], block["value"], (n_points - 1) * t_grid.dt
    _require(xs is not None and values is not None,
             "config needs initial_curve.x and initial_curve.value for a table curve")
    _require(len(values) == len(xs),
             f"initial_curve.value needs one value per x, got {len(values)} for {len(xs)}")
    _require(all(a < b for a, b in zip(xs, xs[1:])), f"initial_curve.x must increase, got {xs}")
    _require(len(xs) > 0 and xs[0] <= 0.0 and xs[-1] + 1e-12 >= end,
             f"initial_curve.x must cover [0, t_star + x_max] = [0, {end}], got {xs}")
    return InitialCurve.from_table(xs, values, t_grid.dt, n_points)


def _build_factor(obj: dict, name: str):
    """The factor described by the model object at ``name``."""

    def get(field: str):
        return _get(obj, f"{name}.{field}", f"model.{field}")

    kind = get("type")
    if kind == "ho-lee":
        return FlatVol(get("sigma"))
    if kind == "hull-white":
        return ExpDecayVol(get("sigma"), get("decay"))
    try:
        return TabulatedVol(obj["t_grid"], obj["x_grid"], obj["values"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: invalid 'tabulated' factor: {exc}") from exc


def _build_model(block: dict) -> VolatilitySpec:
    factors = _get(block, "model.factors")
    if factors is None:
        return VolatilitySpec(factors=(_build_factor(block, "model"),))
    return VolatilitySpec(factors=tuple(
        _build_factor(f, f"model.factors[{i}]") for i, f in enumerate(factors)
    ))


def _build_strategies(blocks: list, t_grid: TimeGrid) -> dict:
    """The strategies keyed by name, in config order.

    The ledger reads every leg boundary, atom and gate maturity off the
    discounted prices, whose columns are nodes of the time grid.
    """

    def node(obj: dict, name: str) -> float:
        return _on_t_grid(_get(obj, name), name, t_grid)

    built = {}
    for s_i, block in enumerate(blocks):
        key = f"strategies[{s_i}]"
        name = _get(block, f"{key}.name")
        name = f"strategy_{s_i}" if name is None else name
        _require(name not in built, f"{key}.name: strategies need distinct names, {name!r} repeats")
        legs = []
        for l_i, leg in enumerate(_get(block, f"{key}.legs")):
            at = f"{key}.legs[{l_i}]"
            atoms = tuple(
                (node(atom, f"{at}.atoms[{a_i}].T"), _get(atom, f"{at}.atoms[{a_i}].w"))
                for a_i, atom in enumerate(_get(leg, f"{at}.atoms"))
            )
            gate = _get(leg, f"{at}.gate")
            if _get(gate, f"{at}.gate.kind") == "threshold":
                gate = Gate("threshold", node(gate, f"{at}.gate.maturity"),
                            _get(gate, f"{at}.gate.op"), _get(gate, f"{at}.gate.level"))
            else:
                gate = Gate()
            legs.append((node(leg, f"{at}.from"), node(leg, f"{at}.to"),
                         DiscreteMeasure(atoms), gate))
        try:
            built[name] = Strategy(legs=tuple(StrategyLeg(*leg) for leg in legs),
                                   horizon=t_grid.t_star)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return built


@dataclass
class ExperimentConfig:
    raw: dict
    hurst: HurstParam
    model: VolatilitySpec
    t_grid: TimeGrid
    x_grid: MaturityGrid
    initial_curve: InitialCurve
    n_paths: int
    seed: int
    method: str
    batch_size: int
    theta_cells: int
    pairs: tuple  # ((t, T), ...) as floats
    oscillation: dict | None  # {"taus": [...], "thresholds": [...]}; None: no probe
    strategies: dict  # name -> Strategy, in config order
    cost_levels: list
    admissibility_bound: float
    consistency: dict

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        values = _values(raw, "")
        grids, mc, check, costs = (values[k] for k in ("grids", "mc", "check", "costs"))
        try:
            t_grid, x_grid = simulation_grids(**grids)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pairs, oscillation = _panel(check["pairs"], t_grid, x_grid), check["oscillation"]
        # the probe reads Z_tau(tau) off the time-grid maturities
        for tau in oscillation["taus"] if oscillation else ():
            _on_t_grid(tau, "check.oscillation.taus", t_grid)
        return cls(
            raw=raw, hurst=HurstParam(values["hurst"]), model=_build_model(values["model"]),
            t_grid=t_grid, x_grid=x_grid,
            initial_curve=_initial_curve(values["initial_curve"], t_grid, x_grid),
            n_paths=_path_count(mc["n_paths"], pairs, "mc.n_paths"), seed=mc["seed"],
            method=mc["method"], batch_size=mc["batch_size"],
            theta_cells=values["drift"]["theta_cells"], pairs=pairs, oscillation=oscillation,
            strategies=_build_strategies(values["strategies"], t_grid),
            cost_levels=costs["k"], admissibility_bound=costs["admissibility_bound"],
            consistency=values["consistency"],
        )

    def override(self, key: str, value, flag: str) -> None:
        """Set the ``mc`` value ``key`` from the command-line ``flag``, under the same rules."""
        setattr(self, key.partition(".")[2], _coerce(flag, value, key))
        _path_count(self.n_paths, self.pairs, flag)

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

    def sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()
