"""Run one ``fhjm`` command in this process, with timing marks around it.

Usage (run.py starts it; one fresh process per command):

    python3 perfbench/launch.py MARKS_JSON TRACE -- <fhjm cli arguments>

The program is imported from ``src/`` of the checkout this file sits in.
With TRACE 0 the only hook records the moment the command function is
entered, which ends set-up (imports, config load and validation).  With
TRACE 1 the public functions of each ``fhjm`` module are wrapped, from
here, where their callers look them up: every call becomes a span
(name, parent, start, end) kept in memory and written, when the command
returns, to MARKS_JSON.npy, with span names and counters in MARKS_JSON.  All times are CLOCK_MONOTONIC seconds, the clock
run.py reads in the parent process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

CLOCK = time.CLOCK_MONOTONIC
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def now() -> float:
    return time.clock_gettime(CLOCK)


class Tracer:
    """In-memory spans and counters; one per traced command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result)`` adds to counters."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name_id, parent, now(), 0.0]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                self.stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return wrapper

    def dump(self, spans_path: str) -> dict:
        """Spans to ``spans_path`` as an (n, 4) float array; the rest as a dict."""
        import numpy as np

        np.save(spans_path, np.array(self.spans, dtype=float).reshape(-1, 4))
        return {"names": self.names, "counters": self.counters}


def replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` in every loaded fhjm module that holds it by name."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fhjm" and not mod_name.startswith("fhjm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_tracing(tracer: Tracer) -> None:
    from fhjm import config, drift, fbm, hjm, kernels, ledger, noarb, vol

    def paths(result):
        return {"fbm.paths": result.n_paths}

    functions = [
        (kernels.cov_cell_integral, "kernels.gram", None),
        (fbm.generate_cholesky, "fbm.generate", paths),
        (fbm.generate_volterra, "fbm.generate", paths),
        (hjm.drift_for_simulation, "drift.field", None),
        (noarb.drift_identity_check, "drift.identity", None),
        (drift.log_expectation, "drift.identity", None),
        (hjm.simulate_forward, "hjm.forward",
         lambda r: {"hjm.surface_bytes": r.rates.nbytes, "hjm.batches": 1}),
        (hjm.bond_surface, "hjm.bond", lambda r: {"hjm.surface_bytes": r.prices.nbytes}),
        (hjm.money_account, "hjm.discount", None),
        (hjm.discounted_surface, "hjm.discount",
         lambda r: {"hjm.surface_bytes": r.discounted.nbytes}),
        (noarb.check_quasi_martingale, "noarb.estimator", None),
        (ledger.liquidation_value, "ledger.liquidation", None),
        (ledger.integration_by_parts_check, "ledger.ibp", None),
    ]
    for fn, name, count in functions:
        replace_everywhere(fn, tracer.wrap(name, fn, count))

    vol.TabulatedVol.integral_in_x = tracer.wrap(
        "vol.tab_integral", vol.TabulatedVol.integral_in_x
    )
    driver_generate = fbm.BrownianDriver.generate.__func__
    fbm.BrownianDriver.generate = classmethod(tracer.wrap("fbm.generate", driver_generate))
    load = config.ExperimentConfig.load.__func__
    config.ExperimentConfig.load = classmethod(tracer.wrap("config.load", load))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launch.py MARKS_JSON TRACE -- <fhjm arguments>", file=sys.stderr)
        return 2
    marks_path, trace = argv[0], argv[1] == "1"
    sys.path.insert(0, SRC)
    from fhjm import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"fhjm was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    marks: dict = {}
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracing(tracer)
    for name in ("cmd_simulate", "cmd_drift", "cmd_check", "cmd_consistency", "cmd_portfolio"):
        command = getattr(cli, name)

        def entered(*args, _command=command, **kwargs):
            marks["setup_end"] = now()
            return _command(*args, **kwargs)

        if tracer is not None:
            entered = tracer.wrap("cli", entered)
        setattr(cli, name, entered)

    status = cli.main(argv[3:])
    if tracer is not None:
        marks.update(tracer.dump(marks_path + ".npy"))
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
