"""Benchmark of the ``fhjm`` command line: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's JSON config is generated
from --seed (see workloads.py); the program sees only that config.  Each
command runs in its own fresh process (launch.py), one at a time, with
OpenBLAS/OpenMP pinned to BLAS_THREADS threads.  Whole rounds repeat until
the next one would end after S seconds (at least one round runs).  Every
command's outputs are checked (checks.py).

--trace 0: a round is one command; prints the end-to-end metrics, each the
median over the run's commands.
--trace 1: a round is one untraced command followed by one traced
command; prints the per-layer metrics, each the median over the traced
commands, plus the tracing overhead and the traced wall time that the
layer self times and set-up leave unaccounted.

The last line of standard output is the JSON result.  Outputs, configs,
logs and raw traces go to perfbench/_out/<workload>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BLAS_THREADS = 1
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "paths_per_s": "paths/s"}

# span name -> (self-time metric, call-count metric or None)
LAYERS = {
    "kernels.gram": ("kernels.gram_s", "kernels.gram_builds"),
    "fbm.generate": ("fbm.generate_s", None),
    "vol.tab_integral": ("vol.tab_integral_s", "vol.tab_integral_calls"),
    "drift.field": ("drift.field_s", None),
    "drift.identity": ("drift.identity_s", None),
    "hjm.forward": ("hjm.forward_s", None),
    "hjm.bond": ("hjm.bond_s", None),
    "hjm.discount": ("hjm.discount_s", None),
    "noarb.estimator": ("noarb.estimator_self_s", None),
    "ledger.liquidation": ("ledger.liquidation_s", "ledger.liquidation_calls"),
    "ledger.ibp": ("ledger.ibp_s", "ledger.ibp_calls"),
    "cli": ("cli.self_s", None),
    "config.load": ("config.load_s", None),
}
PER_LAYER = {metric: ("s" if metric.endswith("_s") else "count")
             for pair in LAYERS.values() for metric in pair if metric}
PER_LAYER.update({
    "fbm.paths": "count",
    "hjm.batch_surface_mb": "MB",
    "cli.csv_rows": "count",
    "cli.csv_mb": "MB",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
})


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def csv_output(out: str) -> tuple[int, int]:
    """Data rows (header excluded) and bytes of the CSV files in ``out``."""
    rows = size = 0
    for name in os.listdir(out):
        if name.endswith(".csv"):
            path = os.path.join(out, name)
            with open(path, "rb") as fh:
                rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
            size += os.path.getsize(path)
    return rows, size


def layer_values(trace: dict, spans: np.ndarray) -> dict:
    """Self time and call count per layer from one command's spans."""
    name_id = spans[:, 0].astype(int)
    parent = spans[:, 1].astype(int)
    duration = spans[:, 3] - spans[:, 2]
    self_time = duration.copy()
    nested = parent >= 0
    np.subtract.at(self_time, parent[nested], duration[nested])
    values = {metric: 0 for metric in PER_LAYER}
    for i, name in enumerate(trace["names"]):
        time_metric, count_metric = LAYERS[name]
        values[time_metric] += float(self_time[name_id == i].sum())
        if count_metric:
            values[count_metric] += int(np.count_nonzero(name_id == i))
    counters = trace["counters"]
    values["fbm.paths"] = int(counters.get("fbm.paths", 0))
    batches = counters.get("hjm.batches", 0)
    values["hjm.batch_surface_mb"] = (
        counters["hjm.surface_bytes"] / batches / 1e6 if batches else 0.0
    )
    return values


def run_command(workload: Workload, run_dir: str, traced: bool) -> dict:
    """One fresh process; wall time, set-up, peak RSS, trace and check result."""
    out = os.path.join(run_dir, "out")
    shutil.rmtree(out, ignore_errors=True)
    marks = os.path.join(run_dir, "marks.json")
    for stale in (marks, marks + ".npy"):
        if os.path.exists(stale):
            os.remove(stale)
    argv = [sys.executable, os.path.join(HERE, "launch.py"), marks, "1" if traced else "0",
            "--", workload.command, os.path.join(run_dir, "config.json"), "--out", out]
    env = {**os.environ, **CHILD_ENV}
    env.pop("FHJM_OUT_DIR", None)
    with open(os.path.join(run_dir, "command.log"), "ab") as log:
        start = now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"failed": proc.returncode != 0 or not os.path.exists(marks), "wall": wall,
              "rss_mb": usage.ru_maxrss * 1024 / 1e6, "errors": []}
    if result["failed"]:
        print(f"{workload.name}: command exited {proc.returncode}; see {run_dir}/command.log",
              file=sys.stderr)
        return result
    with open(marks) as fh:
        mark = json.load(fh)
    result["setup"] = mark["setup_end"] - start
    result["errors"] = check(workload, out)
    if traced:
        spans = np.load(marks + ".npy")
        values = layer_values(mark, spans)
        values["cli.csv_rows"], csv_bytes = csv_output(out)
        values["cli.csv_mb"] = csv_bytes / 1e6
        top = (spans[:, 1] < 0) & (spans[:, 0] == mark["names"].index("cli"))
        cli_time = float((spans[top, 3] - spans[top, 2]).sum())
        values["trace.unaccounted_s"] = wall - result["setup"] - cli_time
        result["layers"] = values
        os.replace(marks, os.path.join(run_dir, "trace.json"))
        os.replace(marks + ".npy", os.path.join(run_dir, "trace_spans.npy"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fhjm", "cli.py")):
        print(f"no fhjm sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(SRC, "fhjm"), quiet=1):
        print("compiling src/fhjm failed", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = os.path.join(HERE, "_out", f"{workload.name}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(workload.config, fh, indent=1)

    plain, traced = [], []
    begin = now()
    while True:
        round_start = now()
        plain.append(run_command(workload, run_dir, traced=False))
        if args.trace:
            traced.append(run_command(workload, run_dir, traced=True))
        elapsed = now() - begin
        if elapsed + (now() - round_start) > args.seconds:
            break

    ok_plain = [r for r in plain if not r["failed"]]
    ok_traced = [r for r in traced if not r["failed"]]
    errors = sorted({e for r in ok_plain + ok_traced for e in r["errors"]})
    for e in errors:
        print(f"{workload.name}: check failed: {e}", file=sys.stderr)
    metrics = {}
    if args.trace and ok_plain and ok_traced:
        layers = {name: statistics.median(r["layers"][name] for r in ok_traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in ok_traced)
                                      - statistics.median(r["wall"] for r in ok_plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    elif not args.trace and ok_plain:
        values = {
            "wall_s": [r["wall"] for r in ok_plain],
            "setup_s": [r["setup"] for r in ok_plain],
            "peak_rss_mb": [r["rss_mb"] for r in ok_plain],
            "paths_per_s": [workload.n_paths / (r["wall"] - r["setup"]) for r in ok_plain],
        }
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    with open(os.path.join(run_dir, "commands.json"), "w") as fh:
        json.dump({"plain": plain, "traced": traced}, fh, indent=1)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"commands={len(plain)}+{len(traced)} blas_threads={BLAS_THREADS} "
          f"elapsed_s={now() - begin:.2f}")
    print(json.dumps({
        "correct": not errors and bool(metrics),
        "attempted": len(plain) + len(traced),
        "failed": len(plain) + len(traced) - len(ok_plain) - len(ok_traced),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
