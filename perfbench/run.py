#!/usr/bin/env python3
"""The repository benchmark: the ``search`` and ``infer`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single workload runs in this process: an untimed set-up (repeated, its
median reported as ``setup_s``), then with ``--trace 0`` an untraced timed
section for the end-to-end metrics, or with ``--trace 1`` the same work
untraced and then traced for the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload, untraced and traced,
each in a fresh process.  Human-readable tables come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
correctness check failed.

Every workload reports every metric of ``BENCHMARK.json``: the
end-to-end names are generic (``ops_per_s`` is trials per second for
``search`` and images per second for ``infer``), and the per-layer
metrics of a layer a workload never calls read 0.  The tables print each
figure under its specific name as well.  The ``infer`` workload also
serves its model through the daemon; see ``serving.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from common import Metric, Report, SourcesMissing, print_table, use_sources
from stats import OpCounter

WORKLOADS = ("search", "infer")

#: the end-to-end metrics, each the same kind of figure on every workload
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("p50_ms", "ms"), ("tail_ms", "ms"))

#: which specific figure stands behind each generic name, per workload
ALIASES = {
    "search": {"ops_per_s": "search.trials_per_s",
               "p50_ms": "search.trial.p50_ms",
               "tail_ms": "search.trial.tail_ms"},
    "infer": {"ops_per_s": "infer.ips", "p50_ms": "infer.b1_p50_ms",
              "tail_ms": "infer.b1_p99_ms"},
}


def per_layer_metrics() -> List[tuple]:
    """Every per-layer metric of every workload, in report order."""
    names: List[tuple] = []
    for workload in WORKLOADS:
        names += importlib.import_module(f"wl_{workload}").LAYER_METRICS
    return names


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _result_line(ops: OpCounter, metrics: Dict[str, Dict]) -> str:
    return json.dumps({"correct": ops.correct, "attempted": ops.attempted,
                       "failed": ops.failed, "metrics": metrics})


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.obs.host import host_metadata
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g}"
          f" trace={int(trace)}")
    print(f"# host {json.dumps(host_metadata(), sort_keys=True)}")
    start = time.perf_counter()
    report: Report = importlib.import_module(f"wl_{workload}").run(
        seed, seconds, trace)
    wall = time.perf_counter() - start

    aliases = ALIASES[workload]
    if trace:
        print_table(f"{workload}: per-layer (traced run)", report.layers)
        metrics = {}
        for name, unit in per_layer_metrics():
            metric = report.layers.get(name)
            metrics[name] = {"value": metric.value if metric else 0.0,
                             "unit": unit}
    else:
        print_table(f"{workload}: end-to-end (untraced)", report.named)
        generic = {name: report.named[aliases.get(name, name)]
                   for name, _ in END_TO_END}
        print_table(f"{workload}: end-to-end as in BENCHMARK.json", {
            name: Metric(m.value, m.unit, m.n,
                         f"= {aliases.get(name, name)}")
            for name, m in generic.items()})
        metrics = {name: {"value": generic[name].value, "unit": unit}
                   for name, unit in END_TO_END}
    for note in report.notes:
        print(f"   . {note}")
    ops = report.ops
    print(f"== {workload}: ops_attempted={ops.attempted} "
          f"ops_failed={ops.failed} wall={wall:.1f}s"
          + "".join(f"\n   FAILED {n}x: {r}" for r, n in ops.reasons.items()))
    print(_result_line(ops, metrics), flush=True)
    return 0 if ops.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    total = OpCounter()
    metrics: Dict[str, Dict] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = None
            if proc.returncode != 0 or result is None:
                status = 1
                total.fail(f"{workload} trace={trace} exited "
                           f"{proc.returncode}")
                continue
            total.attempted += result["attempted"]
            total.failed += result["failed"]
            if not trace:
                for name, value in result["metrics"].items():
                    metrics[f"{workload}.{name}"] = value
    print(_result_line(total, metrics), flush=True)
    return status if total.correct else 1


def main(argv: List[str]) -> int:
    args = _parse(argv)
    # One BLAS thread, set before numpy loads: the process's own threads
    # (serve generator and worker) already fill two cores, and a second
    # BLAS thread made the float set-up read 0.1 s or 0.25 s run to run.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        use_sources()
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
