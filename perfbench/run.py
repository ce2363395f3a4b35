"""Benchmark entry point: one workload, one run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload {serve,fig3,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  ``--trace 0`` measures the end-to-end metrics with
no tracing installed; ``--trace 1`` is a separate run that times each
layer from outside and reports the per-layer metrics.  Diagnostics
(machine state, set-up samples, correctness detail, tail percentile
and sample count) are printed as one ``diagnostics`` JSON line before
the result, which is always the last line of standard output.

Every op and set-up time is scaled to a nominal host speed
(``common.HostSpeed``): a fixed mix of reference work is timed between
ops, on the CPU the program runs on, and each op's time is multiplied
by the mix's nominal time over its measured time nearby.  The shared
host changes speed by 20-40% within seconds, for the program and the
reference alike; the scaled times follow it far less.  The unscaled
figures are in the diagnostics (``unscaled``, ``host_speed``).  The
per-layer self times of a traced run are unscaled, and its uncovered
share compares them with unscaled op times.

The metric names and units printed are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from common import ROOT, result_line  # pins the BLAS/OpenMP pools

WORKLOADS = {
    "serve": "serve_workload",
    "fig3": "fig3_workload",
    "stream": "stream_workload",
}


def declared_metrics() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, unit) of the end-to-end and per-layer metrics in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end, per_layer = declared_metrics()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - start

    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    outcome.metric("ok_share", 1.0 - outcome.failed / max(outcome.attempted, 1), "fraction")
    outcome.diagnostics["checks"] = outcome.checks
    outcome.diagnostics["failed_share"] = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        outcome.metrics.setdefault("setup.import_s", (import_s, "s"))
        # Layers this workload does not run spent no time: report 0.
        missing = [name for name, _ in per_layer if name not in outcome.metrics]
        for name, unit in per_layer:
            outcome.metrics.setdefault(name, (0.0, unit))
        outcome.diagnostics["layers_not_run"] = missing
        names = per_layer
    else:
        outcome.diagnostics["setup_import_s"] = import_s
        names = end_to_end
    print("diagnostics " + json.dumps(outcome.diagnostics, default=float), flush=True)
    print(result_line(outcome, names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
