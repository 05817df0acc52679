"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload city-parking --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``city-parking``, ``fleet-sharded``, ``home-events``.  With
``--trace 0`` the last line of standard output is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics, after the self-time table, and a Chrome trace is written under
``perfbench/out/``.  Every run checks the workload's outputs against its
reference; mismatches are printed by name and make ``correct`` false.
The program under test is the ``repro`` package in ``src/``; the run
exits non-zero, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# End-to-end metric units; the names mean, per workload (see README.md):
# throughput_per_s - readings per second (city, fleet), events (home);
# cpu_us_per_op    - CPU microseconds per reading or per event chain;
# latency_*_ms     - one tick/sweep advance, or one event chain;
#                    tail = p90 for ticks and sweeps, p99 for events.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_us_per_op": "us",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="length of the timed window (a traced run drives a fixed "
        "number of units instead, so its counters repeat exactly)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench import harness
    from perfbench.counters import PER_LAYER

    args = _parse(argv, harness.WORKLOADS)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print(
            "perfbench: the repro package is missing from src/; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.trace:
        trace_path = os.path.join(
            harness.OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json"
        )
        result = harness.run_traced(
            args.workload, args.seed, trace_path=trace_path
        )
        print(result["table"])
        print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
        units = {name: unit for name, (unit, __) in PER_LAYER.items()}
    else:
        result = harness.run_untraced(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    for failure in result["failures"]:
        print(f"MISMATCH {failure}")
    attempted = max(1, result["attempted"])
    print(
        f"{args.workload}: {result['units']} units, error_rate "
        f"{result['failed'] / attempted:.6f} "
        f"({result['failed']}/{attempted})"
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["failures"],
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
