"""python -m bench {run,trace,compare,pin}; see README.md."""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench.compare import main as compare_main
from bench.run import BenchError, describe, load_benchmark, run_workload

#: ``trace`` fails when spans cost this share of a workload's speed or more.
SPAN_OVERHEAD_LIMIT = 0.03


def cmd_measure(args, trace: bool) -> int:
    bench = load_benchmark()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    moves = {}
    if trace:
        from bench.spans import MOVES
        moves = MOVES
    status = 0
    for name in names:
        try:
            record = run_workload(name, args.seed, bench["run_seconds"], trace, args.smoke)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            status = 1
            continue
        for line in describe(record):
            metric = line.split(" ")[1]
            if metric in moves:
                line += f"  [{metric.split('.')[0]}] -> {moves[metric]}"
            print(line)
        if not record["correct"]:
            status = 1
        overhead = record["metrics"].get("bench.span_overhead", {}).get("value", 0.0)
        if overhead >= SPAN_OVERHEAD_LIMIT:
            print(f"{name}: spans cost {overhead:.1%} of points_per_s, "
                  f"limit {SPAN_OVERHEAD_LIMIT:.0%}")
            status = 1
    return status


def cmd_pin(_args) -> int:
    """Recompute pins.json by running every point once, serially."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    from repro.runner import ExperimentSpec, Runner

    from bench import workloads

    pins = {}
    for name in workloads.WORKLOADS:
        points = workloads.all_points(workloads.build(name))
        report = Runner(jobs=1).run(ExperimentSpec(f"pin-{name}", tuple(points)))
        for point, value in zip(points, report.values):
            pins[point.label] = workloads.result_digest(value)
        print(f"{name}: {len(points)} points pinned")
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("run", "end-to-end metrics, outputs checked"),
                          ("trace", "per-layer metrics from a traced run")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--workload", action="append",
                       help="repeatable; default every workload")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--smoke", action="store_true")
    compare = sub.add_parser(
        "compare", help="parent checkout A against change B: gains, regressions, unresolved")
    compare.add_argument("a", help="the parent's checkout directory")
    compare.add_argument("b", help="the change's checkout directory")
    compare.add_argument("--workload", action="append")
    sub.add_parser("pin", help="recompute the pinned point digests")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_measure(args, trace=False)
    if args.command == "trace":
        return cmd_measure(args, trace=True)
    if args.command == "compare":
        return compare_main(args)
    return cmd_pin(args)


if __name__ == "__main__":
    sys.exit(main())
