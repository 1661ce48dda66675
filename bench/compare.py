"""Compare a parent checkout (A) with a change (B), one row per workload and metric.

Ten pairs are run per workload, with the same seed on both sides and
alternating which side runs first, so both runs of a pair see the host
in the same phase.  The rule, for each end-to-end metric of
BENCHMARK.json:

* **gain** — the change wins at least nine of the ten pairs (ties count
  for neither side), the medians differ by more than the parent's spread
  (the distance between its quartiles), and the change failed no more
  points than the parent;
* **regression** — the change's median is worse than the parent's by
  more than the metric's ``bound``;
* **unresolved** — the spread of either side, as a share of its median,
  is wider than the bound, unless every run of the change reads better
  than every run of the parent;
* **same** — none of these.

Each workload also gets a ``failed`` row, a regression whenever the
change failed more points than the parent.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from datetime import datetime
from pathlib import Path

from bench import OUT_DIR
from bench.run import RUN_DEADLINE_S, BenchError, load_benchmark

#: Pairs run per workload, and the share of them a gain must win.
PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent: list[float], change: list[float], better: str, bound: float,
          more_failures: bool = False) -> dict:
    """The verdict for one metric on one workload, from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    worse = sign * (qa[1] - qb[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if (not more_failures and len(pairs) >= PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (qb[1] - qa[1]) > qa[2] - qa[0]):
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and not all(sign * (b - a) > 0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent": qa, "change": qb, "pairs": len(pairs), "wins": wins,
            "worse": worse, "spread": spread, "verdict": verdict}


def judge_failures(parent: list[dict], change: list[dict]) -> dict:
    """The ``failed`` row: total failed points on each side."""
    fa, fb = (sum(r["failed"] for r in runs) for runs in (parent, change))
    return {"parent": (fa, fa, fa), "change": (fb, fb, fb), "pairs": len(parent),
            "wins": 0, "worse": 0.0, "spread": 0.0,
            "verdict": "regression" if fb > fa else "same"}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of *checkout*'s own benchmark command."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10,
    )
    if proc.returncode != 0:
        raise BenchError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "checkout": str(checkout), **result}


def run_pairs(a: Path, b: Path, workloads: list[str],
              seconds: float) -> tuple[list[dict], list[dict]]:
    """Pair *i* runs seed *i* + 1 on both sides; odd pairs run B first."""
    runs_a, runs_b = [], []
    log = OUT_DIR / f"compare-{datetime.now():%Y%m%d-%H%M%S}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for i in range(PAIRS):
            sides = [(a, runs_a), (b, runs_b)]
            for checkout, sink in sides if i % 2 == 0 else sides[::-1]:
                sink.append(run_side(checkout, workload, i + 1, seconds))
                with open(log, "a") as fh:
                    fh.write(json.dumps(sink[-1]) + "\n")
    return runs_a, runs_b


def compare(runs_a: list[dict], runs_b: list[dict], bench: dict,
            workloads: list[str]) -> list[tuple[str, str, dict]]:
    rows = []
    for workload in workloads:
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = [r for r in runs_b if r["workload"] == workload]
        failures = judge_failures(side_a, side_b)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in side_a]
            values_b = [r["metrics"][name]["value"] for r in side_b]
            rows.append((workload, name, judge(
                values_a, values_b, metric["better"], metric["bound"],
                more_failures=failures["verdict"] == "regression")))
        rows.append((workload, "failed", failures))
    return rows


def render(rows: list[tuple[str, str, dict]]) -> str:
    def fmt(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [f"{'workload':14s} {'metric':18s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'worse':>7s} {'spread':>7s} "
             f"{'wins':>6s}  verdict"]
    for workload, name, j in rows:
        lines.append(
            f"{workload:14s} {name:18s} {fmt(j['parent']):34s} {fmt(j['change']):34s} "
            f"{j['worse']:+7.2%} {j['spread']:7.2%} {j['wins']:>3d}/{j['pairs']:<2d}  "
            f"{j['verdict']}")
    return "\n".join(lines)


def main(args) -> int:
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    a, b = Path(args.a), Path(args.b)
    if not ((a / "bench" / "run.py").is_file() and (b / "bench" / "run.py").is_file()):
        print("compare: A and B must both be checkouts with bench/run.py",
              file=sys.stderr)
        return 2
    runs_a, runs_b = run_pairs(a, b, workloads, bench["run_seconds"])
    rows = compare(runs_a, runs_b, bench, workloads)
    print(render(rows))
    if not all(r["correct"] for r in runs_a + runs_b):
        print("some runs reported incorrect outputs")
        return 1
    return 1 if any(j["verdict"] == "regression" for *_k, j in rows) else 0
