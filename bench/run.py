"""Measure one workload; the benchmark command named in BENCHMARK.json.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in fresh interpreters (``python -m bench.worker``)
with every ``REPRO_*`` variable removed, built from this checkout's
``src/``.  Untraced, two set-up-only interpreters and one timed
interpreter give three set-up times and set-up memory peaks, whose
medians are ``setup_s`` and ``peak_rss_mb``, and the other end-to-end
metrics.  Traced, one interpreter gives the per-layer metrics.  The
last line printed is the JSON result; a record with the host and
environment is written under ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT_DIR, ROOT
from bench.speed import probe

#: Set-up samples per untraced run; the timed interpreter is the last.
SETUP_SAMPLES = 3

#: Every interpreter of one run must finish within this many seconds.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> tuple[dict[str, str], list[str]]:
    """The workers' environment, and the ``REPRO_*`` names removed from it."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env, removed


def spawn(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Run one worker to the end; its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for worker {' '.join(args)}")
    before = probe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", *args,
         "--probe-before", repr(before), "--launched", repr(time.monotonic())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])["result"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` (absent in exported trees)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Measure *workload* once; the full record of the run."""
    bench = load_benchmark()
    env, removed = child_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    results = []
    if trace:
        result = spawn([*common, "--phase", "traced"], env, deadline)
        results.append(result)
        metrics = result["metrics"]
    else:
        for _ in range(0 if smoke else SETUP_SAMPLES - 1):
            results.append(spawn([*common, "--phase", "setup"], env, deadline))
        result = spawn([*common, "--phase", "timed"], env, deadline)
        results.append(result)
        attempted = sum(r["attempted"] for r in results)
        metrics = {
            **result["metrics"],
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": statistics.median(r["setup_rss_mb"] for r in results),
            "ok_ratio": 1.0 - sum(r["failed"] for r in results) / attempted,
        }
    table = bench["per_layer" if trace else "end_to_end"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table
        },
        "errors": [e for r in results for e in r["errors"]],
        "digest": result["digest"],
        "samples": result.get("samples"),
        "passes": result.get("passes"),
        "setup_samples": [r["setup_s"] for r in results],
        "probe_ms": result.get("probe_ms"),
        "host": host_record(),
        "removed_env": removed,
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    records = OUT_DIR / "results"
    records.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    with open(records / f"{workload}-s{seed}-t{int(trace)}-{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the checks."""
    name = record["workload"]
    lines = [
        f"{name} {metric} = {m['value']:.6g} {m['unit']}"
        for metric, m in record["metrics"].items()
    ]
    lines.append(
        f"{name} seed={record['seed']} samples={record['samples']} "
        f"passes={record['passes']} digest={record['digest']} "
        f"correct={record['correct']} failed={record['failed']}/{record['attempted']}"
    )
    lines += [f"{name} error: {e}" for e in record["errors"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and one pass (self-tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(record)))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
