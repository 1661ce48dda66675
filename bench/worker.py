"""One workload in one fresh interpreter: set up, time passes, check results.

``run.py`` launches this as ``python -m bench.worker`` with every
``REPRO_*`` variable removed and prints its last line, ``{"result":
{...}}``.  Every time reported is in reference seconds (``speed.py``).

Phases:

* ``setup`` — set up, check the set-up results, stop;
* ``timed`` — set up, then run passes until ``--seconds`` have passed,
  with no spans; reports the end-to-end metrics;
* ``traced`` — set up, then run each point (each pass, on a workload that
  replays the cache) twice, once with spans and once without, and report
  the per-layer metrics, the span overhead and whether both halves'
  digests agree.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.channel.calibration import clear_calibration_memo
from repro.channel.session import ChannelSession, SessionConfig
from repro.experiments.arena import point as arena_point
from repro.experiments.common import payload_bits
from repro.runner import ExperimentSpec, FailurePolicy, ResultCache, Runner

from bench import OUT_DIR, workloads
from bench.ledger import unit_costs
from bench.spans import ManifestTally, Tracer, per_layer
from bench.speed import ScaledClock

#: A hang or exception becomes a failed outcome instead of stalling the run.
POLICY = FailurePolicy(timeout=60, keep_going=True)


@dataclass
class PassResult:
    outcomes: list
    #: The manifest captured while each outcome ran (None for cache hits).
    manifests: list


def run_pass(name: str, points, cache: ResultCache, tally: ManifestTally,
             clock: ScaledClock) -> PassResult:
    """One closed-loop pass: a serial ``Runner.run`` over *points*.

    Each completion closes a lap of *clock* tagged True when the point
    succeeded and False when it failed, so a point's lap runs from the
    previous completion (or from the call) to its own; the runner's work
    after the last completion is an untagged lap.
    """
    spec = ExperimentSpec(experiment=f"bench-{name}", points=tuple(points))
    outcomes, manifests = [], []

    def completed(outcome) -> None:
        outcomes.append(outcome)
        manifests.append(tally.take())
        clock.lap(not outcome.failed)

    runner = Runner(jobs=1, cache=cache, policy=POLICY, progress=completed)
    clock.restart()
    runner.run(spec)
    clock.lap()
    return PassResult(outcomes, manifests)


class Checker:
    """Checks every outcome against its pinned digest and counts failures."""

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        #: Digests of set-up and the first pass, which the run digest
        #: covers: a fixed amount of work, however many passes ran.
        self.reference: dict[str, str] = {}

    def check(self, result: PassResult) -> dict[str, str]:
        """Digest of each successful outcome, by point label."""
        digests = {}
        for outcome in result.outcomes:
            self.attempted += 1
            label = outcome.point.label
            if outcome.failed:
                self.failures.append(f"{label}: {outcome.error}")
                continue
            digests[label] = workloads.result_digest(outcome.value)
            if digests[label] != self.pins.get(label):
                self.mismatches.append(
                    f"{label}: digest {digests[label]} != pinned "
                    f"{self.pins.get(label)}")
        return digests

    def summary(self) -> dict:
        run_digest = hashlib.sha256(
            json.dumps(sorted(self.reference.items())).encode()).hexdigest()[:16]
        return {
            "correct": not self.mismatches,
            "attempted": self.attempted,
            "failed": len(self.failures) + len(self.mismatches),
            "errors": (self.mismatches + self.failures)[:10],
            "digest": run_digest,
        }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _events(outcome, manifest) -> int:
    manifest = getattr(outcome.value, "manifest", None) or manifest
    return manifest.stats.get("engine.events", 0) if manifest is not None else 0


def _pass_cache(workload, setup_cache: ResultCache, directory: Path) -> ResultCache:
    return setup_cache if workload.replay else ResultCache(directory)


def _shuffled(points, rng: random.Random) -> list:
    order = list(points)
    rng.shuffle(order)
    return order


def timed(workload, seed, seconds, tmp, tally, checker, setup_cache) -> dict:
    """Passes until *seconds* have passed; the end-to-end metrics.

    A pass is not started when half of the previous one would run past
    the end.
    """
    rng = random.Random(seed)
    clock = ScaledClock()
    events, first, passes = 0, None, 0
    start = time.perf_counter()
    for k in range(sys.maxsize):
        if workload.cold:
            clear_calibration_memo()
        directory = tmp / f"pass{k}"
        points = _shuffled(workload.passes[k % len(workload.passes)], rng)
        began = time.perf_counter()
        result = run_pass(workload.name, points,
                          _pass_cache(workload, setup_cache, directory), tally, clock)
        clock.flush()
        passes += 1
        ended = time.perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        digests = checker.check(result)
        ok = [(o, m) for o, m in zip(result.outcomes, result.manifests) if not o.failed]
        events += sum(_events(o, m) for o, m in ok)
        if first is None:
            # The digest and the simulated metrics cover set-up and the
            # first pass only, so they do not depend on how many passes
            # fit in the run.
            checker.reference.update(digests)
            first = [workloads.accuracy_and_rate(o.value) for o, _m in ok]
        if ended - start + (ended - began) / 2 >= seconds:
            break
    latencies = [s for ok, s in clock.laps if ok]
    if not latencies or not first:
        raise SystemExit(f"{workload.name}: no point succeeded")
    wall = clock.total()
    return {
        "metrics": {
            "points_per_s": len(latencies) / wall,
            "point_p50_ms": statistics.median(latencies) * 1e3,
            "point_p75_ms": percentile(latencies, 75) * 1e3,
            "sim_events_per_s": events / wall,
            "bit_accuracy": math.fsum(a for a, _r in first) / len(first),
            "channel_kbps": math.fsum(r for _a, r in first) / len(first),
        },
        "samples": len(latencies),
        "passes": passes,
        "probe_ms": statistics.median(clock.probes) * 1e3,
    }


def _entry_sizes(directory: Path) -> list[int]:
    return [p.stat().st_size for p in directory.rglob("*.pkl")]


def traced(workload, seed, seconds, tmp, tally, checker, setup_cache, tracer) -> dict:
    """Points run twice, with and without spans; the per-layer metrics.

    Each point (each pass, on a workload that replays the cache, whose
    points take about a millisecond) runs once with spans and once
    without, alternating which goes first, and each half is followed by
    its own probe.  Neighbouring halves see the host in the same phase,
    so the span overhead is not lost in its drift.
    """
    rng = random.Random(seed)
    # No probe inside a pass: it would land in the runner's self time.
    clocks = {False: ScaledClock(probe_every=math.inf),
              True: ScaledClock(probe_every=math.inf)}
    run = {"points": 0, "executed": 0, "detector_events": 0, "detector_peak": 0}
    sizes = _entry_sizes(setup_cache.root)
    deadline = time.perf_counter() + seconds
    chunks = 0
    for k in range(sys.maxsize):
        points = _shuffled(workload.passes[k % len(workload.passes)], rng)
        units = [points] if workload.replay else [[p] for p in points]
        for chunk in units:
            digests = {}
            for spans_on in (False, True) if chunks % 2 == 0 else (True, False):
                if workload.cold:
                    clear_calibration_memo()
                # Both halves start from a collected heap, so a collection
                # triggered by the other half's garbage lands in neither.
                gc.collect()
                directory = tmp / f"chunk{chunks}-{int(spans_on)}"
                cache = _pass_cache(workload, setup_cache, directory)
                if spans_on:
                    tracer.install()
                try:
                    result = run_pass(workload.name, chunk, cache, tally, clocks[spans_on])
                finally:
                    tracer.uninstall()
                clocks[spans_on].flush()
                digests[spans_on] = checker.check(result)
                if spans_on:
                    sizes += [] if workload.replay else _entry_sizes(directory)
                    _count_traced(run, result)
                shutil.rmtree(directory, ignore_errors=True)
            if digests[False] != digests[True]:
                checker.mismatches.append(
                    f"chunk {chunks}: traced digests differ from untraced")
            if k == 0:
                checker.reference.update(digests[True])
            chunks += 1
        if time.perf_counter() >= deadline:
            break
    arena = workload.passes[0][0].fn == workloads.ARENA_POINT
    run.update(
        entry_bytes=statistics.mean(sizes) if sizes else 0.0,
        span_overhead=clocks[True].total() / clocks[False].total() - 1.0,
        twins=arena_twins(workload.passes[0]) if arena else {},
        unit_costs=unit_costs(),
    )
    return {"metrics": per_layer(tracer, run), "samples": run["points"],
            "passes": k + 1}


def _count_traced(run: dict, result: PassResult) -> None:
    run["points"] += len(result.outcomes)
    for outcome in result.outcomes:
        if outcome.failed or outcome.cached:
            continue
        run["executed"] += 1
        if isinstance(outcome.value, dict):
            run["detector_events"] += outcome.value.get("events", 0)
            run["detector_peak"] += outcome.value.get("peak_tracked", 0)


def arena_twins(points) -> dict[str, float]:
    """Tracing and detector-sink cost per event, from twin transmissions.

    Each arena point runs three ways on the same cell, seed and payload:
    as the arena point (traced, detector subscribed), traced only, and
    untraced.  The calibration memo is cleared before each, so all three
    calibrate cold, and the order rotates from point to point.  Each run
    is followed by a probe, so the three are compared in reference time.
    """
    variants = ("subscribed", "traced", "untraced")
    clocks = {v: ScaledClock(probe_every=math.inf) for v in variants}
    traced_events = detector_events = 0
    for i, point in enumerate(points):
        params = point.params
        cell = params["workload"].partition(":")[2]
        for variant in variants[i % 3:] + variants[:i % 3]:
            clear_calibration_memo()
            clocks[variant].restart()
            if variant == "subscribed":
                row = arena_point(**params)
            else:
                session = ChannelSession(SessionConfig(
                    spec=cell, seed=params["seed"], trace=variant == "traced"))
                result = session.transmit(payload_bits(params["bits"]))
            clocks[variant].lap()
            clocks[variant].flush()
            if variant == "subscribed":
                detector_events += row["events"]
            elif variant == "traced":
                traced_events += result.manifest.traced_events
    walls = {v: clock.total() for v, clock in clocks.items()}

    def per_event_ns(seconds: float, events: int) -> float:
        return seconds * 1e9 / events if events else 0.0

    return {
        "obs.event_ns": per_event_ns(walls["traced"] - walls["untraced"], traced_events),
        "detection.sink_ns": per_event_ns(
            walls["subscribed"] - walls["traced"], detector_events),
    }


def setup(workload, tally, setup_cache, launched: float, before: float,
          tracer) -> tuple[float, PassResult]:
    """Run the set-up points; set-up time in reference seconds.

    Set-up time starts when ``run.py`` launched this interpreter
    (*launched*, on the system-wide monotonic clock, right after a probe
    that took *before* seconds): interpreter start and imports are the
    first lap, the set-up points the rest.
    """
    clock = ScaledClock(before=before)
    clock.lap(since=time.perf_counter() - (time.monotonic() - launched))
    clock.flush()
    if tracer is not None:
        tracer.install()
    try:
        result = run_pass(workload.name, workload.setup, setup_cache, tally, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "timed"
    clock.flush()
    return clock.total(), result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--phase", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the interpreter was launched")
    parser.add_argument("--probe-before", type=float, required=True,
                        help="seconds a probe took just before the launch")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.smoke)
    checker = Checker(workloads.load_pins())
    tally = ManifestTally()
    tally.install()
    tracer = Tracer() if args.phase == "traced" else None
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR / "tmp"))
    try:
        setup_cache = ResultCache(tmp / "setup")
        setup_s, result = setup(workload, tally, setup_cache, args.launched,
                                args.probe_before, tracer)
        # Memory is read at the end of set-up, which every seed runs alike.
        # Over the timed passes the allocator keeps growing, and on
        # traced_arena the peak depends on when the cyclic collector frees
        # the previous point's Machine, which the point order decides.
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checker.reference.update(checker.check(result))
        report = {}
        if args.phase == "timed":
            report = timed(workload, args.seed, args.seconds, tmp, tally,
                           checker, setup_cache)
        elif args.phase == "traced":
            report = traced(workload, args.seed, args.seconds, tmp, tally,
                            checker, setup_cache, tracer)
            tracer.write(OUT_DIR / f"spans-{workload.name}-s{args.seed}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"result": {**report, **checker.summary(), "setup_s": setup_s,
                                 "setup_rss_mb": setup_rss_mb}}), flush=True)


if __name__ == "__main__":
    main()
