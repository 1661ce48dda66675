"""The benchmark implementations behind ``python -m repro bench``.

Methodology
-----------
Each benchmark runs a fixed, deterministic workload (fixed seeds, fixed
payloads) so that the executed event sequence is identical from run to
run and between code versions — wall clock is the only free variable.
``grid_sweep`` gates on self-relative speedups (one host, one process),
which are portable across machines in a way raw walls are not.  The
``overhead`` benchmark compares variants of one workload: it runs
interleaved pairs (``repeats`` of them, and at least
:data:`OVERHEAD_PAIRS` in a full run) and gates on the median per-pair
ratio, which a single disturbed run cannot move.

Per-point walls, points/s and engine events/s of serial sweeps belong to
the repository benchmark ``bench/``; bit-identity of the fast paths and
the service's dedupe belong to the tier-1 tests.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any

import repro

#: Deterministic payload pattern shared by every benchmark.
_PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

#: Report schema version (bump when the JSON layout changes).
#: v2 added the ``grid_sweep`` benchmark (points/s per execution mode,
#: bit-identity flag, transport byte counts).
#: v3 added ``trace_overhead`` (disabled/enabled tracing cost).
#: v4 added ``segment_overhead`` (armed-but-idle segmentation cost).
#: v5 added a lane-backend benchmark and a matching ``grid_sweep``
#: mode (both removed in v8).
#: v6 added a service benchmark (two overlapping grids through the
#: experiment service vs back-to-back local runs; dedupe ratio gated).
#: v7 added ``streaming_overhead`` (live streaming detection subscribed
#: to the trace feed vs traced-only and untraced runs; the path with
#: the feature absent is gated like disabled tracing).
#: v8 dropped the lane benchmark and grid mode (the channel drivers
#: now run in every untraced session) and records ``cpus``, the CPUs
#: the harness may run on, since the pool modes' speedups depend on it.
#: v9 folded ``trace_overhead``, ``streaming_overhead`` and
#: ``segment_overhead`` into one paired ``overhead`` benchmark.
#: v10 keeps only ``grid_sweep`` (without its bit-identity flag and
#: cache byte counts) and ``overhead``: the engine, per-point and
#: service benchmarks moved to ``bench/`` and the tier-1 tests.
#: v11 dropped the ``generator`` overhead variant: segmented sessions
#: run on the channel drivers, so ``armed`` is priced against
#: ``baseline``.
SCHEMA = 11

#: Allowed wall-time overhead of the ``overhead`` benchmark's
#: ``disabled`` variant (tracing and streaming detection left at their
#: defaults) vs ``baseline`` (both forced off).  Disabled tracing
#: attaches nothing to the machine and no recorder exists for a sink to
#: subscribe to, so this is an A/B of identical work and the gate bounds
#: measurement noise plus any accidental per-event check.
DISABLED_OVERHEAD_LIMIT = 0.02

#: Allowed wall-time overhead of the ``armed`` variant (segmentation
#: armed with a boundary the run never reaches) vs ``baseline``.  This
#: isolates the per-event bookkeeping the checkpoint plane adds (the
#: pause bound on every inline run, replay logs of undriven threads)
#: from the cost of actually storing segments, which is proportional to
#: segment count and priced in EXPERIMENTS.md instead.
ARMED_OVERHEAD_LIMIT = 0.05


#: Least number of interleaved pairs behind a full run's overhead
#: gates.  On a 2-vCPU Xeon VM one pair's ratio of two identical ~50 ms
#: transmissions spreads by 10-20% (interquartile), so a median over a
#: handful of pairs still swings by more than the 2% cap.
OVERHEAD_PAIRS = 15


def _payload(bits: int) -> list[int]:
    reps = (bits + len(_PAYLOAD) - 1) // len(_PAYLOAD)
    return (_PAYLOAD * reps)[:bits]


def _paired_walls(variants: dict[str, Any], pairs: int) -> dict[str, list[float]]:
    """Wall times of every variant over ``pairs`` interleaved pairs.

    Each pair runs every variant once, back to back, in the declared
    order on even pairs and reversed on odd ones, so host drift and
    warm-up land on every variant alike.  A full collection before each
    run keeps one variant's garbage (a traced run leaves thousands of
    events behind) out of the next one's timing.  *variants* maps a name
    to a zero-argument callable returning one wall time in seconds.
    """
    walls: dict[str, list[float]] = {name: [] for name in variants}
    order = list(variants)
    for index in range(max(1, pairs)):
        for name in order if index % 2 == 0 else order[::-1]:
            gc.collect()
            walls[name].append(variants[name]())
    return walls


def _overhead(walls: dict[str, list[float]], name: str, base: str) -> float:
    """Median over pairs of ``walls[name] / walls[base]``, minus one.

    A per-pair ratio cancels the drift both runs of a pair share, and
    the median ignores the odd pair a GC pause or preemption spoiled.
    """
    return statistics.median(
        a / b for a, b in zip(walls[name], walls[base])
    ) - 1.0


#: The ``overhead`` benchmark's variants: name -> session options.
#: ``trace`` is the session's ``trace`` field (``None`` defers to
#: ``REPRO_TRACE``, which the benchmark unsets), ``stream`` subscribes
#: a :class:`~repro.detection.streaming.StreamingDetector` to the
#: recorder and ``armed`` arms segmentation with a boundary the run
#: never reaches.  Every variant runs on the channel drivers, so each
#: overhead prices the tap, recorder, sink or pause bound alone.
OVERHEAD_VARIANTS: dict[str, dict[str, Any]] = {
    "baseline": {"trace": False},
    "disabled": {"trace": None},
    "traced": {"trace": True},
    "streaming": {"trace": True, "stream": True},
    "armed": {"trace": False, "armed": True},
}


def overhead(
    seed: int = 0, bits: int = 24, repeats: int = 3
) -> dict[str, Any]:
    """What the optional planes cost on one fixed transmission.

    Every :data:`OVERHEAD_VARIANTS` entry transmits the same payload in
    ``repeats`` interleaved pairs (:func:`_paired_walls`); walls are
    per-variant medians and each overhead is the median per-pair ratio
    of two variants (:func:`_overhead`).  Two overheads gate in
    :func:`check_regression`:

    * ``disabled_overhead`` — ``disabled`` vs ``baseline``, under
      :data:`DISABLED_OVERHEAD_LIMIT`: tracing and streaming detection
      must be free when off;
    * ``armed_overhead`` — ``armed`` vs ``baseline``, under
      :data:`ARMED_OVERHEAD_LIMIT`: the checkpoint bookkeeping of a
      segmented session that never reaches a boundary.

    ``traced_overhead`` and ``streaming_overhead`` (each vs
    ``baseline``) and ``sink_overhead`` (``streaming`` vs ``traced``:
    the detector's marginal cost) are the price of turning a feature
    on, reported but not gated.
    """
    import tempfile

    from repro.channel.session import ChannelSession, SessionConfig
    from repro.checkpoint.segments import SegmentStore
    from repro.detection.streaming import StreamingDetector
    from repro.runner.cache import ResultCache

    payload = _payload(bits)
    scratch = tempfile.mkdtemp(prefix="repro-bench-overhead-")
    counts = {"traced_events": 0, "streamed_events": 0, "flagged": False}

    def one(trace=None, stream=False, armed=False) -> float:
        if armed:
            os.environ["REPRO_SEGMENT_CYCLES"] = "1e15"
        try:
            session = ChannelSession(SessionConfig(
                spec="LExclc-LSharedb",
                seed=seed,
                calibration_samples=200,
                trace=trace,
            ))
        finally:
            os.environ.pop("REPRO_SEGMENT_CYCLES", None)
        detector = None
        if stream:
            detector = StreamingDetector(scan_interval=100_000.0)
            session.recorder.subscribe(detector)
        if armed:
            session.segments = SegmentStore(
                "bench-overhead", cache=ResultCache(scratch), cycles=1e15,
            )
        t0 = time.perf_counter()
        session.transmit(payload)
        wall = time.perf_counter() - t0
        if detector is not None:
            counts["streamed_events"] = detector.events
            counts["flagged"] = bool(detector.scan())
        elif session.recorder is not None:
            counts["traced_events"] = session.recorder.emitted
        return wall

    # The defaults must be the real defaults, even when the harness
    # itself runs under REPRO_TRACE=1 or with segmentation switched on.
    saved = {
        key: os.environ.pop(key, None)
        for key in ("REPRO_TRACE", "REPRO_SEGMENT_CYCLES")
    }
    try:
        walls = _paired_walls({
            name: functools.partial(one, **options)
            for name, options in OVERHEAD_VARIANTS.items()
        }, repeats)
    finally:
        for key, value in saved.items():
            if value is not None:
                os.environ[key] = value
    report: dict[str, Any] = {"bits": bits, "pairs": len(walls["baseline"])}
    for name in OVERHEAD_VARIANTS:
        report[f"{name}_wall_s"] = statistics.median(walls[name])
    for name, variant, base in (
        ("disabled", "disabled", "baseline"),
        ("traced", "traced", "baseline"),
        ("streaming", "streaming", "baseline"),
        ("sink", "streaming", "traced"),
        ("armed", "armed", "baseline"),
    ):
        report[f"{name}_overhead"] = _overhead(walls, variant, base)
    report.update(counts)
    return report


def _grid_spec(
    points: int, bits: int, fn: str = "repro.channel.session:execute_point"
):
    """A fig8-shaped scenario × rate grid of *points* full-result points.

    Every point runs *fn* on :func:`execute_point` keywords and returns
    the whole :class:`TransmissionResult`, so the pool modes pay the
    sample transport that real sweeps pay.
    """
    from repro.runner import ExperimentSpec, Point

    scenarios = ("LExclc-LSharedb", "RExclc-LSharedb")
    per = max(1, points // len(scenarios))
    rates = [100.0 + 25.0 * i for i in range(per)]
    grid = tuple(
        Point(
            fn=fn,
            params={"scenario": name, "payload": _payload(bits),
                    "rate_kbps": rate, "seed": 0},
            label=f"{name}@{rate:g}K",
        )
        for name in scenarios
        for rate in rates
    )
    return ExperimentSpec(experiment="bench-grid", points=grid)


def cold_point(**params) -> Any:
    """:func:`execute_point` from a cold process: no pooled machine and
    no memoized calibration — the ``grid_sweep`` reference path."""
    from repro.channel.session import clear_warm_state, execute_point

    clear_warm_state()
    return execute_point(**params)


def _run_grid_mode(spec: Any, runner_kwargs: dict) -> float:
    """Wall seconds of one uncached run of *spec* under *runner_kwargs*.

    Clears the warm machine/calibration state first so every mode pays
    its own first-calibration cost.
    """
    from repro.channel.session import clear_warm_state
    from repro.runner import Runner

    clear_warm_state()
    t0 = time.perf_counter()
    Runner(cache=None, **runner_kwargs).run(spec)
    return time.perf_counter() - t0


def grid_sweep(
    jobs: int = 4, points: int = 64, bits: int = 24
) -> dict[str, Any]:
    """Grid throughput (points/second) across the execution modes.

    Runs the same fig8-shaped grid four ways and reports each mode's
    points/s plus its speedup over ``reference``:

    * ``reference`` — serial through :func:`cold_point`, which
      clears the calibration memo and warm machine pool before every
      point: the pre-optimization execution path;
    * ``jobs`` — the process pool with one future per point
      (``chunk_size=1``), warm workers + memo active;
    * ``chunked`` — the pool with auto-sized seed-grouped chunks, the
      full optimized configuration;
    * ``serial`` — in-process with memo + warm pool active.

    The warm state is cleared before every mode, so each pays its own
    first-calibration cost.  ``best_speedup`` gates in
    :func:`check_regression`; that every mode returns the reference's
    values is a tier-1 property
    (``tests/test_fast_paths.py::test_pool_dispatch_matches_serial``).
    """
    spec = _grid_spec(points, bits)
    cold = _grid_spec(points, bits, fn="repro.bench.harness:cold_point")
    walls = {
        "reference": _run_grid_mode(cold, {"jobs": 1}),
        "jobs": _run_grid_mode(spec, {"jobs": jobs, "chunk_size": 1}),
        "chunked": _run_grid_mode(spec, {"jobs": jobs}),
        "serial": _run_grid_mode(spec, {"jobs": 1}),
    }
    n = len(spec.points)
    modes: dict[str, dict[str, float]] = {}
    for name in ("reference", "serial", "jobs", "chunked"):
        entry = {"wall_s": walls[name], "points_per_sec": n / walls[name]}
        if name != "reference":
            entry["speedup"] = walls["reference"] / walls[name]
        modes[name] = entry
    return {
        "points": n,
        "bits": bits,
        "jobs": jobs,
        "modes": modes,
        "best_speedup": max(
            info["speedup"] for name, info in modes.items()
            if name != "reference"
        ),
    }


def run_all(repeats: int = 3, quick: bool = False) -> dict[str, Any]:
    """Run every benchmark and return the full report dict."""
    if quick:
        n_points, grid_bits, overhead_bits = 16, 8, 8
        pairs = repeats
    else:
        n_points, grid_bits, overhead_bits = 64, 24, 24
        pairs = max(repeats, OVERHEAD_PAIRS)
    return {
        "schema": SCHEMA,
        "date": time.strftime("%Y-%m-%d"),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "repeats": repeats,
        "quick": quick,
        "benchmarks": {
            "grid_sweep": grid_sweep(points=n_points, bits=grid_bits),
            "overhead": overhead(bits=overhead_bits, repeats=pairs),
        },
    }


def default_report_name(date: str | None = None) -> str:
    """The canonical report filename, ``BENCH_<YYYY-MM-DD>.json``."""
    return f"BENCH_{date or time.strftime('%Y-%m-%d')}.json"


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write *report* as indented JSON; returns the path written."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a report previously written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.20,
) -> list[str]:
    """Compare two reports; return a list of human-readable failures.

    Three quantities gate:

    * grid throughput — ``grid_sweep.best_speedup``, the best
      self-relative speedup of a warm or pooled mode over the cold
      reference, must reach at least ``(1 - max_regression)`` of the
      baseline's.  Speedups rather than raw walls gate because they are
      host-portable;
    * disabled tracing and streaming detection —
      ``overhead.disabled_overhead`` must stay under
      :data:`DISABLED_OVERHEAD_LIMIT` (an absolute bound, not
      baseline-relative: both features are contractually free when off);
    * armed-but-idle segmentation — ``overhead.armed_overhead`` must
      stay under :data:`ARMED_OVERHEAD_LIMIT` (also absolute: the
      checkpoint plane's per-event bookkeeping must stay cheap enough
      to arm on any long run).

    Wall times and points/s are reported as context but do not gate.
    """
    try:
        base_speedup = baseline["benchmarks"]["grid_sweep"]["best_speedup"]
        speedup = current["benchmarks"]["grid_sweep"]["best_speedup"]
        costs = current["benchmarks"]["overhead"]
        disabled = costs["disabled_overhead"]
        armed = costs["armed_overhead"]
    except KeyError as exc:
        return [f"malformed report: missing {exc}"]
    problems: list[str] = []
    floor = base_speedup * (1.0 - max_regression)
    if speedup < floor:
        problems.append(
            f"grid_sweep regressed: best speedup {speedup:.2f}x < "
            f"{floor:.2f}x (baseline {base_speedup:.2f}x "
            f"- {max_regression:.0%})"
        )
    if disabled >= DISABLED_OVERHEAD_LIMIT:
        problems.append(
            f"overhead: disabled tracing and streaming detection cost "
            f"{disabled:.1%} >= {DISABLED_OVERHEAD_LIMIT:.0%} "
            f"(must be free when off)"
        )
    if armed >= ARMED_OVERHEAD_LIMIT:
        problems.append(
            f"overhead: armed-but-idle segmentation costs "
            f"{armed:.1%} >= {ARMED_OVERHEAD_LIMIT:.0%} on an "
            f"unsegmented point"
        )
    return problems
