"""The benchmark implementations behind ``python -m repro bench``.

Methodology
-----------
Each benchmark runs a fixed, deterministic workload (fixed seeds, fixed
payloads) so that the executed event sequence is identical from run to
run and between code versions — wall clock is the only free variable.
Benchmarks are repeated ``repeats`` times and the minimum wall time is
kept: the minimum is the run least disturbed by the host (GC pauses,
scheduler preemption), which is the quantity a code change actually
moves.  The ``overhead`` benchmark compares variants of one workload
instead: it runs interleaved pairs (``repeats`` of them, and at least
:data:`OVERHEAD_PAIRS` in a full run) and gates on the median per-pair
ratio, which a single disturbed run cannot move.

``engine_micro`` times only the transmission (session construction and
calibration excluded) and divides the engine's executed-event count by
the wall time; ``fig8_point`` and ``noise_point`` time a whole
experiment point end to end, construction included, because that is the
latency a grid sweep pays per point.
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
#: v6 added ``service_sweep`` (two overlapping grids through the
#: experiment service vs back-to-back local runs; dedupe ratio gated).
#: v7 added ``streaming_overhead`` (live streaming detection subscribed
#: to the trace feed vs traced-only and untraced runs; the path with
#: the feature absent is gated like disabled tracing).
#: v8 dropped the lane benchmark and grid mode (the channel drivers
#: now run in every untraced session) and records ``cpus``, the CPUs
#: the harness may run on, since the pool modes' speedups depend on it.
#: v9 folded ``trace_overhead``, ``streaming_overhead`` and
#: ``segment_overhead`` into one paired ``overhead`` benchmark.
SCHEMA = 9

#: Minimum fleet-wide dedupe ratio (points submitted / points actually
#: executed) on the ``service_sweep`` workload.  The two grids overlap
#: by construction, and single-flight guarantees each unique key runs
#: exactly once, so the ratio is deterministic (1.88x on the full grid,
#: 2.0x on the fully-overlapping quick grid); 1.8x holds for both and
#: fails loudly if the service ever starts re-executing shared points.
SERVICE_MIN_DEDUPE = 1.8

#: Allowed wall-time overhead of the ``overhead`` benchmark's
#: ``disabled`` variant (tracing and streaming detection left at their
#: defaults) vs ``baseline`` (both forced off).  Disabled tracing
#: attaches nothing to the machine and no recorder exists for a sink to
#: subscribe to, so this is an A/B of identical work and the gate bounds
#: measurement noise plus any accidental per-event check.
DISABLED_OVERHEAD_LIMIT = 0.02

#: Allowed wall-time overhead of the ``armed`` variant (segmentation
#: armed with a boundary the run never reaches) vs ``generator`` (the
#: same session stood down, as a segmented session always is).  This
#: isolates the per-event bookkeeping the checkpoint plane adds
#: (replay-log appends, mark truncation, the pause-boundary comparison)
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


def engine_micro(
    seed: int = 0, bits: int = 48, repeats: int = 3
) -> dict[str, Any]:
    """Engine throughput: events/second over a default-config session.

    A fresh session is built per repeat (so cache/coherence state never
    leaks between repeats) and only :meth:`transmit` is timed.
    """
    from repro.channel.session import ChannelSession, SessionConfig

    payload = _payload(bits)
    best_wall = float("inf")
    events = 0
    for _ in range(max(1, repeats)):
        session = ChannelSession(SessionConfig(
            spec="LExclc-LSharedb",
            seed=seed,
            calibration_samples=200,
        ))
        counter = session.machine.stats.counter_handle("engine.events")
        start_events = counter.value
        t0 = time.perf_counter()
        session.transmit(payload)
        wall = time.perf_counter() - t0
        events = counter.value - start_events
        if wall < best_wall:
            best_wall = wall
    return {
        "events": events,
        "wall_s": best_wall,
        "events_per_sec": events / best_wall,
    }


def fig8_point(repeats: int = 3, bits: int = 100) -> dict[str, Any]:
    """One end-to-end Figure 8 bandwidth point (remote-E, 500 Kbit/s)."""
    from repro.channel.session import execute_point

    payload = _payload(bits)
    best_wall = float("inf")
    accuracy = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = execute_point(
            scenario="RExclc-LSharedb", payload=payload,
            rate_kbps=500.0, seed=0,
        )
        wall = time.perf_counter() - t0
        accuracy = result.accuracy
        if wall < best_wall:
            best_wall = wall
    return {"wall_s": best_wall, "accuracy": accuracy}


def noise_point(repeats: int = 3, bits: int = 24) -> dict[str, Any]:
    """One end-to-end point with two co-located noise workloads."""
    from repro.channel.session import execute_point

    payload = _payload(bits)
    best_wall = float("inf")
    accuracy = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = execute_point(
            scenario="LExclc-LSharedb", payload=payload,
            seed=0, noise_threads=2,
        )
        wall = time.perf_counter() - t0
        accuracy = result.accuracy
        if wall < best_wall:
            best_wall = wall
    return {"wall_s": best_wall, "accuracy": accuracy}


#: The ``overhead`` benchmark's variants: name -> session options.
#: ``trace`` is the session's ``trace`` field (``None`` defers to
#: ``REPRO_TRACE``, which the benchmark unsets), ``stream`` subscribes
#: a :class:`~repro.detection.streaming.StreamingDetector` to the
#: recorder, ``stand_down`` forces the generator programs and ``armed``
#: arms segmentation with a boundary the run never reaches.
OVERHEAD_VARIANTS: dict[str, dict[str, Any]] = {
    "baseline": {"trace": False},
    "disabled": {"trace": None},
    "traced": {"trace": True},
    "streaming": {"trace": True, "stream": True},
    "generator": {"trace": False, "stand_down": True},
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
    * ``armed_overhead`` — ``armed`` vs ``generator``, under
      :data:`ARMED_OVERHEAD_LIMIT`: a segmented session always runs the
      generator programs, so this isolates the checkpoint bookkeeping
      from the channel drivers' gain.

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

    def one(trace=None, stream=False, stand_down=False, armed=False) -> float:
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
        if stand_down:
            session.sim.stand_down("bench-baseline")
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
        ("armed", "armed", "generator"),
    ):
        report[f"{name}_overhead"] = _overhead(walls, variant, base)
    report.update(counts)
    return report


def grid_point(
    *, scenario: str, rate: float, seed: int, bits: int
) -> Any:
    """One full-result grid point for the ``grid_sweep`` benchmark.

    Returns the whole :class:`TransmissionResult` (not just accuracy) so
    the benchmark exercises the compact sample transport on IPC and
    cache paths, and so bit-identity across execution modes can be
    checked over the complete latency trace.
    """
    from repro.channel.session import execute_point

    return execute_point(
        scenario=scenario, payload=_payload(bits), rate_kbps=rate, seed=seed
    )


def _grid_spec(
    points: int, bits: int, rate_offset: float = 0.0,
    fn: str = "repro.bench.harness:grid_point",
):
    """A fig8-shaped scenario × rate grid of *points* full-result points.

    *rate_offset* shifts every rate by a constant, producing a second
    grid that overlaps the first on all but the shifted-out rates — the
    ``service_sweep`` benchmark's workload shape.  *fn* is the point
    function every point runs.
    """
    from repro.runner import ExperimentSpec, Point

    scenarios = ("LExclc-LSharedb", "RExclc-LSharedb")
    per = max(1, points // len(scenarios))
    rates = [100.0 + rate_offset + 25.0 * i for i in range(per)]
    grid = tuple(
        Point(
            fn=fn,
            params={"scenario": name, "rate": rate, "seed": 0, "bits": bits},
            label=f"{name}@{rate:g}K",
        )
        for name in scenarios
        for rate in rates
    )
    return ExperimentSpec(experiment="bench-grid", points=grid)


def cold_grid_point(**params) -> Any:
    """:func:`grid_point` from a cold process: no pooled machine and no
    memoized calibration — the ``grid_sweep`` reference path."""
    from repro.channel.session import clear_warm_state

    clear_warm_state()
    return grid_point(**params)


def _values_digest(values: list[Any]) -> str:
    """SHA-256 over everything observable in a grid's results."""
    import hashlib
    import pickle

    digest = hashlib.sha256()
    for value in values:
        digest.update(pickle.dumps((
            value.sent,
            value.received,
            [(s.timestamp, s.latency, s.label, str(s.path))
             for s in value.samples],
            value.cycles,
        )))
    return digest.hexdigest()


def _run_grid_mode(spec: Any, runner_kwargs: dict) -> tuple[list[Any], float]:
    """Run *spec* once under *runner_kwargs*.

    Clears the warm machine/calibration state first so every mode pays
    its own first-calibration cost.  Returns ``(values, wall_seconds)``.
    """
    from repro.channel.session import clear_warm_state
    from repro.runner import Runner

    clear_warm_state()
    t0 = time.perf_counter()
    values = Runner(cache=None, **runner_kwargs).run(spec).values
    return values, time.perf_counter() - t0


def grid_sweep(
    jobs: int = 4, points: int = 64, bits: int = 24
) -> dict[str, Any]:
    """Grid throughput (points/second) across the execution modes.

    Runs the same fig8-shaped grid four ways and reports each mode's
    points/s plus its speedup over ``reference``:

    * ``reference`` — serial through :func:`cold_grid_point`, which
      clears the calibration memo and warm machine pool before every
      point: the pre-optimization execution path;
    * ``jobs`` — the process pool with one future per point
      (``chunk_size=1``), warm workers + memo active;
    * ``chunked`` — the pool with auto-sized seed-grouped chunks, the
      full optimized configuration;
    * ``serial`` — in-process with memo + warm pool active.

    The warm state is cleared before every mode, so each pays its own
    first-calibration cost.  ``bit_identical`` asserts that all four
    modes produced byte-equal results (sent/received bits, the full
    latency trace, cycle counts) — speed with different answers is a
    regression, and the gate treats it as one.  Speedups are
    self-relative (same host, same process), so they are comparable
    across machines in a way raw walls are not.

    Also reports the on-disk transport cost of the grid's results:
    ``cache_bytes`` under the schema-v2 entry encoding versus
    ``cache_bytes_legacy`` under the v1 bare-pickle-with-object-samples
    encoding it replaced.
    """
    import pickle

    from repro.runner.cache import encode_entry

    spec = _grid_spec(points, bits)
    cold = _grid_spec(points, bits, fn="repro.bench.harness:cold_grid_point")
    ref_values, ref_wall = _run_grid_mode(cold, {"jobs": 1})
    jobs_values, jobs_wall = _run_grid_mode(spec,
                                            {"jobs": jobs, "chunk_size": 1})
    chunk_values, chunk_wall = _run_grid_mode(spec, {"jobs": jobs})
    serial_values, serial_wall = _run_grid_mode(spec, {"jobs": 1})

    reference = _values_digest(ref_values)
    bit_identical = all(
        _values_digest(values) == reference
        for values in (jobs_values, chunk_values, serial_values)
    )

    n = len(spec.points)
    modes: dict[str, dict[str, float]] = {}
    for name, wall in (
        ("reference", ref_wall),
        ("serial", serial_wall),
        ("jobs", jobs_wall),
        ("chunked", chunk_wall),
    ):
        entry = {"wall_s": wall, "points_per_sec": n / wall}
        if name != "reference":
            entry["speedup"] = ref_wall / wall
        modes[name] = entry

    cache_bytes = sum(len(encode_entry(v)) for v in ref_values)
    # The v1 encoding: a bare pickle whose samples are full objects.
    legacy_bytes = sum(
        len(pickle.dumps(
            dict(v.__dict__), protocol=pickle.HIGHEST_PROTOCOL
        ))
        for v in ref_values
    )
    return {
        "points": n,
        "bits": bits,
        "jobs": jobs,
        "bit_identical": bit_identical,
        "modes": modes,
        "best_speedup": max(
            info["speedup"] for name, info in modes.items()
            if name != "reference"
        ),
        "cache_bytes": cache_bytes,
        "cache_bytes_legacy": legacy_bytes,
        "cache_reduction": 1.0 - cache_bytes / legacy_bytes,
    }


def service_sweep(
    jobs: int = 4, points: int = 64, bits: int = 24
) -> dict[str, Any]:
    """Fleet-wide dedupe: two overlapping grids through the service.

    The PR 9 benchmark.  Two fig8-shaped grids of *points* points each,
    the second with its rates shifted so most of its keys coincide with
    the first's (on the full 64-point grid: 128 points submitted, 68
    unique; the quick grid fully overlaps), run two ways:

    * ``local`` — back-to-back uncached :class:`~repro.runner.Runner`
      sweeps, paying for every submitted point: the pre-service cost of
      two teammates sweeping overlapping grids;
    * ``service`` — both grids submitted concurrently to one
      :class:`~repro.service.ExperimentService` over HTTP, sharing the
      single-flight index and one warm worker pool.

    ``dedupe_ratio`` (submitted / executed) is deterministic — the
    single-flight index executes each unique key exactly once whatever
    the scheduler interleaving — and :func:`check_regression` gates it
    against :data:`SERVICE_MIN_DEDUPE`.  ``bit_identical`` asserts the
    blobs served over HTTP decode byte-equal to the local runs' values.
    ``speedup_vs_local`` is reported as context but does not gate (it
    mixes pool warm-up and HTTP overhead into a host-sensitive number).
    """
    import tempfile

    from repro.runner.cache import ResultCache
    from repro.runner.executor import FailurePolicy
    from repro.service import ExperimentService, ServiceClient

    per = max(1, points // 2)
    # Shift ~1/16th of the rate axis: 2 rates on the full grid (68
    # unique of 128), 0 on the quick grid (full overlap).
    offset = 25.0 * (per // 16)
    spec_a = _grid_spec(points, bits)
    spec_b = _grid_spec(points, bits, rate_offset=offset)
    submitted = len(spec_a.points) + len(spec_b.points)
    unique = len({
        point.key("bench-svc")
        for point in spec_a.points + spec_b.points
    })

    local_a, wall_a = _run_grid_mode(spec_a, {"jobs": jobs})
    local_b, wall_b = _run_grid_mode(spec_b, {"jobs": jobs})
    local_wall = wall_a + wall_b

    scratch = tempfile.mkdtemp(prefix="repro-bench-svc-")
    service = ExperimentService(
        cache=ResultCache(scratch, salt="bench-svc"),
        workers=jobs,
        policy=FailurePolicy(keep_going=True),
    )
    handle = service.run_in_thread()
    try:
        client = ServiceClient(handle.base_url)
        t0 = time.perf_counter()
        job_a = client.submit_spec(spec_a)
        job_b = client.submit_spec(spec_b)
        manifest_a = client.wait(job_a, timeout=3600)
        manifest_b = client.wait(job_b, timeout=3600)
        service_wall = time.perf_counter() - t0
        served_a = client.values(job_a)
        served_b = client.values(job_b)
        stats = handle.stats()
    finally:
        handle.stop()

    executed = manifest_a["executed"] + manifest_b["executed"]
    bit_identical = (
        _values_digest(served_a) == _values_digest(local_a)
        and _values_digest(served_b) == _values_digest(local_b)
    )
    return {
        "points": points,
        "bits": bits,
        "jobs": jobs,
        "submitted": submitted,
        "unique": unique,
        "executed": executed,
        "coalesced": stats["coalesced"],
        "dedupe_ratio": submitted / max(1, executed),
        "bit_identical": bit_identical,
        "local_wall_s": local_wall,
        "service_wall_s": service_wall,
        "speedup_vs_local": local_wall / service_wall,
    }


def run_all(repeats: int = 3, quick: bool = False) -> dict[str, Any]:
    """Run every benchmark and return the full report dict."""
    if quick:
        micro_bits, fig8_bits, noise_bits = 16, 24, 8
        grid_points, grid_bits = 16, 8
        pairs = repeats
    else:
        micro_bits, fig8_bits, noise_bits = 48, 100, 24
        grid_points, grid_bits = 64, 24
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
            "engine_micro": engine_micro(bits=micro_bits, repeats=repeats),
            "fig8_point": fig8_point(repeats=repeats, bits=fig8_bits),
            "noise_point": noise_point(repeats=repeats, bits=noise_bits),
            "grid_sweep": grid_sweep(points=grid_points, bits=grid_bits),
            "service_sweep": service_sweep(
                points=grid_points, bits=grid_bits
            ),
            "overhead": overhead(bits=noise_bits, repeats=pairs),
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

    Four quantities gate:

    * engine events/second — the current run must reach at least
      ``(1 - max_regression)`` of the baseline's throughput;
    * disabled tracing and streaming detection —
      ``overhead.disabled_overhead`` must stay under
      :data:`DISABLED_OVERHEAD_LIMIT` (an absolute bound, not
      baseline-relative: both features are contractually free when off);
    * armed-but-idle segmentation — ``overhead.armed_overhead`` must
      stay under :data:`ARMED_OVERHEAD_LIMIT` (also absolute: the
      checkpoint plane's per-event bookkeeping must stay cheap enough
      to arm on any long run);
    * grid throughput — ``grid_sweep`` must report ``bit_identical``
      (an optimized mode producing different results is a correctness
      regression, whatever its speed), and when the baseline also
      carries a ``grid_sweep``, the current best self-relative speedup
      must stay within ``max_regression`` of the baseline's.  Speedups
      rather than raw walls gate because they are host-portable;
    * experiment service — ``service_sweep`` must report
      ``bit_identical`` (blobs served over HTTP must decode to exactly
      the local values) and a ``dedupe_ratio`` of at least
      :data:`SERVICE_MIN_DEDUPE` (both absolute: the ratio is
      deterministic, so any shortfall means shared points re-executed).

    Wall times of the end-to-end points are reported as context but do
    not gate (they include calibration and are noisier on shared
    runners).
    """
    problems: list[str] = []
    try:
        base_eps = baseline["benchmarks"]["engine_micro"]["events_per_sec"]
        cur_eps = current["benchmarks"]["engine_micro"]["events_per_sec"]
    except KeyError as exc:
        return [f"malformed report: missing {exc}"]
    floor = base_eps * (1.0 - max_regression)
    if cur_eps < floor:
        problems.append(
            f"engine_micro regressed: {cur_eps:,.0f} events/s < "
            f"{floor:,.0f} (baseline {base_eps:,.0f} - {max_regression:.0%})"
        )
    costs = current["benchmarks"].get("overhead")
    if costs is not None:
        overhead = costs.get("disabled_overhead", 0.0)
        if overhead >= DISABLED_OVERHEAD_LIMIT:
            problems.append(
                f"overhead: disabled tracing and streaming detection cost "
                f"{overhead:.1%} >= {DISABLED_OVERHEAD_LIMIT:.0%} "
                f"(must be free when off)"
            )
        overhead = costs.get("armed_overhead", 0.0)
        if overhead >= ARMED_OVERHEAD_LIMIT:
            problems.append(
                f"overhead: armed-but-idle segmentation costs "
                f"{overhead:.1%} >= {ARMED_OVERHEAD_LIMIT:.0%} on an "
                f"unsegmented point"
            )
    grid = current["benchmarks"].get("grid_sweep")
    if grid is not None:
        if not grid.get("bit_identical", False):
            problems.append(
                "grid_sweep: optimized modes are not bit-identical to "
                "the reference path"
            )
        base_grid = baseline["benchmarks"].get("grid_sweep")
        if base_grid is not None:
            base_speedup = base_grid.get("best_speedup", 0.0)
            speedup_floor = base_speedup * (1.0 - max_regression)
            if grid.get("best_speedup", 0.0) < speedup_floor:
                problems.append(
                    f"grid_sweep regressed: best speedup "
                    f"{grid.get('best_speedup', 0.0):.2f}x < "
                    f"{speedup_floor:.2f}x (baseline {base_speedup:.2f}x "
                    f"- {max_regression:.0%})"
                )
    service = current["benchmarks"].get("service_sweep")
    if service is not None:
        if not service.get("bit_identical", False):
            problems.append(
                "service_sweep: blobs served by the experiment service "
                "are not bit-identical to local runner values"
            )
        ratio = service.get("dedupe_ratio", 0.0)
        if ratio < SERVICE_MIN_DEDUPE:
            problems.append(
                f"service_sweep: dedupe ratio {ratio:.2f}x < the "
                f"{SERVICE_MIN_DEDUPE:.2f}x floor (overlapping points "
                f"are being re-executed)"
            )
    return problems
