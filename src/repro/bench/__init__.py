"""Repeatable performance harness for the simulator hot path.

``python -m repro bench`` drives the three canonical measurements and
emits a machine-readable ``BENCH_<date>.json`` report:

* ``engine_micro`` — a default-config covert-channel transmission timed
  around :meth:`ChannelSession.transmit` only, reported as engine
  events/second (the discrete-event core's throughput metric);
* ``fig8_point`` — one end-to-end Figure 8 bandwidth point (remote-E
  scenario, 100 bits at 500 Kbit/s), session construction and
  calibration included, reported as wall seconds;
* ``noise_point`` — one end-to-end point with two co-located noise
  workload threads, the contention-heavy configuration;
* ``grid_sweep`` — grid throughput (points/second) on a fig8-shaped
  64-point grid, comparing the pre-optimization reference path against
  warm-worker serial, per-point pool and chunked pool dispatch, with a
  bit-identity check across all modes and the schema-v2 vs legacy
  cache entry sizes;
* ``service_sweep`` — two overlapping grids submitted concurrently to
  the experiment service (:mod:`repro.service`), gated on the
  fleet-wide dedupe ratio (each unique point executes exactly once)
  and on the served blobs decoding bit-identical to local runs;
* ``trace_overhead`` — the wall-time cost of structured tracing
  (:mod:`repro.obs`): disabled-mode overhead is gated (< 2%, since the
  disabled path is the unmodified hot code), enabled-mode cost is
  reported for information;
* ``streaming_overhead`` — the wall-time cost of live streaming
  detection (:mod:`repro.detection.streaming` subscribed to the trace
  feed): the unsubscribed path is gated (< 2%, same contract as
  disabled tracing), the live-monitoring and marginal sink costs are
  reported for information;
* ``segment_overhead`` — the wall-time cost of arming segmented
  checkpointing (:mod:`repro.checkpoint`) with a boundary the run never
  reaches, gated (< 5%) so the crash-resume machinery stays cheap
  enough to enable on any long run.

Every benchmark is deterministic (fixed seeds) so wall time is the only
thing that varies between runs; each is repeated and the best (minimum)
wall time is reported to suppress scheduler noise.  See PERFORMANCE.md
for how to run and read the reports, and how CI gates on them.
"""

from repro.bench.harness import (
    SEGMENT_OVERHEAD_LIMIT,
    SERVICE_MIN_DEDUPE,
    STREAMING_OVERHEAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
    check_regression,
    default_report_name,
    engine_micro,
    fig8_point,
    grid_sweep,
    load_report,
    noise_point,
    run_all,
    segment_overhead,
    service_sweep,
    streaming_overhead,
    trace_overhead,
    write_report,
)

__all__ = [
    "SEGMENT_OVERHEAD_LIMIT",
    "SERVICE_MIN_DEDUPE",
    "STREAMING_OVERHEAD_LIMIT",
    "TRACE_OVERHEAD_LIMIT",
    "check_regression",
    "default_report_name",
    "engine_micro",
    "fig8_point",
    "grid_sweep",
    "load_report",
    "noise_point",
    "run_all",
    "segment_overhead",
    "service_sweep",
    "streaming_overhead",
    "trace_overhead",
    "write_report",
]
