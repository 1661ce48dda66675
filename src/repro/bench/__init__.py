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
* ``overhead`` — one transmission in six paired variants: the
  default path with tracing and streaming detection off is gated
  (< 2% over forcing both off, since the disabled path is the
  unmodified hot code), and so is segmented checkpointing
  (:mod:`repro.checkpoint`) armed with a boundary the run never reaches
  (< 5% over the generator programs it always runs on); the cost of
  tracing, of live streaming detection (:mod:`repro.detection.streaming`
  subscribed to the trace feed) and of the detector alone is reported
  for information.

Every benchmark is deterministic (fixed seeds) so wall time is the only
thing that varies between runs; each is repeated and the best (minimum)
wall time is reported to suppress scheduler noise.  See PERFORMANCE.md
for how to run and read the reports, and how CI gates on them.
"""

from repro.bench.harness import (
    ARMED_OVERHEAD_LIMIT,
    DISABLED_OVERHEAD_LIMIT,
    SERVICE_MIN_DEDUPE,
    check_regression,
    default_report_name,
    engine_micro,
    fig8_point,
    grid_sweep,
    load_report,
    noise_point,
    overhead,
    run_all,
    service_sweep,
    write_report,
)

__all__ = [
    "ARMED_OVERHEAD_LIMIT",
    "DISABLED_OVERHEAD_LIMIT",
    "SERVICE_MIN_DEDUPE",
    "check_regression",
    "default_report_name",
    "engine_micro",
    "fig8_point",
    "grid_sweep",
    "load_report",
    "noise_point",
    "overhead",
    "run_all",
    "service_sweep",
    "write_report",
]
