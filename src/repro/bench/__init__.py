"""Pool-dispatch and overhead gates for the simulator.

``python -m repro bench`` runs the two measurements the repository
benchmark ``bench/`` cannot express — it drives serial ``Runner``
passes only — and emits a machine-readable ``BENCH_<date>.json`` report:

* ``grid_sweep`` — grid throughput (points/second) on a fig8-shaped
  64-point grid, comparing the cold reference path against warm-worker
  serial, per-point pool and chunked pool dispatch; the best pool
  mode's speedup over warm serial gates against a committed baseline;
* ``overhead`` — one transmission in five paired variants: the
  default path with tracing and streaming detection off is gated
  (< 2% over forcing both off, since the disabled path is the
  unmodified hot code), and so is segmented execution
  (:mod:`repro.checkpoint`) armed with a boundary the run never reaches
  (< 5% over the same forced-off baseline); the cost of
  tracing, of live streaming detection (:mod:`repro.detection.streaming`
  subscribed to the trace feed) and of the detector alone is reported
  for information.

Per-point walls, points/s and engine events/s are measured by ``bench/``
(``point_p50_ms``, ``points_per_s``, ``sim_events_per_s``).  See
PERFORMANCE.md for how to run and read the reports, and how CI gates on
them.
"""

from repro.bench.harness import (
    ARMED_OVERHEAD_LIMIT,
    DISABLED_OVERHEAD_LIMIT,
    check_regression,
    default_report_name,
    grid_sweep,
    load_report,
    overhead,
    pool_speedup,
    run_all,
    write_report,
)

__all__ = [
    "ARMED_OVERHEAD_LIMIT",
    "DISABLED_OVERHEAD_LIMIT",
    "check_regression",
    "default_report_name",
    "grid_sweep",
    "load_report",
    "overhead",
    "pool_speedup",
    "run_all",
    "write_report",
]
