"""Unified command-line interface: ``python -m repro <command>``.

Commands map to the experiment drivers plus a couple of conveniences::

    python -m repro list                 # what can I run?
    python -m repro fig8 --scenario ...  # any experiment by short name
    python -m repro fig8 --jobs 8        # fan the grid out over 8 workers
    python -m repro send 10110 --scenario RExclc-LSharedb
    python -m repro bands                # print calibrated latency bands

Experiment commands dispatch through
:data:`repro.experiments.REGISTRY` — every driver self-describes (name,
one-liner, ``build_spec``, ``render``) — and all of them accept the
shared runner options ``--jobs``, ``--no-cache``, ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.experiments import REGISTRY


def cmd_list(_argv: list[str]) -> None:
    """Print the available commands."""
    print("experiments:")
    for name, info in REGISTRY.items():
        print(f"  {name:12s} {info.summary}")
        print(f"  {'':12s}   -> repro.experiments.{info.module}")
    print("utilities:")
    for name, (summary, _handler) in UTILITIES.items():
        if name != "list":
            print(f"  {name:12s} {summary}")
    print()
    print("experiment options: --jobs N  --no-cache  --cache-dir DIR")
    print("failure handling:   --retries N  --timeout S  --keep-going  "
          "--inject-faults")
    print("global flags:       --profile (cProfile)  --trace "
          "(structured tracing; also per-command via --trace or "
          "REPRO_TRACE=1)")


def cmd_send(argv: list[str]) -> None:
    """Transmit a bit string through a covert-channel session."""
    from repro.mem.protocols import PROTOCOLS

    parser = argparse.ArgumentParser(prog="repro send")
    parser.add_argument("bits", help="payload, e.g. 10110")
    parser.add_argument(
        "--scenario", default="LExclc-LSharedb",
        help="registered scenario name (Table I or matrix cell, e.g. "
             "moesi-ostate, dir-es, mesi-lru)",
    )
    parser.add_argument(
        "--protocol", default=None, choices=sorted(PROTOCOLS),
        help="coherence protocol override (registered protocols)",
    )
    parser.add_argument("--rate", type=float, default=None,
                        help="nominal Kbits/s")
    parser.add_argument("--noise", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--resync-attempts", type=int, default=2,
        help="handshake retries after a spy sync timeout (default: 2)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="R",
        help="inject simulation faults at R per million cycles "
             "(third-party touches, preemption, latency spikes)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the injected fault plan",
    )
    args = parser.parse_args(argv)

    from repro.channel.session import ChannelSession, SessionConfig, resolve_spec
    from repro.errors import ConfigError

    payload = [int(c) for c in args.bits if c in "01"]
    if not payload:
        parser.error("payload must contain 0/1 characters")
    try:
        spec = resolve_spec(args.scenario, protocol=args.protocol)
    except ConfigError as exc:
        parser.error(str(exc))
    params = spec.default_params()
    if args.rate is not None:
        # An explicit 0 (or negative) must error, not be silently
        # ignored the way a falsy check would.
        if args.rate <= 0:
            parser.error(
                f"--rate must be a positive Kbit/s value, got {args.rate:g}"
            )
        params = params.at_rate(args.rate)
    faults = None
    if args.fault_rate > 0:
        from repro.faults import FaultPlan

        faults = FaultPlan.build_simulation(
            seed=args.fault_seed,
            rate_per_mcycle=args.fault_rate,
            window_cycles=params.slot_cycles * (len(payload) + 40),
            kinds=("third_party_touch", "preempt", "latency_spike"),
        )
        print(f"injecting {len(faults)} simulation fault(s)",
              file=sys.stderr)
    session = ChannelSession(SessionConfig(
        spec=spec,
        params=params,
        seed=args.seed,
        noise_threads=args.noise,
        resync_attempts=args.resync_attempts,
        faults=faults,
    ))
    result = session.transmit(payload)
    print(f"sent     {''.join(map(str, result.sent))}")
    print(f"received {''.join(map(str, result.received))}")
    line = (f"accuracy {result.accuracy * 100:.1f}%  "
            f"rate {result.achieved_rate_kbps:.0f} Kbit/s")
    if result.resyncs:
        line += f"  resyncs {result.resyncs}"
    print(line)


def cmd_bench(argv: list[str]) -> None:
    """Run the performance harness and emit a BENCH_<date>.json report."""
    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved pairs of the overhead benchmark "
                             "(median ratio; a full run takes at least 15)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller payloads (CI smoke / sanity runs)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="report path (default: BENCH_<date>.json)")
    parser.add_argument("--no-write", action="store_true",
                        help="print the report without writing a file")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against a committed report and fail on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20, metavar="FRAC",
        help="allowed drop in grid_sweep's pool speedup vs --baseline "
             "(default: 0.20)",
    )
    args = parser.parse_args(argv)

    from repro.bench import (
        check_regression,
        default_report_name,
        load_report,
        pool_speedup,
        run_all,
        write_report,
    )

    report = run_all(repeats=args.repeats, quick=args.quick)
    bench = report["benchmarks"]
    grid = bench["grid_sweep"]
    for mode, info in grid["modes"].items():
        speedup = f"  ({info['speedup']:.2f}x)" if "speedup" in info else ""
        print(f"grid_sweep    {info['points_per_sec']:>12.2f} points/s "
              f"[{mode}]{speedup}")
    costs = bench["overhead"]
    print(f"overhead  disabled {costs['disabled_overhead']:+.1%}  "
          f"traced {costs['traced_overhead']:+.1%}  "
          f"streaming {costs['streaming_overhead']:+.1%}  "
          f"sink {costs['sink_overhead']:+.1%}  "
          f"armed-idle {costs['armed_overhead']:+.1%} "
          f"({costs['traced_events']} events)")
    if not args.no_write:
        out = write_report(report, args.output or default_report_name())
        print(f"wrote {out}")
    if args.baseline is not None:
        baseline = load_report(args.baseline)
        problems = check_regression(
            report, baseline, max_regression=args.max_regression
        )
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            raise SystemExit(1)
        base_speedup = pool_speedup(baseline["benchmarks"]["grid_sweep"])
        print(f"no regression vs {args.baseline} (pool speedup "
              f"{grid['pool_speedup']:.2f}x, baseline's "
              f"{base_speedup:.2f}x)")


def _parse_age(text: str) -> float:
    """Parse a ``--max-age`` value: seconds, or ``45m``/``12h``/``7d``."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r}; use seconds or a s/m/h/d suffix "
            "(e.g. 3600, 45m, 12h, 7d)"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(f"age must be >= 0, got {text!r}")
    return value


def cmd_cache(argv: list[str]) -> None:
    """Inspect or prune the on-disk result cache."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="inspect (stats) or prune (gc) the result cache",
    )
    parser.add_argument(
        "action", choices=("stats", "gc"),
        help="stats: entry counts/bytes per generation; "
             "gc: delete entries keyed under stale version salts",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/results)",
    )
    parser.add_argument(
        "--max-age", type=_parse_age, default=None, metavar="AGE",
        help="with gc: also reap entries older than AGE — current "
             "generation included (checkpoint segments especially); "
             "seconds or s/m/h/d suffix (e.g. 12h, 7d)",
    )
    args = parser.parse_args(argv)

    from repro.runner.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        if args.max_age is not None:
            parser.error("--max-age only applies to gc")
        stats = cache.stats()
        print(f"cache root  {stats['root']}")
        print(f"active salt {stats['salt']}")
        print(f"entries     {stats['entries']}  "
              f"({stats['bytes'] / 1024:.1f} KiB)")
        if not stats["generations"]:
            print("(empty)")
        for name, info in sorted(stats["generations"].items()):
            mark = "  <- current" if info["current"] else "  (stale)"
            print(f"  {name:24s} {info['entries']:6d} entries  "
                  f"{info['bytes'] / 1024:9.1f} KiB{mark}")
        return
    removed, freed = cache.gc(max_age_seconds=args.max_age)
    print(f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
          f"({freed / 1024:.1f} KiB) from {cache.root}")


def cmd_checkpoint(argv: list[str]) -> None:
    """Inspect an exported checkpoint blob (manifest only)."""
    parser = argparse.ArgumentParser(
        prog="repro checkpoint",
        description="inspect a checkpoint blob written via "
                    "REPRO_CHECKPOINT_EXPORT (manifest only; the session "
                    "state is never unpickled)",
    )
    parser.add_argument(
        "action", choices=("inspect",),
        help="inspect: print the blob's manifest, size and digest",
    )
    parser.add_argument("path", help="checkpoint blob file")
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.checkpoint import inspect_blob
    from repro.errors import CheckpointError

    try:
        manifest = inspect_blob(Path(args.path).read_bytes())
    except (OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    width = max(len(key) for key in manifest)
    for key in sorted(manifest):
        print(f"{key:<{width}}  {manifest[key]}")


def cmd_trace(argv: list[str]) -> None:
    """Run one traced transmission and export its event stream."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="run a fixed-seed transmission with tracing on and "
                    "export the recorded event stream",
    )
    parser.add_argument(
        "action", choices=("export",),
        help="export: transmit once and write/print the trace",
    )
    parser.add_argument("--format", choices=("chrome", "text"),
                        default="chrome",
                        help="chrome: trace-event JSON loadable in "
                             "chrome://tracing / Perfetto; text: merged "
                             "event + sample timeline")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default: trace.json for "
                             "chrome, stdout for text)")
    parser.add_argument("--scenario", default="RExclc-LSharedb")
    from repro.mem.protocols import PROTOCOLS

    parser.add_argument(
        "--protocol", default=None, choices=sorted(PROTOCOLS),
        help="coherence protocol override (registered protocols)",
    )
    parser.add_argument("--bits", type=int, default=16,
                        help="payload length (alternating bits)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rate", type=float, default=None,
                        help="nominal Kbits/s")
    parser.add_argument("--calibration-samples", type=int, default=150)
    args = parser.parse_args(argv)

    from repro.channel.session import ChannelSession, SessionConfig, resolve_spec
    from repro.errors import ConfigError
    from repro.obs import text_timeline, write_chrome_trace

    try:
        spec = resolve_spec(args.scenario, protocol=args.protocol)
    except ConfigError as exc:
        parser.error(str(exc))
    params = spec.default_params()
    if args.rate is not None:
        if args.rate <= 0:
            parser.error(
                f"--rate must be a positive Kbit/s value, got {args.rate:g}"
            )
        params = params.at_rate(args.rate)
    session = ChannelSession(SessionConfig(
        spec=spec,
        params=params,
        seed=args.seed,
        calibration_samples=args.calibration_samples,
        trace=True,
    ))
    payload = [i % 2 for i in range(max(1, args.bits))]
    result = session.transmit(payload)
    recorder = session.recorder
    print(f"transmitted {len(payload)} bits "
          f"(accuracy {result.accuracy * 100:.1f}%); "
          f"recorded {recorder.emitted} events "
          f"({recorder.dropped} dropped)", file=sys.stderr)
    if args.format == "chrome":
        out = write_chrome_trace(
            args.output or "trace.json", recorder, result.manifest
        )
        print(f"wrote {out}")
    else:
        timeline = text_timeline(recorder, samples=result.samples)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(timeline + "\n")
            print(f"wrote {args.output}")
        else:
            print(timeline)


def cmd_serve(argv: list[str]) -> None:
    """Run the experiment service in the foreground."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="host the experiment service on one HTTP port: the "
                    "job API + the shared single-flight cache routes + "
                    "one warm worker pool serving every submitted grid",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="HTTP port (default: 8765; 0 = any)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shared pool size (default: cpu count)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache root backing the index")
    parser.add_argument("--retries", type=int, default=0,
                        help="default per-point retry budget")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default per-point wall-clock timeout (s)")
    args = parser.parse_args(argv)

    import asyncio
    import os
    import signal

    from repro.runner import FailurePolicy, ResultCache
    from repro.service import ExperimentService

    workers = args.workers if args.workers else (os.cpu_count() or 2)
    service = ExperimentService(
        cache=ResultCache(args.cache_dir),
        host=args.host,
        http_port=args.port,
        workers=workers,
        policy=FailurePolicy(
            retries=args.retries, timeout=args.timeout, keep_going=True,
        ),
    )

    async def host() -> None:
        await service.start()
        # SIGTERM (how CI and process managers stop a server) ends
        # serve_forever as Ctrl-C does, so stop() shuts the pool down
        # and no forkserver or resource_tracker outlives the server.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        http_host, http_port = service.host, service.http_port
        print(f"serving     http://{http_host}:{http_port}  "
              f"(jobs + single-flight cache)", file=sys.stderr)
        print(f"workers     {workers}  cache {service.cache.root}",
              file=sys.stderr)
        assert service._http_server is not None
        try:
            await service._http_server.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(host())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("service stopped", file=sys.stderr)


def cmd_submit(argv: list[str]) -> None:
    """Submit a registered driver's grid to a running service."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="submit an experiment grid to 'repro serve' and "
                    "stream its JSON-lines progress events",
    )
    parser.add_argument("driver", help="registered driver name (see "
                                       "'repro list'), e.g. fig8")
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="driver build_spec parameter (repeatable); values parse as "
             "JSON when possible, else string",
    )
    parser.add_argument("--retries", type=int, default=None,
                        help="per-point retry budget for this job")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point wall-clock timeout (s)")
    parser.add_argument("--no-follow", action="store_true",
                        help="print the job id and exit (don't stream "
                             "events)")
    args = parser.parse_args(argv)

    import json

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    params = {}
    for item in args.param:
        key, sep, raw = item.partition("=")
        if not sep:
            parser.error(f"--param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw

    try:
        client = ServiceClient(args.url)
        payload: dict = {"driver": args.driver, "params": params}
        if args.retries is not None:
            payload["retries"] = args.retries
        if args.timeout is not None:
            payload["timeout"] = args.timeout
        job_id = client.submit_job(payload)
        print(job_id)
        if args.no_follow:
            return
        for event in client.events(job_id):
            print(json.dumps(event, sort_keys=True, separators=(",", ":")))
        manifest = client.job(job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    if manifest["status"] != "done":
        raise SystemExit(1)


def cmd_jobs(argv: list[str]) -> None:
    """List a running service's jobs and dedupe counters."""
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="show the service's jobs, and per-job or global "
                    "cache/dedupe counters",
    )
    parser.add_argument("job", nargs="?", default=None,
                        help="job id for a full manifest (default: list "
                             "all jobs + server stats)")
    parser.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    args = parser.parse_args(argv)

    import json

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.url)
        if args.job is not None:
            print(json.dumps(client.job(args.job), indent=2, sort_keys=True))
            return
        jobs = client.jobs()
        if not jobs:
            print("(no jobs)")
        for job in jobs:
            print(f"{job['id']:10s} {job['status']:8s} "
                  f"{job['completed']:4d}/{job['total']:<4d} "
                  f"{job['experiment']}")
        stats = client.stats()
        cache = stats["cache"]
        print(f"cache: {cache['hits']} hits, {cache['published']} executed, "
              f"{cache['coalesced']} coalesced, "
              f"{cache['in_flight']} in flight")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_bands(argv: list[str]) -> None:
    """Calibrate and print the latency bands (Figure 2's summary)."""
    from repro.mem.protocols import PROTOCOLS

    parser = argparse.ArgumentParser(prog="repro bands")
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protocol", default="mesi", choices=sorted(PROTOCOLS),
        help="coherence protocol to calibrate under",
    )
    parser.add_argument(
        "--coherence", default="snoop", choices=("snoop", "directory"),
        help="coherence topology (snoop bus or home-node directory)",
    )
    args = parser.parse_args(argv)

    from repro.channel.calibration import calibrate
    from repro.channel.config import LOWNED
    from repro.mem.hierarchy import Machine, MachineConfig
    from repro.sim.rng import RngStreams

    machine = Machine(
        MachineConfig(protocol=args.protocol, coherence=args.coherence),
        RngStreams(args.seed),
    )
    # MOESI machines get the owner-service band measured alongside the
    # paper's four pairs so the O channel's symbol is visible here too.
    extra = (LOWNED,) if args.protocol == "moesi" else ()
    bands, _raw = calibrate(machine, samples=args.samples, extra_pairs=extra)
    for pair, band in sorted(bands.bands.items(), key=lambda kv: kv[1].lo):
        print(f"{pair.notation:8s} [{band.lo:6.1f}, {band.hi:6.1f}] cycles")
    if bands.dram:
        print(f"{'dram':8s} [{bands.dram.lo:6.1f}, {bands.dram.hi:6.1f}] cycles")


#: Utility command name -> (one-liner, handler).
UTILITIES: dict[str, tuple[str, Callable[[list[str]], None]]] = {
    "list": ("print the available commands", cmd_list),
    "send": ("transmit a bit string over a chosen scenario", cmd_send),
    "bands": ("print the calibrated latency bands", cmd_bands),
    "bench": ("run the performance harness (BENCH_<date>.json)", cmd_bench),
    "cache": ("inspect or prune the on-disk result cache", cmd_cache),
    "checkpoint": ("inspect an exported checkpoint blob", cmd_checkpoint),
    "trace": ("run a traced transmission and export the events", cmd_trace),
    "serve": ("host the experiment service (job API + shared cache)",
              cmd_serve),
    "submit": ("submit a driver grid to a running service", cmd_submit),
    "jobs": ("list a service's jobs and dedupe counters", cmd_jobs),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns an exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--profile":
        # Global profiling mode: run the remaining command under
        # cProfile and print the hottest functions to stderr (see
        # PERFORMANCE.md).  Placed before command dispatch so any
        # command can be profiled unchanged.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return main(argv[1:])
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("tottime").print_stats(25)
    if argv and argv[0] == "--trace":
        # Global tracing mode: every session and runner constructed by
        # the remaining command records structured events (repro.obs).
        # Propagated through the environment so worker processes and
        # cached-point keys are unaffected.
        import os

        os.environ["REPRO_TRACE"] = "1"
        return main(argv[1:])
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print()
        cmd_list([])
        return 0
    command, rest = argv[0], argv[1:]
    utility = UTILITIES.get(command)
    if utility is not None:
        utility[1](rest)
        return 0
    info = REGISTRY.get(command)
    if info is not None:
        info.main(rest)
        return 0
    print(f"unknown command {command!r}; try 'python -m repro list'",
          file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
