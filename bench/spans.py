"""Spans recorded from the benchmark around calls into each layer.

The program itself is not instrumented: :class:`Tracer` temporarily
replaces public callables with wrappers that record a span (id, parent
span, name, phase, point, start and end in ns) and, for a few of them,
a count read at the same boundary.  Spans stay in memory and are written
as JSON lines when the run ends.  A span's self time is its duration
minus the durations of its child spans.

``BENCHMARK.json`` lists the per-layer metrics with their units and
directions.  A metric's layer is the first part of its name; ``MOVES``
names the end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import NamedTuple

from bench.ledger import PATHS, PROTOCOL_CELLS, op_key, protocol_of
from bench.workloads import point_label

_LEDGER = "sim.run_ms via the ledger"

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "runner.dispatch_ms": "points_per_s@cache_replay",
    "runner.cache_lookup_ms": "point_p50_ms@cache_replay",
    "runner.cache_store_ms": "setup_s@cache_replay",
    "runner.entry_bytes": "point_p50_ms@cache_replay",
    "runner.cache_hit_ratio": "points_per_s@cache_replay",
    "channel.session_ms": "point_p50_ms@matrix_cold",
    "channel.calibrate_ms": "point_p50_ms@matrix_cold,traced_arena",
    "channel.calibrate_memo_hit_ratio": "point_p50_ms@matrix_cold",
    "channel.transmit_ms": "points_per_s@fig8_sweep",
    "channel.decode_ms": "point_p50_ms@fig8_sweep",
    "channel.samples": "point_p50_ms@fig8_sweep",
    "sim.run_ms": "points_per_s,sim_events_per_s@fig8_sweep",
    "sim.events": "sim_events_per_s@fig8_sweep",
    "sim.cycles": "channel_kbps@all",
    "sim.event_ns": "sim_events_per_s@fig8_sweep,matrix_cold",
    "mem.machine_build_ms": "setup_s@all,point_p50_ms@traced_arena",
    "mem.machine_builds": "point_p50_ms@traced_arena",
    "mem.machine_reset_ms": "point_p50_ms@matrix_cold",
    **{f"mem.loads.{p}": _LEDGER for p in PATHS},
    "mem.flushes": _LEDGER,
    "mem.stores.rfo": _LEDGER,
    "mem.stores.hit_m": _LEDGER,
    **{f"mem.dir.{k}": "sim.run_ms@matrix_cold"
       for k in ("owner_forward", "home_service", "memory_fill")},
    **{f"mem.{proto}.{op}": _LEDGER
       for proto in PROTOCOL_CELLS
       for op in (*(f"load_ns.{p}" for p in PATHS), "store_ns", "flush_ns")},
    "kernel.share_setup_ms": "setup_s@all",
    "kernel.eviction_set_ms": "point_p50_ms@matrix_cold",
    "kernel.cow_faults": "point_p50_ms@matrix_cold",
    "obs.traced_events": "points_per_s@traced_arena",
    "obs.dropped_events": "points_per_s@traced_arena",
    "obs.event_ns": "points_per_s@traced_arena",
    "obs.manifest_ms": "point_p50_ms@all",
    "detection.events": "points_per_s@traced_arena",
    "detection.peak_tracked": "points_per_s@traced_arena",
    "detection.sink_ns": "points_per_s@traced_arena",
    "detection.score_ms": "point_p50_ms@traced_arena",
    "bench.span_overhead": "none (must stay under 0.03)",
    "ledger.unattributed_share": "none (reported, not gated)",
}

#: (module, attribute path, span name) of every wrapped callable.
SPAN_TARGETS = (
    ("repro.runner.executor", "Runner.run", "runner.run"),
    ("repro.runner.cache", "ResultCache.lookup", "cache.lookup"),
    ("repro.runner.cache", "ResultCache.store", "cache.store"),
    ("repro.channel.session", "execute_point", "point"),
    ("repro.experiments.arena", "point", "point"),
    ("repro.channel.session", "ChannelSession.__init__", "session.init"),
    ("repro.channel.session", "calibrate_memoized", "calibrate_memoized"),
    ("repro.channel.session", "calibrate", "calibrate"),
    ("repro.channel.calibration", "calibrate", "calibrate"),
    ("repro.channel.session", "ChannelSession.transmit", "transmit"),
    ("repro.channel.decoder", "BitDecoder.decode", "decode"),
    ("repro.channel.session", "align_bits", "align"),
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.mem.hierarchy", "Machine.__init__", "machine.build"),
    ("repro.mem.hierarchy", "Machine.reset", "machine.reset"),
    ("repro.kernel.syscalls", "Kernel.setup_ksm_shared_page", "kernel.share"),
    ("repro.kernel.syscalls", "Kernel.map_shared_readonly", "kernel.share"),
    ("repro.kernel.syscalls", "Kernel.map_shared_writable", "kernel.share"),
    ("repro.kernel.syscalls", "Kernel.build_eviction_set", "kernel.eviction_set"),
    ("repro.obs.manifest", "RunManifest.capture", "manifest"),
    ("repro.detection.streaming", "StreamingDetector.score_all", "detector.score"),
)


class Patch:
    """Replace ``owner.attr`` by ``make(original)``; :meth:`undo` restores it."""

    def __init__(self, owner, attr: str, make):
        self.owner, self.attr = owner, attr
        self.own = attr in vars(owner)
        self.raw = vars(owner)[attr] if self.own else getattr(owner, attr)
        if isinstance(self.raw, classmethod):
            setattr(owner, attr, classmethod(make(self.raw.__func__)))
        else:
            setattr(owner, attr, make(self.raw))

    def undo(self) -> None:
        if self.own:
            setattr(self.owner, self.attr, self.raw)
        else:
            delattr(self.owner, self.attr)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class ManifestTally:
    """Remembers the last ``RunManifest`` captured.

    Arena rows carry no manifest, so the benchmark reads their engine
    event counts here; it costs one assignment per transmission.
    """

    def __init__(self):
        self.last = None
        self._patch: Patch | None = None

    def install(self) -> None:
        from repro.obs.manifest import RunManifest

        def make(capture):
            def tallied(cls, *args, **kwargs):
                self.last = capture(cls, *args, **kwargs)
                return self.last
            return tallied

        self._patch = Patch(RunManifest, "capture", make)

    def take(self):
        last, self.last = self.last, None
        return last


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    phase: str
    point: str
    start_ns: int
    end_ns: int
    data: object


def _sim_before(tracer, args, kwargs):
    sim = args[0]
    return sim.stats.counters(), sim.global_clock


def _sim_after(tracer, args, kwargs, result, before):
    counters, clock = before
    sim = args[0]
    counts = {
        name: value - counters.get(name, 0)
        for name, value in sim.stats.counters().items()
        if value != counters.get(name, 0)
    }
    return {"proto": tracer.protocol, "cycles": sim.global_clock - clock,
            "counts": counts}


def _point_before(tracer, args, kwargs):
    tracer.point = f"{next(tracer._execs)}:{point_label(kwargs)}"


def _session_before(tracer, args, kwargs):
    tracer.protocol = protocol_of(args[1].machine)


def _manifest_after(tracer, args, kwargs, result, before):
    tracer.manifests[(tracer.phase, tracer.point)] = result


#: span name -> (before hook, after hook, point identity).  Hooks run
#: outside the span's own interval.
_HOOKS = {
    "point": (_point_before, None, None),
    "session.init": (_session_before, None, None),
    "sim.run": (_sim_before, _sim_after, None),
    "cache.lookup": (None, lambda t, a, kw, result, b: result[0],
                     lambda a, kw: a[1].label),
    "cache.store": (None, None, lambda a, kw: a[1].label),
    "decode": (None, lambda t, a, kw, result, b: len(a[1]), None),
    "manifest": (None, _manifest_after, None),
}


class Tracer:
    """Records spans while installed; ``phase`` tags what is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.point = ""
        self.protocol = "mesi"
        #: (phase, point execution) -> last RunManifest captured in it.
        self.manifests: dict[tuple[str, str], object] = {}
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._execs = itertools.count(1)
        self._patches: list[Patch] = []

    def install(self) -> None:
        for module, path, name in SPAN_TARGETS:
            owner, attr = _owner(module, path)
            self._patches.append(
                Patch(owner, attr, lambda fn, name=name: self._wrap(fn, name))
            )

    def uninstall(self) -> None:
        while self._patches:
            self._patches.pop().undo()

    def _wrap(self, fn, name: str):
        before, after, ident = _HOOKS.get(name, (None, None, None))
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter_ns
        tracer = self

        def spanned(*args, **kwargs):
            ctx = before(tracer, args, kwargs) if before else None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            data = after(tracer, args, kwargs, result, ctx) if after else None
            point = ident(args, kwargs) if ident else tracer.point
            spans.append(Span(sid, parent, name, tracer.phase, point, start, end, data))
            return result

        return spanned

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), default=str) + "\n")


def per_layer(tracer: Tracer, run: dict) -> dict[str, float]:
    """Every per-layer metric from the spans of a traced run.

    Unit costs (per lookup, store, build) use every span; per-point
    means use the timed phase only.  ``run`` supplies what spans do not
    see: ``points`` and ``executed`` (timed outcomes, and those that ran
    rather than hit the cache), ``entry_bytes``, ``detector_events``,
    ``detector_peak``, ``twins``, ``span_overhead`` and ``unit_costs``.
    """
    spans = tracer.spans
    children: dict[int, int] = defaultdict(int)
    for s in spans:
        children[s.parent] += s.end_ns - s.start_ns
    timed = [s for s in spans if s.phase == "timed"]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in timed:
        by_name[s.name].append(s)

    def dur(items) -> int:
        return sum(s.end_ns - s.start_ns for s in items)

    def self_ns(name: str) -> int:
        return sum(s.end_ns - s.start_ns - children[s.id] for s in by_name[name])

    def mean(total: float, n: int) -> float:
        return total / n if n else 0.0

    n_points, n_exec = run["points"], run["executed"]
    ms = 1e-6
    lookups = by_name["cache.lookup"]
    stores = [s for s in spans if s.name == "cache.store"]
    builds = [s for s in spans if s.name == "machine.build"]
    memo_ids = {s.id for s in by_name["calibrate_memoized"]}
    misses = sum(1 for s in by_name["calibrate"] if s.parent in memo_ids)
    cold = [s for s in by_name["calibrate"] if s.parent not in memo_ids]
    runs = by_name["sim.run"]
    run_ns = dur(runs)
    events = sum(s.data["counts"].get("engine.events", 0) for s in runs)
    manifests = [m for (phase, _), m in tracer.manifests.items() if phase == "timed"]

    def stat(name: str) -> float:
        return mean(sum(m.stats.get(name, 0) for m in manifests), n_exec)

    costs = run["unit_costs"]
    attributed = 0.0
    for s in runs:
        unit = costs[s.data["proto"]]
        for counter, count in s.data["counts"].items():
            key = op_key(counter)
            if key is not None:
                attributed += count * unit.get(key, 0.0)

    values = {
        "runner.dispatch_ms": mean(self_ns("runner.run") * ms, n_points),
        "runner.cache_lookup_ms": mean(dur(lookups) * ms, len(lookups)),
        "runner.cache_store_ms": mean(dur(stores) * ms, len(stores)),
        "runner.entry_bytes": run["entry_bytes"],
        "runner.cache_hit_ratio": mean(sum(s.data for s in lookups), len(lookups)),
        "channel.session_ms": mean(self_ns("session.init") * ms, n_exec),
        "channel.calibrate_ms": mean(
            (dur(by_name["calibrate_memoized"]) + dur(cold)) * ms, n_exec),
        "channel.calibrate_memo_hit_ratio": (
            1.0 - mean(misses, len(memo_ids)) if memo_ids else 0.0),
        "channel.transmit_ms": mean(self_ns("transmit") * ms, n_exec),
        "channel.decode_ms": mean(
            (dur(by_name["decode"]) + dur(by_name["align"])) * ms, n_exec),
        "channel.samples": mean(sum(s.data for s in by_name["decode"]), n_exec),
        "sim.run_ms": mean(run_ns * ms, n_exec),
        "sim.events": mean(events, n_exec),
        "sim.cycles": mean(sum(s.data["cycles"] for s in runs), n_exec),
        "sim.event_ns": mean(run_ns, events),
        "mem.machine_build_ms": mean(dur(builds) * ms, len(builds)),
        "mem.machine_builds": mean(len(by_name["machine.build"]), n_exec),
        "mem.machine_reset_ms": mean(dur(by_name["machine.reset"]) * ms, n_exec),
        **{f"mem.loads.{p}": stat(f"machine.load.{p}") for p in PATHS},
        "mem.flushes": stat("machine.flush"),
        "mem.stores.rfo": stat("machine.store.rfo"),
        "mem.stores.hit_m": stat("machine.store.hit_m"),
        **{f"mem.dir.{k}": stat(f"machine.dir.{k}")
           for k in ("owner_forward", "home_service", "memory_fill")},
        **{f"mem.{proto}.load_ns.{p}": costs[proto].get(f"load.{p}", 0.0)
           for proto in PROTOCOL_CELLS for p in PATHS},
        **{f"mem.{proto}.{op}_ns": costs[proto].get(op, 0.0)
           for proto in PROTOCOL_CELLS for op in ("store", "flush")},
        "kernel.share_setup_ms": mean(dur(by_name["kernel.share"]) * ms, n_exec),
        "kernel.eviction_set_ms": mean(
            dur(by_name["kernel.eviction_set"]) * ms, n_exec),
        "kernel.cow_faults": stat("kernel.cow_faults"),
        "obs.traced_events": mean(sum(m.traced_events for m in manifests), n_exec),
        "obs.dropped_events": mean(sum(m.dropped_events for m in manifests), n_exec),
        "obs.event_ns": run["twins"].get("obs.event_ns", 0.0),
        "obs.manifest_ms": mean(dur(by_name["manifest"]) * ms, n_exec),
        "detection.events": mean(run["detector_events"], n_exec),
        "detection.peak_tracked": mean(run["detector_peak"], n_exec),
        "detection.sink_ns": run["twins"].get("detection.sink_ns", 0.0),
        "detection.score_ms": mean(dur(by_name["detector.score"]) * ms, n_exec),
        "bench.span_overhead": run["span_overhead"],
        "ledger.unattributed_share": 1.0 - mean(attributed, run_ns) if run_ns else 0.0,
    }
    return {name: float(value) for name, value in values.items()}
