"""Coherence-event telemetry: the raw signal available to a defender.

A hardware/hypervisor defender cannot read processes' minds, but it can
observe coherence traffic: flushes per line, ownership downgrades
(E/M -> S forwarding services), and which cores touch which lines.  The
:class:`EventMonitor` aggregates those observations per line in sliding
windows — the substrate the detectors in
:mod:`repro.detection.detector` consume.  It reads the one telemetry
feed, the ``"flush"``/``"load"`` events a :class:`~repro.obs.MachineTap`
records: a :class:`~repro.detection.streaming.StreamingDetector` folds
them in live as a recorder sink, and an offline scan folds a recorded
stream (``TraceRecorder.events()``) the same way, one event at a time.

Memory is bounded by construction: every per-line series is pruned to
the sliding window as events are recorded (not only when rates are
queried), and lines that go idle for :attr:`EventMonitor.idle_windows`
windows are evicted from the table entirely.  A monitor fed an
arbitrarily long stream therefore retains O(lines active within the
decay horizon x events per window) state — the property the streaming
detector builds on.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.obs.recorder import TraceEvent
from repro.sim.events import AccessPath

#: Service paths that mean an owner was forced to forward and downgrade:
#: the E->S transition the covert channel manufactures constantly.
DOWNGRADE_PATHS = (AccessPath.LOCAL_EXCL, AccessPath.REMOTE_EXCL)

#: Trace-event names (service paths) that are ownership downgrades —
#: the string form of :data:`DOWNGRADE_PATHS`, since
#: :class:`~repro.obs.MachineTap` names load events by path value.
DOWNGRADE_NAMES = frozenset(path.value for path in DOWNGRADE_PATHS)

#: Idle-line decay horizon: a line with no events for this many windows
#: is dropped from the table (it cannot score — every rate is zero).
DEFAULT_IDLE_WINDOWS = 8.0

#: How often (in recorded events) the monitor sweeps for idle lines.
_SWEEP_INTERVAL = 2048


@dataclass
class LineActivity:
    """Sliding-window activity for one cache line.

    The ``record_*`` methods are the write API: they append and prune in
    the same step, so the deques never hold more than one window of
    events no matter how long the feed runs, and the per-core load
    counts stay incrementally consistent with the ``loads`` deque
    (set-of-cores queries are O(distinct cores), not O(loads)).
    """

    window: float
    flushes: deque = field(default_factory=deque)           # times
    downgrades: deque = field(default_factory=deque)        # times
    loads: deque = field(default_factory=deque)             # (time, core)
    #: Loads per core currently inside the window (incrementally
    #: maintained; keys with zero count are removed).
    core_counts: dict[int, int] = field(default_factory=dict)
    #: Timestamp of the newest recorded event (idle-eviction clock).
    last_event: float = 0.0

    def record_flush(self, now: float) -> None:
        """Record one flush at *now* and prune the window."""
        self.flushes.append(now)
        self.last_event = now
        self.prune(now)

    def record_load(self, now: float, core: int, downgrade: bool) -> None:
        """Record one load (and possibly a downgrade) and prune."""
        self.loads.append((now, core))
        self.core_counts[core] = self.core_counts.get(core, 0) + 1
        if downgrade:
            self.downgrades.append(now)
        self.last_event = now
        self.prune(now)

    def prune(self, now: float) -> None:
        """Drop events older than the window."""
        cutoff = now - self.window
        for series in (self.flushes, self.downgrades):
            while series and series[0] < cutoff:
                series.popleft()
        while self.loads and self.loads[0][0] < cutoff:
            _t, core = self.loads.popleft()
            remaining = self.core_counts.get(core, 0) - 1
            if remaining > 0:
                self.core_counts[core] = remaining
            else:
                self.core_counts.pop(core, None)

    def flush_rate(self, now: float) -> float:
        """Flushes per million cycles over the window."""
        self.prune(now)
        return len(self.flushes) / self.window * 1e6

    def downgrade_rate(self, now: float) -> float:
        """Ownership downgrades per million cycles over the window."""
        self.prune(now)
        return len(self.downgrades) / self.window * 1e6

    def touching_cores(self, now: float) -> set[int]:
        """Cores that loaded the line within the window.

        O(distinct cores) via the incremental counts when every load
        went through :meth:`record_load`; falls back to scanning the
        deque for writers that append to ``loads`` directly.
        """
        self.prune(now)
        if sum(self.core_counts.values()) == len(self.loads):
            return set(self.core_counts)
        return {core for _t, core in self.loads}

    def tracked_events(self) -> int:
        """Retained series entries (the line's memory footprint)."""
        return len(self.flushes) + len(self.downgrades) + len(self.loads)


class EventMonitor:
    """Aggregates per-line coherence telemetry from trace events.

    Feed it the ``"flush"`` and ``"load"`` events a
    :class:`~repro.obs.MachineTap` emits, one at a time through
    :meth:`consume` — live, as a recorder sink, or in a batch over a
    recorded stream.  Only lines that ever see a flush are tracked in
    detail (flushes are rare in benign workloads, so this bounds the
    telemetry cost the way a real filter would), and lines idle for
    ``idle_windows`` windows are evicted — including from the flushed
    filter, so a long-dormant line starts fresh at its next flush.
    """

    def __init__(
        self,
        window: float = 400_000.0,
        idle_windows: float = DEFAULT_IDLE_WINDOWS,
    ):
        self.window = window
        self.idle_windows = idle_windows
        self.lines: dict[int, LineActivity] = defaultdict(
            lambda: LineActivity(window=self.window)
        )
        self._flushed_lines: set[int] = set()
        self.events_seen = 0
        self._next_sweep = _SWEEP_INTERVAL

    def consume(self, event: TraceEvent) -> None:
        """Fold one trace event into the per-line windows."""
        category = event.category
        if category == "flush":
            line = event.data["line"]
            self._flushed_lines.add(line)
            self.lines[line].record_flush(event.ts)
            self._note_event(event.ts)
        elif category == "load":
            line = event.data["line"]
            if line in self._flushed_lines:
                self.lines[line].record_load(
                    event.ts,
                    event.data["core"],
                    downgrade=event.name in DOWNGRADE_NAMES,
                )
                self._note_event(event.ts)

    def _note_event(self, now: float) -> None:
        """Amortized idle-line sweep, every ``_SWEEP_INTERVAL`` events."""
        self.events_seen += 1
        if self.events_seen >= self._next_sweep:
            self._next_sweep = self.events_seen + _SWEEP_INTERVAL
            self.evict_idle(now)

    def evict_idle(self, now: float) -> int:
        """Drop lines idle for ``idle_windows`` windows; returns count.

        An evicted line cannot change any detector verdict: all its
        in-window series are empty, so every rate is zero and no
        signature fires.  Dropping it from the flushed filter as well
        means tracking restarts only at its next flush — the same
        cold-start rule a fresh monitor applies.
        """
        horizon = now - self.idle_windows * self.window
        stale = [
            base for base, activity in self.lines.items()
            if activity.last_event < horizon
        ]
        for base in stale:
            del self.lines[base]
            self._flushed_lines.discard(base)
        return len(stale)

    def tracked_events(self) -> int:
        """Total retained series entries across all tracked lines."""
        return sum(a.tracked_events() for a in self.lines.values())
