"""The bounded, digestible event recorder at the center of ``repro.obs``.

A :class:`TraceRecorder` is a ring buffer of typed :class:`TraceEvent`
records.  Memory is bounded: past ``capacity`` events the oldest are
overwritten and counted as *dropped*, so a runaway trace can never grow
without limit.  The recorder follows the same bind-once discipline as
:meth:`repro.sim.stats.StatsRegistry.counter_handle` — components check
the enable predicate **once** (at session construction, at
``Runner.__init__``) and hold either a recorder reference or ``None``;
the disabled path therefore carries no per-event conditional at all.

Event streams are content-addressable: :meth:`TraceRecorder.digest`
hashes every retained event (category, name, timestamp, canonical JSON
of the payload) plus the emitted/dropped counts, which is what the
golden trace test pins.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable

#: Default ring capacity.  A full fixed-seed transmission (calibration
#: included) emits a few tens of thousands of events, so the default
#: retains complete runs while bounding memory to a few MB.
DEFAULT_CAPACITY = 1 << 17

#: A live consumer of the event feed: any callable taking one
#: :class:`TraceEvent`.  Sinks observe the same object the ring buffer
#: retains and must treat it as read-only — mutating ``event.data``
#: would corrupt the recorded stream (and its digest).
TraceSink = Callable[["TraceEvent"], None]


def trace_enabled() -> bool:
    """Whether tracing is globally enabled (``REPRO_TRACE`` truthy).

    ``REPRO_TRACE=1`` (or any value other than ``0`` / empty) turns
    tracing on for every session and runner in the process; the CLI's
    global ``--trace`` flag sets it.
    """
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


class TraceEvent:
    """One typed trace record.

    Attributes
    ----------
    ts:
        Timestamp.  Simulated cycles for machine/channel events,
        wall-clock microseconds for runner lifecycle events.
    category:
        Event family: ``"load"``, ``"store"``, ``"flush"``,
        ``"coherence"``, ``"hop"``, ``"phase"``, ``"fault"`` or
        ``"runner"``.
    name:
        Short event name within the family (a service path, a phase
        name, a fault kind, ...).
    data:
        JSON-plain payload mapping.
    """

    __slots__ = ("ts", "category", "name", "data")

    def __init__(self, ts: float, category: str, name: str, data: dict):
        self.ts = ts
        self.category = category
        self.name = name
        self.data = data

    def to_json(self) -> dict:
        """Plain-dict form (stable key order is the caller's concern)."""
        return {
            "ts": self.ts,
            "category": self.category,
            "name": self.name,
            "data": self.data,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.ts!r}, {self.category!r}, {self.name!r}, "
            f"{self.data!r})"
        )


class TraceRecorder:
    """A bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: list[TraceEvent] = []
        self._head = 0  # next overwrite slot once the buffer is full
        self.emitted = 0
        self._sinks: tuple[TraceSink, ...] = ()

    def subscribe(self, sink: TraceSink) -> None:
        """Attach a live :data:`TraceSink` to the feed (idempotent).

        Every subsequent :meth:`emit` calls *sink* with the event, after
        it has been placed in the ring — so a streaming consumer (e.g.
        :class:`repro.detection.streaming.StreamingDetector`) sees the
        identical feed a later replay of :meth:`events` would, without a
        second interposition layer on the machine.  Sinks never affect
        what is recorded: the ring contents, counters and
        :meth:`digest` are byte-for-byte the same with or without
        subscribers.
        """
        if sink not in self._sinks:
            self._sinks = self._sinks + (sink,)

    def unsubscribe(self, sink: TraceSink) -> None:
        """Detach a previously subscribed sink (no-op if absent)."""
        self._sinks = tuple(s for s in self._sinks if s is not sink)

    def emit(
        self, ts: float, category: str, name: str, data: dict | None = None
    ) -> None:
        """Record one event (overwriting the oldest when full)."""
        event = TraceEvent(ts, category, name, data if data is not None else {})
        buffer = self._buffer
        if len(buffer) < self.capacity:
            buffer.append(event)
        else:
            buffer[self._head] = event
            self._head = (self._head + 1) % self.capacity
        self.emitted += 1
        for sink in self._sinks:
            sink(event)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring was full."""
        return self.emitted - len(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return self._buffer[self._head:] + self._buffer[:self._head]

    def select(self, *categories: str) -> list[TraceEvent]:
        """Retained events of the given categories, oldest first."""
        wanted = set(categories)
        return [e for e in self.events() if e.category in wanted]

    def clear(self) -> None:
        """Drop every retained event and reset the counters."""
        self._buffer.clear()
        self._head = 0
        self.emitted = 0

    def digest(self) -> str:
        """SHA-256 over the retained event stream plus the counters.

        Stable across processes: floats hash via their shortest-repr
        form and payload dicts via canonical (sorted, compact) JSON.
        Any reorder, drop, or payload change moves the digest — which
        is exactly what the golden trace test wants to detect.
        """
        h = hashlib.sha256()
        h.update(f"{self.emitted}|{self.dropped}".encode())
        for event in self.events():
            h.update(
                f"\n{event.ts!r}|{event.category}|{event.name}|".encode()
            )
            h.update(json.dumps(
                event.data, sort_keys=True, separators=(",", ":"),
                default=str,
            ).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# the process-global runner recorder
# ----------------------------------------------------------------------

#: Lazily created recorder for runner lifecycle events (dispatch, retry,
#: cache hits).  Process-global because one :class:`~repro.runner.Runner`
#: schedules many points and the interesting signal is the interleaving.
_RUNNER_RECORDER: TraceRecorder | None = None

#: Wall-clock origin for runner-event timestamps (microseconds since the
#: first enabled recorder was created).
_RUNNER_EPOCH: float | None = None


def runner_recorder() -> TraceRecorder | None:
    """The process-global runner-lifecycle recorder, or ``None``.

    Returns ``None`` when tracing is disabled — callers bind the result
    once and the disabled path never re-checks the environment.
    """
    global _RUNNER_RECORDER, _RUNNER_EPOCH
    if not trace_enabled():
        return None
    if _RUNNER_RECORDER is None:
        _RUNNER_RECORDER = TraceRecorder()
        _RUNNER_EPOCH = time.monotonic()
    return _RUNNER_RECORDER


def runner_now() -> float:
    """Microseconds since the runner recorder's epoch."""
    if _RUNNER_EPOCH is None:
        return 0.0
    return (time.monotonic() - _RUNNER_EPOCH) * 1e6


def clear_runner_recorder() -> None:
    """Drop the process-global runner recorder (test hook)."""
    global _RUNNER_RECORDER, _RUNNER_EPOCH
    _RUNNER_RECORDER = None
    _RUNNER_EPOCH = None
