"""Interconnect contention model (on-chip ring, QPI link, memory bus).

Every memory operation registers traffic on the resources its service
path crosses; a sliding-window occupancy count converts concurrent
traffic into queuing delay.  This is what makes co-located noise
workloads (Figure 9) degrade the covert channel: they both evict the
covert line *and* inflate latency variance through these resources.

Hot-path design.  Every registration is one unit of traffic.  The
event log is an insertion-ordered deque of times, and eviction drops
only its expired *prefix*, so mildly out-of-order events from batched
bursts are retained; the load is the number of retained events with
``cutoff <= t <= time``.  A time-sorted index of the retained events
answers that count with two bisections instead of a scan of the window.

The mean delay at each load is precomputed once per resource
(``Resource._delays``), so the M/M/1 arithmetic has one copy: the
calibration replay (:func:`repro.channel.calibration._replay`) reads the
same table when it keeps an in-order window itself, as a deque whose
length is the load, instead of calling :meth:`Resource.register` per
replayed op.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque

from repro.errors import ConfigError


class Resource:
    """One contended resource with a sliding-window M/M/1 queuing model.

    The mean queuing delay grows as ``k * rho / (1 - rho)`` where the
    utilization ``rho`` is the traffic inside the window divided by the
    resource's saturation throughput — near-zero when lightly loaded,
    steeply superlinear as the resource saturates, the way real
    ring/memory-controller queues behave under co-located noise.

    Parameters
    ----------
    name:
        Resource label (e.g. ``"ring0"``, ``"qpi"``).
    window:
        Width in cycles of the occupancy window.
    saturation:
        Accesses per window at which the resource saturates.
    service_cycles:
        The ``k`` factor: delay scale in cycles.
    """

    #: Utilization is clamped here so delays stay finite past saturation.
    RHO_CAP = 0.96

    #: Compact the sorted-time index once this many evicted slots
    #: accumulate at its head (amortizes the O(n) front deletion).
    _COMPACT_THRESHOLD = 512

    __slots__ = (
        "name", "window", "saturation", "service_cycles", "total_traffic",
        "_events", "_times", "_tpos", "_delays",
    )

    def __init__(
        self,
        name: str,
        window: float = 2_000.0,
        saturation: float = 110.0,
        service_cycles: float = 2.0,
    ):
        if window <= 0 or saturation <= 0 or service_cycles < 0:
            raise ConfigError(f"invalid contention parameters for {name}")
        self.name = name
        self.window = window
        self.saturation = saturation
        self.service_cycles = service_cycles
        self.total_traffic = 0.0
        #: Event times in insertion order.
        self._events: deque[float] = deque()
        #: The same times, sorted; ``_times[_tpos:]`` is live, the head
        #: before it holds evicted slots awaiting compaction.
        self._times: list[float] = []
        self._tpos = 0
        #: Mean delay per load: entry *k* is the delay at load *k*, up to
        #: the first load whose utilization is clamped; every larger
        #: load reads the last entry.
        self._delays: list[float] = []
        load = 0
        while True:
            rho = min(load / saturation, self.RHO_CAP)
            self._delays.append(service_cycles * rho / (1.0 - rho))
            if rho >= self.RHO_CAP:
                break
            load += 1

    def register(self, time: float) -> float:
        """Record one unit of traffic at *time*.

        Returns the *mean* queuing delay at the current utilization; the
        machine turns it into a bursty draw.  Events may arrive mildly
        out of time order (a batched burst registers accesses at future
        instants before other threads catch up), so the load counts the
        retained events actually inside ``[time - window, time]``.
        """
        cutoff = time - self.window
        events = self._events
        times = self._times
        tpos = self._tpos
        while events and events[0] < cutoff:
            t = events.popleft()
            # Drop t from the sorted index.  The evicted prefix usually
            # holds the globally oldest times, so this is almost always
            # the index head; out-of-order retirements bisect.
            if times[tpos] == t:
                tpos += 1
            else:
                del times[bisect_left(times, t, tpos)]
        if tpos >= self._COMPACT_THRESHOLD:
            del times[:tpos]
            tpos = 0
        self._tpos = tpos
        load = bisect_right(times, time, tpos) - bisect_left(times, cutoff, tpos)
        events.append(time)
        self.total_traffic += 1.0
        if not times or time >= times[-1]:
            times.append(time)
        else:
            insort(times, time, tpos)
        delays = self._delays
        return delays[load] if load < len(delays) else delays[-1]

    def current_load(self, time: float) -> int:
        """Traffic units inside the window ending at *time*.

        A pure query: the events eviction would drop all lie before the
        window, so counting needs no eviction.
        """
        times = self._times
        tpos = self._tpos
        return (bisect_right(times, time, tpos)
                - bisect_left(times, time - self.window, tpos))

    def reset(self) -> None:
        """Forget all recorded traffic (used between measurement phases)."""
        self._events.clear()
        self._times = []
        self._tpos = 0
        self.total_traffic = 0.0


class Interconnect:
    """The set of contended resources in a machine.

    One on-chip ring per socket, one inter-socket link (QPI), and one
    memory controller per socket.
    """

    def __init__(
        self,
        n_sockets: int,
        window: float = 2_000.0,
        ring_capacity: float = 50.0,
        qpi_capacity: float = 35.0,
        mem_capacity: float = 38.0,
        delay_per_excess: float = 3.5,
    ):
        if n_sockets <= 0:
            raise ConfigError("n_sockets must be positive")
        self.rings = [
            Resource(f"ring{s}", window, ring_capacity, delay_per_excess)
            for s in range(n_sockets)
        ]
        self.qpi = Resource("qpi", window, qpi_capacity, delay_per_excess)
        self.mems = [
            Resource(f"mem{s}", window, mem_capacity, delay_per_excess * 1.5)
            for s in range(n_sockets)
        ]

    def reset(self) -> None:
        """Clear every resource's traffic window.

        Needed when the measurement clock restarts (e.g. after a
        calibration pass that used its own local time base).
        """
        for resource in (*self.rings, self.qpi, *self.mems):
            resource.reset()
