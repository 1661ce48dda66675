"""Host time in reference seconds: the benchmark's answer to a host whose speed drifts.

On a shared virtual machine the host's speed moves by tens of percent
over seconds to minutes, and every workload slows with it.  A fixed
pure-Python probe, timed right after the work it scales, slows the same
way, so host seconds × ``REFERENCE_S`` ÷ probe seconds cancels most of
the drift while still moving with any change to the program.

The probe runs three small kernels that mirror what the simulator does:
integer arithmetic, a dict-of-lines cache model with object attributes,
and a heap-ordered event queue.  It imports nothing from the program, so
no change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe seconds at the reference host speed: the probe's time on the
#: host the benchmark was sized on when that host was quiet (README,
#: "Steadiness").
REFERENCE_S = 0.010

#: Work shorter than this shares the next probe with the work after it.
PROBE_EVERY_S = 0.1


def _arith(n: int = 60_000) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class _Line:
    __slots__ = ("tag", "state", "owner")

    def __init__(self, tag: int):
        self.tag, self.state, self.owner = tag, 0, -1


def _lines(n: int = 5_000) -> int:
    sets: list[dict[int, _Line]] = [{} for _ in range(64)]
    hits = 0
    for i in range(n):
        addr = (i * 2654435761) & 0xFFFF
        ways = sets[addr & 63]
        line = ways.get(addr >> 6)
        if line is None:
            if len(ways) >= 8:
                ways.pop(next(iter(ways)))
            line = ways[addr >> 6] = _Line(addr >> 6)
        else:
            hits += 1
        line.state = (line.state + 1) & 3
        line.owner = i & 3
    return hits


def _events(n: int = 6_000) -> float:
    queue: list = []
    done, at = 0, 0.0

    def handler(x: int) -> int:
        return x + 1

    for seq in range(64):
        heapq.heappush(queue, (float(seq), seq, handler))
    seq = 64
    while done < n:
        at, _seq, fn = heapq.heappop(queue)
        fn(done)
        done += 1
        heapq.heappush(queue, (at + 3.0 + done % 7, seq, fn))
        seq += 1
    return at


def probe() -> float:
    """Seconds the probe takes now, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arith()
        _lines()
        _events()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Splits a run into laps and gives each one in reference seconds.

    ``lap(tag)`` closes the lap since the previous mark.  Once
    *probe_every* seconds have passed since the last probe, a probe runs
    and every lap closed since then is scaled by ``REFERENCE_S`` ÷ the
    mean of the probes on either side of it (the first laps have only the
    one after them).  The probes' own time is in no lap.  ``laps`` holds
    (tag, reference seconds) for every scaled lap; ``flush`` probes and
    scales the rest.
    """

    def __init__(self, probe_every: float = PROBE_EVERY_S, before: float | None = None):
        """*before*: a probe taken just before the first lap began."""
        self.probe_every = probe_every
        self.laps: list[tuple[object, float]] = []
        self.probes: list[float] = [] if before is None else [before]
        self._pending: list[tuple[object, float]] = []
        self._mark = self._probed = time.perf_counter()

    def restart(self) -> None:
        """Start the next lap now, leaving the time since the last mark out."""
        self._mark = time.perf_counter()

    def lap(self, tag: object = None, since: float | None = None) -> None:
        now = time.perf_counter()
        start = self._mark if since is None else since
        self._pending.append((tag, now - start))
        if now - self._probed >= self.probe_every:
            self.flush()
        else:
            self._mark = now

    def flush(self) -> None:
        if self._pending:
            seconds = probe()
            around = (seconds + self.probes[-1]) / 2 if self.probes else seconds
            self.probes.append(seconds)
            factor = REFERENCE_S / around
            self.laps += [(tag, s * factor) for tag, s in self._pending]
            self._pending.clear()
        self._mark = self._probed = time.perf_counter()

    def total(self) -> float:
        return sum(s for _tag, s in self.laps)
