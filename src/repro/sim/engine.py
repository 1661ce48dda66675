"""The discrete-event engine: time-ordered interleaving of threads.

The engine keeps every thread's local cycle clock and always runs the
thread with the smallest clock next.  All operations on shared state
(the cache hierarchy) are therefore applied in global time order, which
makes cross-thread timing interference — the substance of the covert
channel — causally consistent without a full cycle-accurate pipeline.

Threads never block on each other at the Python level; they communicate
only through the simulated memory system and through timing, exactly as
the paper's trojan and spy do.

The inner loop is amortized O(1) per event: liveness is a counter
maintained at spawn/exit (not a scan over the thread list, which grows
with every transmission on a long-lived session), name lookup is a dict,
and the event counter is a bound handle flushed once per run.

Threads running one of the channel programs or the kernel-build noise
worker carry a driver (:mod:`repro.sim.drivers`) that executes their
ops without generator dispatch, bit-identically, in every session.  A
checkpoint stores each driver's position (:mod:`repro.checkpoint.core`);
the engine keeps no checkpoint state of its own.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, SimulationError, ThreadProgramError
from repro.sim.drivers import _Runtime, driver_for, hoisted_bindings
from repro.sim.events import Op
from repro.sim.stats import StatsRegistry
from repro.sim.thread import Cpu, Executor, SimThread, ThreadState

_READY = ThreadState.READY
_DONE = ThreadState.DONE
_FAILED = ThreadState.FAILED
_INF = float("inf")


class Simulator:
    """Owns the thread set and drives the time-ordered event loop.

    Parameters
    ----------
    stats:
        Optional shared statistics registry; one is created if omitted.
    """

    def __init__(self, stats: StatsRegistry | None = None):
        self.stats = stats if stats is not None else StatsRegistry()
        self.threads: list[SimThread] = []
        self._heap: list[tuple[float, int, SimThread]] = []
        self._seq = itertools.count()
        self._next_tid = itertools.count()
        self.global_clock: float = 0.0
        #: Threads in READY state that are not daemons; maintained at
        #: spawn and thread exit so the run loop never rescans
        #: ``self.threads`` (which only ever grows).
        self._live_count = 0
        self._by_name: dict[str, SimThread] = {}
        self._events_counter = self.stats.counter_handle("engine.events")
        #: Machine of the first driven thread, and the ``load``/``store``/
        #: ``flush`` bindings the live drivers hoisted: run entry
        #: re-hoists on any other.  ``None`` until a driver is attached.
        self._driver_machine: Any = None
        self._driver_bindings: tuple = ()
        self._rt = _Runtime()

    def spawn(
        self,
        name: str,
        program: Callable[[Cpu], Generator],
        core_id: int,
        executor: Executor,
        start_time: float | None = None,
        daemon: bool = False,
        process: Any = None,
        spec: Any = None,
    ) -> SimThread:
        """Create a thread and schedule its first step.

        Parameters
        ----------
        name:
            Label for traces and errors; must be unique among live
            threads (it indexes :meth:`thread_by_name`, which always
            resolves to the most recently spawned holder of the name).
        program:
            Generator function taking a :class:`~repro.sim.thread.Cpu`.
        core_id:
            Global core index the thread is pinned to.
        executor:
            Callable executing ops for this thread (normally supplied by
            the kernel, which closes over the process's address space).
        start_time:
            Cycle at which the thread becomes runnable; defaults to the
            current global clock.
        daemon:
            Daemon threads do not keep :meth:`run` alive; they are killed
            once every non-daemon thread has finished.
        process:
            Optional owning process object (used by the kernel layer).
        spec:
            Optional :class:`repro.checkpoint.ProgramSpec` describing
            how to rebuild *program* from plain data.  A spec naming one
            of the :data:`~repro.sim.drivers.DRIVERS` programs attaches
            a driver, which is what makes the thread checkpointable (a
            session falls back to an unsegmented run when any live
            thread is undriven).
        """
        existing = self._by_name.get(name)
        if existing is not None and existing.state is _READY:
            raise SimulationError(
                f"duplicate thread name {name!r}: names index thread_by_name "
                "and must be unique among live threads"
            )
        thread = SimThread(
            tid=next(self._next_tid),
            name=name,
            program=program,
            core_id=core_id,
            executor=executor,
            process=process,
        )
        thread.daemon = daemon
        thread.clock = self.global_clock if start_time is None else float(start_time)
        thread._engine_exit = self._thread_exited
        thread.program_spec = spec
        self.threads.append(thread)
        self._by_name[name] = thread
        if not daemon:
            self._live_count += 1
        self._push(thread)
        driver = driver_for(self, thread, executor, spec)
        if driver is not None:
            thread.driver = driver
            if self._driver_machine is None:
                self._driver_machine = driver.kernel.machine
                self._driver_bindings = hoisted_bindings(self._driver_machine)
        return thread

    @property
    def engine_path(self) -> str:
        """Which path ran the channel threads, for run manifests.

        ``"driven"`` once a driver was attached, ``"generator"`` when no
        thread ever had one.
        """
        return "driven" if self._driver_machine is not None else "generator"

    def _thread_exited(self, thread: SimThread) -> None:
        """Exit hook fired exactly once per thread (done/killed/failed)."""
        if not thread.daemon:
            self._live_count -= 1

    def _push(self, thread: SimThread) -> None:
        heapq.heappush(self._heap, (thread.clock, next(self._seq), thread))

    def _live_non_daemon(self) -> int:
        """Number of runnable non-daemon threads (O(1))."""
        return self._live_count

    def run(
        self,
        max_cycles: float | None = None,
        max_events: int | None = 50_000_000,
        stop_when: Callable[["Simulator"], bool] | None = None,
        kill_daemons: bool = False,
        pause_at: float | None = None,
    ) -> bool:
        """Run until every non-daemon thread finishes.

        Returns True if the run *paused* at ``pause_at`` with work still
        outstanding, False if it ran to completion.

        Parameters
        ----------
        max_cycles:
            Abort (raising :class:`SimulationError`) if the global clock
            passes this value — a guard against runaway programs.
        max_events:
            Abort after this many executed ops.
        stop_when:
            Optional predicate checked after every event; return True to
            stop early (e.g. when a decoder has seen enough samples).
        kill_daemons:
            Kill surviving daemon threads on return.  Leave False when
            daemons (noise workloads, the KSM scanner) must persist
            across multiple :meth:`run` calls on the same simulator.
        pause_at:
            Pause (without error) once the global clock reaches this
            cycle: every thread is parked between ops, which is the
            state :func:`repro.checkpoint.capture` snapshots.  Resuming
            is just calling :meth:`run` again — the pause is invisible
            to the simulation.

        A driven thread popping off the heap takes an *inline run*: its
        driver keeps executing ops while each completion stays strictly
        below both the next heap entry's clock and ``pause_at``, and the
        pause is checked after the run.  Under ``stop_when`` every
        advance executes exactly one op instead, so the predicate sees
        every event as on the generator path.

        A ``load``/``store``/``flush`` binding attached since the drivers
        hoisted theirs (a detection monitor, a second tap) is re-hoisted
        here, so live drivers issue through it from the first event on.
        """
        if self._driver_machine is not None:
            bindings = hoisted_bindings(self._driver_machine)
            if bindings != self._driver_bindings:
                self._driver_bindings = bindings
                for thread in self.threads:
                    if thread.driver is not None:
                        thread.driver.hoist()
        events = 0
        paused = False
        # Hoisted hot-loop state: bound methods, the heap list and the
        # sequence counter are locals so each event pays zero repeated
        # attribute lookups.  Advancing a thread's program and recording
        # its op result are inlined below: one executed op costs two
        # Python method calls total (the generator resume and the
        # executor).
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq_next = self._seq.__next__
        global_clock = self.global_clock
        op_types = SimThread._OP_TYPES
        valid_ops = SimThread._VALID_OPS
        event_limit = float("inf") if max_events is None else max_events
        cycle_limit = float("inf") if max_cycles is None else max_cycles
        pause_limit = float("inf") if pause_at is None else pause_at
        stepwise = stop_when is not None
        rt = self._rt
        rt.event_limit = event_limit
        rt.cycle_limit = cycle_limit
        rt.max_events = max_events
        rt.max_cycles = max_cycles
        try:
            while heap:
                if self._live_count == 0:
                    break
                clock, _seq, thread = heappop(heap)
                if thread.state is not _READY:
                    continue
                tclock = thread.clock
                if clock < tclock:
                    # Stale heap entry (thread was rescheduled); reinsert.
                    heappush(heap, (tclock, seq_next(), thread))
                    continue
                driver = thread.driver
                if driver is not None:
                    # -- inline run ------------------------------------
                    # The driver checks the event and cycle limits
                    # itself.  An advance that ends the thread executed
                    # no op at or past its bound, so like a StopIteration
                    # below it skips the pause and stop checks.
                    if stepwise:
                        bound = -_INF
                    else:
                        bound = heap[0][0] if heap else _INF
                        if pause_limit < bound:
                            bound = pause_limit
                    rt.events = events
                    rt.global_clock = global_clock
                    try:
                        driver.advance(bound, rt)
                    finally:
                        events = rt.events
                        if rt.global_clock > global_clock:
                            global_clock = rt.global_clock
                            self.global_clock = global_clock
                    if thread.state is not _READY:
                        thread.driver = None
                        continue
                    heappush(heap, (thread.clock, seq_next(), thread))
                    if global_clock >= pause_limit:
                        paused = True
                        break
                    if stepwise and stop_when(self):
                        break
                    continue
                # -- advance the program to its next op ----------------
                # send(None) on a fresh generator is next(), so one send
                # covers both the first and every later resume.
                try:
                    op = thread._generator.send(thread._pending_result)
                except StopIteration as stop:
                    thread.state = _DONE
                    thread.result = stop.value
                    thread._fire_exit()
                    continue
                except BaseException:
                    thread.state = _FAILED
                    thread._fire_exit()
                    raise
                if type(op) not in op_types and not isinstance(op, valid_ops):
                    thread.state = _FAILED
                    thread._fire_exit()
                    raise ThreadProgramError(
                        f"thread {thread.name!r} yielded {op!r}; "
                        "expected a simulator op"
                    )
                result = thread.executor(thread, op)
                # -- record the result and advance the clock -----------
                tclock = result.timestamp
                thread.clock = tclock
                thread.ops_executed += 1
                thread._pending_result = result
                if tclock > global_clock:
                    # Write-through: programs may spawn threads or read
                    # the clock mid-run, so the attribute must track the
                    # hoisted local.
                    global_clock = tclock
                    self.global_clock = tclock
                heappush(heap, (tclock, seq_next(), thread))
                events += 1
                if events >= event_limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(global clock {global_clock:.0f})"
                    )
                if global_clock > cycle_limit:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}"
                    )
                if global_clock >= pause_limit:
                    paused = True
                    break
                if stop_when is not None and stop_when(self):
                    break
            else:
                if self._live_count > 0:
                    raise DeadlockError(
                        "event heap empty but non-daemon threads remain READY"
                    )
        finally:
            self._events_counter.value += events
        if kill_daemons:
            self.kill_daemons()
        return paused

    def kill_daemons(self) -> None:
        """Kill every surviving daemon thread (final cleanup)."""
        for thread in self.threads:
            if thread.daemon and not thread.done:
                thread.kill()

    def live_run_order(self) -> list[SimThread]:
        """Live threads in the order the event loop would pop them next.

        Checkpoint support: a restored simulator respawns threads in
        exactly this order with ``start_time=thread.clock``, so the
        fresh heap's FIFO tie-breaking (its sequence counter) reproduces
        the original pop order bit-for-bit.  Simulates the run loop's
        pop-and-reinsert handling of stale entries on a copy of the
        heap; ``self._heap`` is not mutated.
        """
        heap = list(self._heap)
        heapq.heapify(heap)
        seen: set[int] = set()
        order: list[SimThread] = []
        seq_next = self._seq.__next__
        while heap:
            clock, _seq, thread = heapq.heappop(heap)
            if thread.state is not _READY or thread.tid in seen:
                continue
            if clock < thread.clock:
                # Stale entry: the run loop would reinsert it with a
                # fresh (largest) sequence number; mirror that exactly.
                heapq.heappush(heap, (thread.clock, seq_next(), thread))
                continue
            seen.add(thread.tid)
            order.append(thread)
        return order

    def thread_by_name(self, name: str) -> SimThread:
        """Look up a thread by its (unique) name."""
        return self._by_name[name]
