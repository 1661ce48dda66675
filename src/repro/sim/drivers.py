"""Generator-free drivers for the channel and noise-worker programs.

The event loop (:meth:`repro.sim.engine.Simulator.run`) pays a fixed
per-event Python toll on the generator path — a generator resume, an
executor call, an ``OpResult`` allocation and a heap push — for every
executed op.  For the covert-channel workloads that toll dominates: the
trojan workers, the spy and the controller issue millions of ops per
transmission from three small, fully-known programs (Algorithms 1 and 2).
The kernel-build noise worker (Section VIII-C) is a fourth such program.

A *driver* removes the toll for exactly those threads.  At spawn time
:meth:`Simulator.spawn` recognizes the four programs by their
:class:`~repro.checkpoint.spec.ProgramSpec` factory path
(:data:`DRIVERS`) and attaches a driver to the thread's ``driver`` slot:
a flat state machine that issues the same op sequence the generator
would, against the same machine model, drawing the same RNG streams in
the same order.  The run loop advances a driven thread with an **inline
run**: when the thread pops off the event heap, its driver keeps
executing ops while each completion time stays strictly below the next
heap entry's clock, and the thread is pushed back once.  Because the
elided intermediate heap pushes would all have been strict minima popped
straight back (and the fresh-sequence tie-break at the boundary resolves
the ``==`` case the same way), the global interleaving of machine
mutations, RNG draws, event counts and clock updates is **bit-identical**
to the generator path — ``tests/test_engine_paths.py`` pins this.

Traced sessions run driven too: the session attaches its
:class:`~repro.obs.MachineTap` before any spawn, so the drivers hoist
the tap's ``load``/``flush`` wrappers (:func:`hoisted_bindings`) and
issue every access through them, in the generator path's global order —
the recorded event stream is byte-identical.  The worker's inline
L1-hit path stands aside when ``machine.load`` is interposed.  A binding
that changes between runs — a detection monitor or a second tap attached
to a built session — is re-hoisted at the next run entry
(:meth:`Simulator.run`), so live drivers issue through it from then on.

Everything else the drivers meet is read live: scheduler assignments
(forced preemption) at every advance, translations (KSM merges and
unmerges) at every access, and an obfuscation policy inside
``machine.load`` — it never applies to the L1-hit band the inline path
serves.  A driver's position is also the only form a checkpoint knows:
the handful of plain fields each class lists in ``POSITION``, which
:func:`repro.checkpoint.core.capture` stores and ``restore`` applies to
a fresh driver built from the thread's spec.  Nothing else of a driver
is pickled: its ``sim``/``thread``/``kernel`` links and the hoisted
bindings (whose ``pair_actions`` cache is keyed by ``id()``) are
rebuilt by :meth:`hoist` at spawn, and a noise worker's RNG stream is
looked up again by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NoReturn

from repro.errors import SimulationError, SyncTimeoutError
from repro.sim.events import AccessPath, Burst
from repro.sim.thread import SimThread, ThreadState

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

_READY = ThreadState.READY
_DONE = ThreadState.DONE
_FAILED = ThreadState.FAILED
_INF = float("inf")
_L1_HIT = AccessPath.L1_HIT

__all__ = ["DRIVERS", "driver_for", "hoisted_bindings"]


class _Ineligible(Exception):
    """A driver constructor refusing a thread it cannot drive exactly."""


class _Runtime:
    """Hot-loop accounting shared between the run loop and a driver.

    The run loop hoists ``events``/``global_clock`` into locals; around
    each driver advance they are spilled into this object so an
    exception mid-advance (a spy sync timeout, the ``max_events`` guard)
    leaves the counts exact.
    """

    __slots__ = (
        "events", "global_clock", "event_limit", "cycle_limit",
        "max_events", "max_cycles",
    )

    def __init__(self) -> None:
        self.events = 0
        self.global_clock = 0.0
        self.event_limit = _INF
        self.cycle_limit = _INF
        self.max_events: int | None = None
        self.max_cycles: float | None = None

    def overrun(self, sim: "Simulator", thread: SimThread, clock: float,
                events: int, global_clock: float) -> NoReturn:
        """Park *thread* at *clock* and raise the limit its op exceeded.

        The cold half of a driver's inline limit test: the thread goes
        back on the heap exactly as the generator path leaves it.
        """
        thread.clock = clock
        sim._push(thread)
        if events >= self.event_limit:
            raise SimulationError(
                f"exceeded max_events={self.max_events} "
                f"(global clock {global_clock:.0f})"
            )
        raise SimulationError(f"exceeded max_cycles={self.max_cycles}")


def _kernel_of(executor: Any) -> Any | None:
    """The owning Kernel of a bound ``Kernel._execute`` (else None)."""
    kernel = getattr(executor, "__self__", None)
    if kernel is None or not hasattr(kernel, "_sched_thread_core"):
        return None
    return kernel


#: Lazily-resolved channel-layer constants (import layering: sim must
#: not import channel at module load).  Resolved once per process, at
#: the first driver construction.
_channel_consts_cache: tuple | None = None


def _channel_consts() -> tuple:
    """(``_THREADS_NEEDED``, ``LineState.OWNED``, ``Sample``)."""
    global _channel_consts_cache
    if _channel_consts_cache is None:
        from repro.channel.config import _THREADS_NEEDED, LineState
        from repro.channel.decoder import Sample

        _channel_consts_cache = (_THREADS_NEEDED, LineState.OWNED, Sample)
    return _channel_consts_cache


class _WorkerDriver:
    """Drives ``repro.channel.trojan:worker_program`` threads.

    Replicates the worker loop exactly: one control poll per wakeup,
    the OWNED rank-0 store path, the load with the adaptive
    backoff/spin decision, and the idle poll cadence — including the
    inline L1-hit fast path that skips the full ``machine.load`` call
    (probing only the L1 bucket, so a miss leaves the caches untouched
    for the real lookup; valid in both snoop and directory mode, whose
    private-hit paths are identical).
    """

    __slots__ = (
        "sim", "thread", "kernel", "control", "role", "block_va", "params",
        "state", "load_latency", "_hoist",
    )

    #: The fields a checkpoint stores: the driver's whole position.
    POSITION = ("state", "load_latency")

    def __init__(self, sim: "Simulator", thread: SimThread, kernel: Any,
                 spec: Any):
        if len(spec.args) != 4 or spec.kwargs:
            raise _Ineligible("unexpected worker_program spec shape")
        self.sim = sim
        self.thread = thread
        self.kernel = kernel
        self.control, self.role, self.block_va, self.params = spec.args
        #: 0 = loop top (poll next), 1 = after the OWNED store (idle
        #: next), 2 = after the load (backoff/spin decision next).
        self.state = 0
        self.load_latency = 0.0
        self.hoist()

    def hoist(self) -> None:
        """Freeze what :meth:`advance` reads from the machine and kernel.

        Called at spawn and again by :meth:`Simulator.run` when the
        machine's ``load``/``store``/``flush`` bindings changed.
        """
        thread = self.thread
        kernel = self.kernel
        params = self.params
        machine = kernel.machine
        l1 = machine.cores[thread.core_id].l1
        noise = machine._noise
        rng = machine._jitter_rng
        hit_base, hit_counter = machine._path_info[_L1_HIT]
        buckets, set_mask = l1._sets, l1._set_mask
        if "load" in machine.__dict__:
            # Interposed load: one always-empty bucket sends every probe
            # through it, at no per-probe cost to the plain path.
            buckets, set_mask = ({},), 0
        reload_period = float(params.reload_period)
        if reload_period < 0.0:
            reload_period = 0.0
        spin = float(params.worker_spin_cycles)
        if spin < 0.0:
            spin = 0.0
        backoff = float(params.worker_backoff_fraction * params.slot_cycles)
        if backoff < 0.0:
            backoff = 0.0
        needed, owned, _ = _channel_consts()
        # Unpacked in one sequence per advance().  Translations are
        # deliberately NOT hoisted (KSM merges and unmerges and our own
        # COW-breaking store can remap the page mid-run).
        # pair -> poll action (0 idle, 1 store, 2 probe), keyed by id:
        # a scenario holds at most four distinct StatePairs and the
        # values list pins them, so the ids stay valid.
        pair_actions: dict[int, int] = {}
        pair_refs: list[Any] = []
        self._hoist = (
            buckets, set_mask, hit_base, hit_counter,
            noise.enabled, noise.sigma, noise.tail_probability,
            noise.tail_scale, rng.normal, rng.random, rng.exponential,
            machine.load, kernel._do_store, reload_period, spin, backoff,
            params.adaptive_backoff, params.worker_refill_floor,
            self.role.location, self.role.index, owned, needed,
            kernel._timeshare, kernel._sched_rng, thread.tid,
            thread.process, thread.core_id, self.block_va,
            pair_actions, pair_refs,
        )

    def advance(self, bound: float, rt: _Runtime) -> None:
        thread = self.thread
        kernel = self.kernel
        control = self.control

        (buckets, set_mask, hit_base, hit_counter, noise_on, sigma,
         tail_p, tail_s, normal, random, exponential, mload, do_store,
         reload_period, spin, backoff, adaptive, refill_floor,
         role_location, role_index, owned, needed, timeshare, sched_rng,
         tid, process, core_id, va, pair_actions, pair_refs) = self._hoist

        core = kernel._sched_thread_core.get(tid)
        # Static during one advance: assignments only change when
        # another thread runs (an exit, a preemption fault), and no
        # other thread runs while this driver advances.
        shared = (
            core is not None and len(kernel._sched_assignments[core]) > 1
        )

        clock = thread.clock
        events = rt.events
        global_clock = rt.global_clock
        event_limit = rt.event_limit
        cycle_limit = rt.cycle_limit
        state = self.state
        ops = 0
        latency = 0.0
        try:
            while True:
                is_delay = False
                if state == 0:
                    if not control.running:
                        # The program would break and StopIteration:
                        # no op, no event, thread exits.
                        thread.state = _DONE
                        thread.result = None
                        thread._fire_exit()
                        return
                    pair = control.active_pair
                    action = pair_actions.get(id(pair))
                    if action is None:
                        # First sighting of this pair: classify once
                        # (0 idle, 1 store, 2 probe) and pin the pair so
                        # its id stays valid for the cache's lifetime.
                        if (
                            pair is not None
                            and role_location is pair.location
                            and role_index < needed[pair.state]
                        ):
                            action = (
                                1 if role_index == 0
                                and pair.state is owned else 2
                            )
                        else:
                            action = 0
                        pair_actions[id(pair)] = action
                        pair_refs.append(pair)
                    if action == 2:
                        # Translated per probe: our own COW-breaking
                        # stores and ksmd merges can remap the page
                        # between ops.
                        paddr = (
                            va if process is None
                            else process.translate(va)
                        )
                        base = paddr & ~63
                        bucket = buckets[(base >> 6) & set_mask]
                        line = bucket.get(base)
                        if line is not None:
                            # Inline L1 hit: LRU touch + the exact
                            # _finish draw sequence (obfuscation never
                            # applies to the L1-hit band).
                            bucket.move_to_end(base)
                            if noise_on:
                                sample = hit_base + normal(0.0, sigma)
                                if random() < tail_p:
                                    sample += exponential(tail_s)
                                latency = (
                                    sample if sample > 1.0 else 1.0
                                )
                            else:
                                latency = (
                                    hit_base if hit_base > 1.0 else 1.0
                                )
                            hit_counter.value += 1
                        else:
                            latency = mload(core_id, paddr, clock)[1]
                        self.load_latency = latency
                        state = 2
                    elif action == 1:
                        latency = do_store(thread, va, 1, clock)
                        state = 1
                    elif not shared:
                        # Idle stretch on a private core: every poll has
                        # constant latency, draws no RNG, and the
                        # control state cannot change while this driver
                        # runs — so step straight to the bound in a
                        # tight loop.  The iterative += accumulation
                        # reproduces the generator's per-op float math
                        # bit-for-bit (a closed form would not).
                        latency = reload_period
                        while True:
                            clock += reload_period
                            ops += 1
                            events += 1
                            if clock > global_clock:
                                global_clock = clock
                            if (events >= event_limit
                                    or global_clock > cycle_limit):
                                rt.overrun(self.sim, thread, clock, events,
                                           global_clock)
                            if clock >= bound:
                                return
                    else:
                        latency = reload_period
                        is_delay = True
                        # state stays 0: idle poll, back to loop top.
                elif state == 2:
                    if adaptive and self.load_latency >= refill_floor:
                        latency = backoff
                    else:
                        latency = spin
                    is_delay = True
                    state = 0
                else:  # state == 1: after the OWNED store
                    latency = reload_period
                    is_delay = True
                    state = 0

                if shared:
                    factor, penalty = timeshare(tid, sched_rng)
                    if is_delay:
                        latency = latency * factor
                    latency += penalty
                clock += latency
                ops += 1
                events += 1
                if clock > global_clock:
                    global_clock = clock
                if events >= event_limit or global_clock > cycle_limit:
                    rt.overrun(self.sim, thread, clock, events, global_clock)
                if clock >= bound:
                    return
        finally:
            rt.events = events
            rt.global_clock = global_clock
            self.state = state
            if ops:
                thread.clock = clock
                thread.ops_executed += ops


class _SpyDriver:
    """Drives ``repro.channel.spy:spy_program`` threads.

    One state per primitive of the spy's slot — rdtsc, pacing delay,
    flush (clflush or the eviction-load sweep), the post-flush wait,
    and the fence-bracketed measured load — plus a no-op processing
    state that applies Algorithm 2's phase logic between slots.  The
    flush and load primitives are real machine calls; only the fixed
    delays and fences are computed inline.
    """

    __slots__ = (
        "sim", "thread", "kernel", "result", "decoder", "params",
        "block_va", "eviction_set", "state", "phase", "polls",
        "quiet", "next_slot", "evict_index", "evict_paddrs",
        "load_latency", "load_timestamp", "load_path", "_hoist",
    )

    #: The fields a checkpoint stores (``evict_paddrs`` is re-derived:
    #: the spy's eviction pages never remap).
    POSITION = (
        "state", "phase", "polls", "quiet", "next_slot", "evict_index",
        "load_latency", "load_timestamp", "load_path",
    )

    # FSM states: which primitive executes next.
    PROCESS, RDTSC, PACE, FLUSH, EVICT, WAIT, FENCE1, LOAD, FENCE2 = range(9)

    def __init__(self, sim: "Simulator", thread: SimThread, kernel: Any,
                 spec: Any):
        if len(spec.args) != 4:
            raise _Ineligible("unexpected spy_program spec shape")
        kwargs = dict(spec.kwargs)
        eviction = kwargs.pop("eviction_set", None)
        if kwargs:
            raise _Ineligible("unexpected spy_program kwargs")
        self.sim = sim
        self.thread = thread
        self.kernel = kernel
        self.result, self.decoder, self.params, self.block_va = spec.args
        self.eviction_set = list(eviction) if eviction is not None else None
        self.state = self.RDTSC
        self.phase = 1
        self.polls = 0
        self.quiet = 0
        self.next_slot: float | None = None
        self.evict_index = 0
        self.evict_paddrs: list[int] | None = None
        self.load_latency = 0.0
        self.load_timestamp = 0.0
        self.load_path: Any = None
        self.hoist()

    def hoist(self) -> None:
        """Freeze what :meth:`advance` reads (see :meth:`_WorkerDriver.hoist`).

        The probed block's translation stays per-access: in KSM mode the
        shared page can be remapped by a merge or unmerge mid-run.
        """
        thread = self.thread
        kernel = self.kernel
        params = self.params
        machine = kernel.machine
        _, _, sample_cls = _channel_consts()
        wait_cycles = float(params.spy_wait_cycles)
        if wait_cycles < 0.0:
            wait_cycles = 0.0
        self._hoist = (
            machine.load, machine.flush, kernel._fence_cost,
            params.slot_cycles, wait_cycles, params.end_run,
            params.max_poll_slots, params.max_reception_slots,
            self.decoder.label, sample_cls, self.result,
            self.result.samples, self.result.poll_samples,
            kernel._timeshare, kernel._sched_rng, thread.tid,
            thread.process, thread.core_id, self.block_va,
        )

    def advance(self, bound: float, rt: _Runtime) -> None:
        thread = self.thread
        kernel = self.kernel

        (mload, mflush, fence_cost, slot_cycles, wait_cycles, end_run,
         max_poll, max_recv, label, Sample, spy_result, samples,
         poll_samples, timeshare, sched_rng, tid, process, core_id,
         va) = self._hoist

        evict = None
        if self.eviction_set is not None:
            evict = self.evict_paddrs
            if evict is None:
                # Spy-private, never-mergeable pages: translations are
                # stable for the session's lifetime.
                evict = self.evict_paddrs = [
                    va if process is None else process.translate(va)
                    for va in self.eviction_set
                ]
        n_evict = len(evict) if evict is not None else 0

        core = kernel._sched_thread_core.get(tid)
        shared = (
            core is not None and len(kernel._sched_assignments[core]) > 1
        )

        PROCESS = self.PROCESS
        RDTSC = self.RDTSC
        PACE = self.PACE
        FLUSH = self.FLUSH
        EVICT = self.EVICT
        WAIT = self.WAIT
        FENCE1 = self.FENCE1
        LOAD = self.LOAD
        FENCE2 = self.FENCE2

        clock = thread.clock
        events = rt.events
        global_clock = rt.global_clock
        event_limit = rt.event_limit
        cycle_limit = rt.cycle_limit
        state = self.state
        phase = self.phase
        polls = self.polls
        quiet = self.quiet
        next_slot = self.next_slot
        ops = 0
        latency = 0.0
        try:
            while True:
                is_delay = False
                is_load = False
                if state == PROCESS:
                    # Between-slot bookkeeping: build the Sample from
                    # the fence-bracketed load and apply Algorithm 2's
                    # phase logic.  No op executes in this state.
                    lat = self.load_latency
                    sample = Sample(
                        timestamp=self.load_timestamp,
                        latency=lat,
                        label=label(lat),
                        path=self.load_path,
                    )
                    if phase == 1:
                        poll_samples.append(sample)
                        if sample.label == "b":
                            spy_result.started_at = sample.timestamp
                            samples.append(sample)
                            phase = 2
                        else:
                            polls += 1
                            if polls >= max_poll:
                                spy_result.timed_out = True
                                thread.state = _FAILED
                                thread._fire_exit()
                                raise SyncTimeoutError(
                                    f"spy saw no transmission start in "
                                    f"{polls} slots"
                                )
                    else:
                        samples.append(sample)
                        quiet = quiet + 1 if sample.label == "x" else 0
                        if len(samples) >= max_recv:
                            spy_result.timed_out = True
                            spy_result.finished_at = sample.timestamp
                            thread.state = _DONE
                            thread.result = None
                            thread._fire_exit()
                            return
                        if quiet >= end_run:
                            del samples[-end_run:]
                            spy_result.finished_at = (
                                samples[-1].timestamp if samples else None
                            )
                            thread.state = _DONE
                            thread.result = None
                            thread._fire_exit()
                            return
                    state = RDTSC

                if state == RDTSC:
                    latency = 0.0
                    state = PACE
                elif state == PACE:
                    # After rdtsc, ``now`` is the rdtsc completion time
                    # — exactly ``clock`` here.
                    target = next_slot
                    if target is not None and target > clock:
                        next_slot = target + slot_cycles
                        latency = target - clock
                        is_delay = True
                        state = FLUSH
                        # fall through to accounting: this is an op.
                    else:
                        # Overrun (or the first slot): re-anchor, no
                        # pacing op — the flush executes immediately.
                        next_slot = clock + slot_cycles
                        state = FLUSH
                        continue
                elif state == FLUSH:
                    if evict is None:
                        # Translated per op: in KSM mode a merge can
                        # remap the shared block between slots.
                        paddr = (
                            va if process is None
                            else process.translate(va)
                        )
                        latency = mflush(core_id, paddr, clock)
                        state = WAIT
                    else:
                        latency = mload(core_id, evict[0], clock)[1]
                        self.evict_index = 1
                        state = WAIT if n_evict == 1 else EVICT
                elif state == EVICT:
                    index = self.evict_index
                    latency = mload(core_id, evict[index], clock)[1]
                    index += 1
                    self.evict_index = index
                    if index >= n_evict:
                        state = WAIT
                elif state == WAIT:
                    latency = wait_cycles
                    is_delay = True
                    state = FENCE1
                elif state == FENCE1:
                    latency = fence_cost
                    state = LOAD
                elif state == LOAD:
                    paddr = (
                        va if process is None
                        else process.translate(va)
                    )
                    _, latency, path = mload(core_id, paddr, clock)
                    is_load = True
                    state = FENCE2
                else:  # FENCE2
                    latency = fence_cost
                    state = PROCESS

                if shared:
                    factor, penalty = timeshare(tid, sched_rng)
                    if is_delay:
                        latency = latency * factor
                    latency += penalty
                clock += latency
                if is_load:
                    # The measurement the decoder labels: latency and
                    # timestamp as the program's OpResult carries them
                    # (timeshare penalty included).
                    self.load_latency = latency
                    self.load_timestamp = clock
                    self.load_path = path
                ops += 1
                events += 1
                if clock > global_clock:
                    global_clock = clock
                if events >= event_limit or global_clock > cycle_limit:
                    rt.overrun(self.sim, thread, clock, events, global_clock)
                if clock >= bound:
                    return
        finally:
            rt.events = events
            rt.global_clock = global_clock
            self.state = state
            self.phase = phase
            self.polls = polls
            self.quiet = quiet
            self.next_slot = next_slot
            if ops:
                thread.clock = clock
                thread.ops_executed += ops


class _ControllerDriver:
    """Drives ``repro.channel.trojan:controller_program`` threads.

    The hold sequence is flattened into the same indexed step list the
    program builds; each step is one flush op and one delay op, with
    the shared-control mutations (``set_pair``, the sent-bit appends,
    ``stop``) applied at exactly the pop times the generator would
    apply them.
    """

    __slots__ = (
        "sim", "thread", "kernel", "control", "scenario", "params",
        "block_va", "steps", "state", "index", "pending_bit",
    )

    #: The fields a checkpoint stores (``steps`` is rebuilt from the spec).
    POSITION = ("state", "index", "pending_bit")

    # FSM states.
    STEP_FLUSH, STEP_DELAY, TAIL, EXIT = range(4)

    #: Defaults of controller_program's keyword-only knobs; sessions
    #: spawn the controller with a 5-tuple spec, leaving these alone.
    LEAD_IN_SLOTS = 4
    TAIL_SLOTS = 4

    def __init__(self, sim: "Simulator", thread: SimThread, kernel: Any,
                 spec: Any):
        if len(spec.args) != 5 or spec.kwargs:
            raise _Ineligible("unexpected controller_program spec shape")
        self.sim = sim
        self.thread = thread
        self.kernel = kernel
        (self.control, self.scenario, self.params, self.block_va,
         payload) = spec.args
        scenario = self.scenario
        params = self.params
        steps: list[tuple[Any, int, int | None]] = [
            (scenario.csc, self.LEAD_IN_SLOTS, None)
        ]
        for bit in payload:
            steps.append((scenario.csb, params.cb, None))
            steps.append(
                (scenario.csc, params.c1 if bit else params.c0, bit)
            )
        steps.append((scenario.csb, params.cb, None))
        if scenario.terminator is not None:
            steps.append((scenario.terminator, params.end_run + 2, None))
        self.steps = steps
        self.state = self.STEP_FLUSH
        self.index = 0
        self.pending_bit: int | None = None

    def hoist(self) -> None:
        """Nothing to freeze: :meth:`advance` reads ``machine.flush``
        afresh each time."""

    def advance(self, bound: float, rt: _Runtime) -> None:
        thread = self.thread
        kernel = self.kernel
        machine = kernel.machine
        control = self.control
        slot_cycles = self.params.slot_cycles
        steps = self.steps
        n_steps = len(steps)

        process = thread.process
        va = self.block_va
        paddr = va if process is None else process.translate(va)
        core_id = thread.core_id
        mflush = machine.flush

        tid = thread.tid
        core = kernel._sched_thread_core.get(tid)
        shared = (
            core is not None and len(kernel._sched_assignments[core]) > 1
        )
        timeshare = kernel._timeshare
        sched_rng = kernel._sched_rng

        STEP_FLUSH = self.STEP_FLUSH
        STEP_DELAY = self.STEP_DELAY
        TAIL = self.TAIL

        clock = thread.clock
        events = rt.events
        global_clock = rt.global_clock
        event_limit = rt.event_limit
        cycle_limit = rt.cycle_limit
        state = self.state
        index = self.index
        ops = 0
        latency = 0.0
        try:
            while True:
                is_delay = False
                if state == STEP_FLUSH:
                    # Start of step ``index``: record the previous
                    # step's bit (the program appends it at the resume
                    # after that step's delay), retarget the workers,
                    # flush B everywhere.
                    bit = self.pending_bit
                    if bit is not None:
                        control.bits_sent.append(bit)
                    pair, _slots, step_bit = steps[index]
                    control.set_pair(pair)
                    latency = mflush(core_id, paddr, clock)
                    self.pending_bit = step_bit
                    state = STEP_DELAY
                elif state == STEP_DELAY:
                    latency = float(steps[index][1] * slot_cycles)
                    if latency < 0.0:
                        latency = 0.0
                    is_delay = True
                    index += 1
                    state = STEP_FLUSH if index < n_steps else TAIL
                elif state == TAIL:
                    bit = self.pending_bit
                    if bit is not None:
                        control.bits_sent.append(bit)
                        self.pending_bit = None
                    control.stop()
                    latency = float(self.TAIL_SLOTS * slot_cycles)
                    if latency < 0.0:
                        latency = 0.0
                    is_delay = True
                    state = self.EXIT
                else:  # EXIT: the program returns — no op, no event.
                    thread.state = _DONE
                    thread.result = None
                    thread._fire_exit()
                    return

                if shared:
                    factor, penalty = timeshare(tid, sched_rng)
                    if is_delay:
                        latency = latency * factor
                    latency += penalty
                clock += latency
                ops += 1
                events += 1
                if clock > global_clock:
                    global_clock = clock
                if events >= event_limit or global_clock > cycle_limit:
                    rt.overrun(self.sim, thread, clock, events, global_clock)
                if clock >= bound:
                    return
        finally:
            rt.events = events
            rt.global_clock = global_clock
            self.state = state
            self.index = index
            if ops:
                thread.clock = clock
                thread.ops_executed += ops


class _NoiseDriver:
    """Drives ``repro.kernel.workloads:kernel_build_program`` threads.

    Two states: at the loop top, draw the burst start and the think time
    from the thread's RNG stream and issue one batched burst; after the
    burst, issue the think delay.  Both ops pay the timeshare slowdown,
    as ``Kernel._execute`` charges ``Burst`` and ``Delay``.
    """

    __slots__ = ("sim", "thread", "kernel", "state", "think", "_hoist")

    #: The fields a checkpoint stores (the burst start is drawn and
    #: spent in the same step, so it is never pending).
    POSITION = ("state", "think")

    def __init__(self, sim: "Simulator", thread: SimThread, kernel: Any,
                 spec: Any):
        # Imported here, as in _channel_consts: sim must not import the
        # checkpoint or kernel layers at module load.
        from repro.checkpoint.spec import RngRef
        from repro.kernel import workloads as w

        if (len(spec.args) != 3 or spec.kwargs
                or not isinstance(spec.args[2], RngRef)):
            raise _Ineligible("unexpected kernel_build_program spec shape")
        self.sim = sim
        self.thread = thread
        self.kernel = kernel
        region_base, region_pages, ref = spec.args
        rng = kernel.rng.get(ref.stream)
        lines, line_size = w.BURST_LINES, w.LINE_SIZE
        #: 0 = loop top (draw, then burst), 1 = after the burst (think).
        self.state = 0
        self.think = 0.0
        self._hoist = (
            rng.integers, rng.uniform, *w.KERNEL_BUILD_THINK, region_base,
            region_pages * w.PAGE_SIZE - lines * line_size,
            ~(line_size - 1), lines, line_size, w.KERNEL_BUILD_WRITE_RATIO,
            w.KERNEL_BUILD_MLP,
        )

    def hoist(self) -> None:
        """Nothing to freeze: the burst reads the machine per access."""

    def advance(self, bound: float, rt: _Runtime) -> None:
        thread = self.thread
        kernel = self.kernel
        (integers, uniform, think_lo, think_hi, base, max_start, align,
         lines, line_size, write_ratio, mlp) = self._hoist
        do_burst = kernel._do_burst

        tid = thread.tid
        core = kernel._sched_thread_core.get(tid)
        shared = (
            core is not None and len(kernel._sched_assignments[core]) > 1
        )
        timeshare = kernel._timeshare
        sched_rng = kernel._sched_rng

        clock = thread.clock
        events = rt.events
        global_clock = rt.global_clock
        event_limit = rt.event_limit
        cycle_limit = rt.cycle_limit
        state = self.state
        think = self.think
        ops = 0
        try:
            while True:
                if state == 0:
                    start = int(integers(0, max_start)) & align
                    think = float(uniform(think_lo, think_hi))
                    latency = do_burst(thread, Burst(
                        base + start, lines, line_size, write_ratio, mlp,
                    ), clock)
                    state = 1
                else:
                    latency = think
                    state = 0
                if shared:
                    factor, penalty = timeshare(tid, sched_rng)
                    latency = latency * factor
                    latency += penalty
                clock += latency
                ops += 1
                events += 1
                if clock > global_clock:
                    global_clock = clock
                if events >= event_limit or global_clock > cycle_limit:
                    rt.overrun(self.sim, thread, clock, events, global_clock)
                if clock >= bound:
                    return
        finally:
            rt.events = events
            rt.global_clock = global_clock
            self.state = state
            self.think = think
            if ops:
                thread.clock = clock
                thread.ops_executed += ops


#: ProgramSpec factory path -> driver class.  Only these four programs
#: are ever driven; everything else (fault injectors, ksmd, mitigation
#: monitors, ad-hoc programs) runs on the generator path and cannot be
#: checkpointed.
DRIVERS = {
    "repro.channel.trojan:worker_program": _WorkerDriver,
    "repro.channel.spy:spy_program": _SpyDriver,
    "repro.channel.trojan:controller_program": _ControllerDriver,
    "repro.kernel.workloads:kernel_build_program": _NoiseDriver,
}


def driver_for(sim: "Simulator", thread: SimThread, executor: Any,
               spec: Any) -> Any | None:
    """The driver for a freshly spawned *thread*, or ``None``.

    Only threads running one of the :data:`DRIVERS` programs through a
    kernel executor, with the spec shape the session spawns, get one.
    """
    factory = DRIVERS.get(getattr(spec, "fn", None))
    if factory is None:
        return None
    kernel = _kernel_of(executor)
    if kernel is None:
        return None
    try:
        return factory(sim, thread, kernel, spec)
    except _Ineligible:
        return None


def hoisted_bindings(machine: Any) -> tuple:
    """The ``load``/``store``/``flush`` instance bindings of *machine*.

    ``None`` where the class method stands.  A driver spawned now hoists
    these (a trace tap attached before the spawn is simply driven
    through), and :meth:`Simulator.run` re-hoists on any change; the
    kernel's store path reads ``machine.store`` per op.
    """
    instance = machine.__dict__
    return (instance.get("load"), instance.get("store"), instance.get("flush"))

