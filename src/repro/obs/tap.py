"""Read-only machine interposition: ops and coherence transitions.

:class:`MachineTap` observes a live :class:`~repro.mem.hierarchy.Machine`
by wrapping the ``load``/``store``/``flush`` *instance* attributes (the
kernel executes every op through attribute access, so wrappers see all
traffic) and swaps the machine's bound interconnect registers
(``_ring_register`` / ``_qpi_register`` / ``_mem_register``) for
pass-through wrappers that record each hop.  It is the one layer that
interposes on a machine: the detection subsystem reads the ops it
records (:class:`~repro.detection.events.EventMonitor` folds its
``"flush"``/``"load"`` events) rather than wrapping the machine
itself.

Coherence-state transitions are **derived, not instrumented**: around
each op the tap snapshots the accessed line's private-state map with
:meth:`~repro.mem.hierarchy.Machine.private_states` and records a
``"coherence"`` event whenever the before and after maps differ,
carrying the per-core changes and the full post-op state map.  No
resident private line is ever INVALID
(:func:`~repro.mem.invariants.check_machine`), so differing maps are
exactly a transition.  That query reads the holder record the
coherence backend already keeps — the core-valid bits of each socket's
LLC directory (Section VI), or the home entry's sharer mask on the
directory backend — and peeks only those cores, so a snapshot costs a
few dict probes rather than a walk over every private cache.  A load
that hits in the requesting core's private caches changes no core's
state for that line on any backend, so the tap takes no snapshot
around it.  Snapshots draw no RNG, touch no LRU state and mutate
nothing, so an attached tap is provably inert — the golden
determinism digests are identical with and without it.  Victim
traffic (lines evicted as a side effect of an access to a *different*
set) is intentionally out of scope: the tap follows the accessed line's
causal chain, which is the one the covert channel modulates.

Every event goes to the recorder as a raw record — a module-level
payload builder and its arguments (:meth:`TraceRecorder.record`) — so
the payload dicts, the ``changed`` list included, are built only when
the stream is read or a live sink is subscribed.  The tap attaches
before a session spawns its channel threads, and the channel drivers
(:mod:`repro.sim.drivers`) hoist its wrappers at spawn: traced
sessions run driven, and the worker's inline L1-hit path stands aside
so the tap still records every load.  Kernel-build noise workers read
the machine's bindings once per burst, so when tracing starts on a
built session (:meth:`~repro.channel.session.SessionBase.start_trace`)
the tap records them from their next burst on.

When tracing is disabled no tap exists and the machine's hot path is the
unmodified code — the disabled-mode overhead gated by ``repro bench`` is
the absence of the feature, not a cheap branch.
"""

from __future__ import annotations

from repro.mem.cacheline import CoherenceState
from repro.obs.recorder import TraceRecorder

_INVALID = CoherenceState.INVALID

# Payload builders, called by the recorder when an event is first read
# (or at once while a sink is subscribed).  Enum values are read
# through ``_value_``, the plain attribute behind the ``Enum.value``
# descriptor, on the paths that run once per simulated op.


def _access_data(core_id: int, base: int, latency: float) -> dict:
    return {"core": core_id, "line": base, "latency": latency}


def _transition_data(
    base: int,
    before: dict[int, CoherenceState],
    after: dict[int, CoherenceState],
) -> dict:
    changed = []
    for core_id in sorted(before.keys() | after.keys()):
        src = before.get(core_id, _INVALID)
        dst = after.get(core_id, _INVALID)
        if src is not dst:
            changed.append([core_id, src._value_, dst._value_])
    return {
        "line": base,
        "changed": changed,
        "states": {
            str(core_id): state._value_
            for core_id, state in sorted(after.items())
        },
    }


def _hop_data(contribution: float) -> dict:
    return {"contribution": contribution}


def _directory_data(
    base: int, state: str, sharers: int, owner: int | None, dirty: bool
) -> dict:
    return {
        "line": base,
        "state": state,
        "sharers": sharers,
        "owner": owner,
        "dirty": dirty,
    }


class MachineTap:
    """Attachable observer recording a machine's traffic into a recorder."""

    def __init__(self, machine, recorder: TraceRecorder):
        self.machine = machine
        self.recorder = recorder
        self._attached = False
        self._orig_load = None
        self._orig_store = None
        self._orig_flush = None
        self._orig_ring = None
        self._orig_qpi = None
        self._orig_mem = None
        self._orig_dir_trace = None
        self._dir_wrapper = None
        self._wrappers: dict[str, object] = {}

    # -- attach / detach ------------------------------------------------

    def attach(self) -> None:
        """Start observing (idempotent); registers on ``machine._trace_tap``."""
        if self._attached:
            return
        self._attached = True
        machine = self.machine
        recorder = self.recorder
        self._orig_load = machine.load
        self._orig_store = machine.store
        self._orig_flush = machine.flush
        orig_load, orig_store, orig_flush = (
            self._orig_load, self._orig_store, self._orig_flush
        )
        private_states = machine.private_states
        record = recorder.record
        cores = machine.cores

        def transition(base: int, before: dict, now: float) -> None:
            # A private map never holds an INVALID line (check_machine),
            # so two maps differ exactly when some core's state changed.
            after = private_states(base)
            if before != after:
                record(now, "coherence", "transition", _transition_data,
                       (base, before, after))

        def load(core_id: int, paddr: int, now: float = 0.0):
            base = paddr & ~63
            # L2 is inclusive of L1: an L2 peek finds any private copy,
            # and a private hit changes no core's state for the line.
            if cores[core_id].l2.lookup(base, False) is not None:
                value, latency, path = orig_load(core_id, paddr, now)
            else:
                before = private_states(base)
                value, latency, path = orig_load(core_id, paddr, now)
                transition(base, before, now)
            record(now, "load", path._value_, _access_data,
                   (core_id, base, latency))
            return value, latency, path

        def store(core_id: int, paddr: int, value: int, now: float = 0.0):
            base = paddr & ~63
            before = private_states(base)
            latency, path = orig_store(core_id, paddr, value, now)
            transition(base, before, now)
            record(now, "store", path._value_, _access_data,
                   (core_id, base, latency))
            return latency, path

        def flush(core_id: int, paddr: int, now: float = 0.0):
            base = paddr & ~63
            before = private_states(base)
            latency = orig_flush(core_id, paddr, now)
            transition(base, before, now)
            record(now, "flush", "clflush", _access_data,
                   (core_id, base, latency))
            return latency

        machine.load = load
        machine.store = store
        machine.flush = flush
        self._wrappers = {"load": load, "store": store, "flush": flush}

        def hop_wrapper(name: str, register):
            def wrapped(now: float) -> float:
                contribution = register(now)
                record(now, "hop", name, _hop_data, (contribution,))
                return contribution
            return wrapped

        self._orig_ring = machine._ring_register
        self._orig_qpi = machine._qpi_register
        self._orig_mem = machine._mem_register
        machine._ring_register = [
            hop_wrapper(f"ring{i}", reg)
            for i, reg in enumerate(self._orig_ring)
        ]
        machine._qpi_register = hop_wrapper("qpi", self._orig_qpi)
        machine._mem_register = [
            hop_wrapper(f"mem{i}", reg)
            for i, reg in enumerate(self._orig_mem)
        ]

        # Directory-backend machines expose a home-agent hook: each
        # serviced request reports which path the home chose
        # (owner_forward / home_service / memory_fill / rfo / flush)
        # along with the post-op entry.  Chain rather than replace so a
        # pre-installed hook keeps firing.
        self._orig_dir_trace = machine._dir_trace
        orig_dir_trace = self._orig_dir_trace

        def dir_trace(now: float, kind: str, base: int, entry) -> None:
            if orig_dir_trace is not None:
                orig_dir_trace(now, kind, base, entry)
            # The entry mutates on later requests: snapshot its fields.
            record(now, "directory", kind, _directory_data, (
                base, entry.state._value_, entry.sharers, entry.owner(),
                entry.dirty,
            ))

        machine._dir_trace = dir_trace
        self._dir_wrapper = dir_trace
        machine._trace_tap = self

    def detach(self) -> None:
        """Stop observing, restoring every binding (idempotent).

        An op wrapper is only removed while it is still the outermost
        interposition; if something else (a second tap, or a test's
        wrapper) wrapped on top of the tap, the attribute is left for
        :meth:`Machine.reset`'s unconditional pop, which restores the
        class methods regardless of nesting order.
        """
        if not self._attached:
            return
        self._attached = False
        machine = self.machine
        for name, wrapper in self._wrappers.items():
            if machine.__dict__.get(name) is wrapper:
                machine.__dict__.pop(name)
        self._wrappers = {}
        machine._ring_register = self._orig_ring
        machine._qpi_register = self._orig_qpi
        machine._mem_register = self._orig_mem
        if machine._dir_trace is self._dir_wrapper:
            machine._dir_trace = self._orig_dir_trace
        self._dir_wrapper = None
        if getattr(machine, "_trace_tap", None) is self:
            machine._trace_tap = None

    @property
    def attached(self) -> bool:
        return self._attached
