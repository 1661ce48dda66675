"""Whole-session capture and restore.

A checkpoint freezes a running :class:`~repro.channel.session.
ChannelSession` between engine events: the machine (caches, coherence
directories, interconnect windows, stats), the kernel (frame pool, KSM
stable tree, processes, scheduler-visible threads), every RNG stream,
the engine clock, and each live thread's *position* inside its
program.

Every live thread of a checkpointable session runs on a driver
(:mod:`repro.sim.drivers`): the channel threads (trojan workers,
controller, spy) and the kernel-build noise workers.  A driver's
position is a few plain fields listed in its class's ``POSITION``:
capture stores them, and restore applies them to the fresh driver that
spawning the thread from its :class:`~repro.checkpoint.spec.ProgramSpec`
attaches.  That is the only thread representation: generators cannot be
pickled, so a live undriven thread cannot be checkpointed.  Threads are
respawned in :meth:`~repro.sim.engine.Simulator.live_run_order` with
``start_time=thread.clock`` so the fresh heap's FIFO tie-breaking
reproduces the original pop order — the resumed run is bit-identical to
one that never paused (locked by the golden-determinism digests).

Everything rides ONE pickle graph, so identity sharing survives: the
trojan workers' shared :class:`TrojanControl`, the spy's result/decoder,
the KSM stable tree, and the processes the kernel owns all come back as
single shared objects.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.checkpoint.spec import ProgramSpec, TransmitContext
from repro.errors import CheckpointError

#: Bump when the blob layout changes; restore refuses blobs from other
#: versions (state formats are not migrated), and segment identities
#: hash it, so stale segments are never found.  v2 stored driver
#: positions for the channel threads; v3 stores them for every thread
#: and drops the re-drive records; v4 pickles frames with lazily
#: allocated bytes (an untouched frame carries none); v5 stores LLC
#: core-valid bits as an int mask and each interconnect resource as
#: (times, sorted times, head offset, total traffic); v6 drops the
#: spy's per-poll samples from its result; v7 stores a resource as
#: (times, total traffic) and rebuilds its sorted index on restore;
#: v8 stores physical memory as a fresh-frame counter plus the frames
#: returned to it, not a list of every free frame.
CHECKPOINT_VERSION = 8

#: Magic prefix identifying an exported checkpoint blob on disk.
BLOB_MAGIC = b"RCKP"


@dataclass
class _ThreadRecord:
    """Plain-data position of one live thread (rides the pickle graph)."""

    name: str
    core_id: int
    daemon: bool
    process: Any
    clock: float
    spec: ProgramSpec
    #: The driver's fields (its class's ``POSITION``).
    position: dict
    #: Whether the thread held a scheduler core slot (kernel.spawn) or
    #: ran unscheduled (sim.spawn / spawn_kernel_thread).
    scheduled: bool


@dataclass
class Checkpoint:
    """A versioned, integrity-digested session snapshot.

    ``state`` is the inner pickle (the one shared object graph);
    ``digest`` is its SHA-256, verified on load so a torn or corrupted
    blob fails loudly instead of restoring garbage.  ``manifest`` is a
    small plain dict readable without unpickling the state
    (:func:`inspect_blob`).
    """

    manifest: dict
    state: bytes
    version: int = field(default_factory=lambda: CHECKPOINT_VERSION)
    digest: str = field(default="")

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = hashlib.sha256(self.state).hexdigest()

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing blob (magic + outer pickle)."""
        outer = {
            "version": self.version,
            "manifest": self.manifest,
            "digest": self.digest,
            "state": self.state,
        }
        return BLOB_MAGIC + pickle.dumps(outer, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        """Parse and integrity-check a :meth:`to_bytes` blob."""
        outer = _parse_blob(blob)
        digest = hashlib.sha256(outer["state"]).hexdigest()
        if digest != outer["digest"]:
            raise CheckpointError(
                f"checkpoint digest mismatch: blob says {outer['digest'][:12]}..., "
                f"state hashes to {digest[:12]}... (torn or corrupted blob)"
            )
        return cls(
            manifest=outer["manifest"],
            state=outer["state"],
            version=outer["version"],
            digest=outer["digest"],
        )


def _parse_blob(blob: bytes) -> dict:
    if not isinstance(blob, (bytes, bytearray)) or not bytes(blob).startswith(
        BLOB_MAGIC
    ):
        raise CheckpointError("not a checkpoint blob (bad magic)")
    try:
        outer = pickle.loads(bytes(blob)[len(BLOB_MAGIC):])
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint blob: {exc}")
    if not isinstance(outer, dict) or "version" not in outer:
        raise CheckpointError("malformed checkpoint blob")
    if outer["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {outer['version']} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return outer


def inspect_blob(blob: bytes) -> dict:
    """The manifest of a checkpoint blob, without unpickling its state.

    Cheap and safe on untrusted-size blobs: only the small outer
    envelope is decoded; the (potentially large) session state stays a
    byte string.  Adds the state size and digest for display.
    """
    outer = _parse_blob(blob)
    manifest = dict(outer["manifest"])
    manifest["version"] = outer["version"]
    manifest["state_bytes"] = len(outer["state"])
    manifest["digest"] = outer["digest"]
    return manifest


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def capture(session, ctx: TransmitContext | None = None,
            info: dict | None = None) -> Checkpoint:
    """Snapshot *session* between engine events.

    The session must be parked: every thread between ops (which is
    exactly where ``Simulator.run(pause_at=...)`` leaves them).  Raises
    :class:`CheckpointError` when any live thread has no driver (a
    spec-less fault injector, or any program while ``DRIVERS`` is
    emptied) and :class:`~repro.errors.ConfigError` when the machine is
    instrumented (obfuscation) — sessions gate both via
    ``_segmentable()`` before segmenting, so hitting either here
    indicates a caller bug.

    *info* merges extra fields (segment index, transmission tag) into
    the manifest.
    """
    sim = session.sim
    records = []
    for thread in sim.live_run_order():
        driver = thread.driver
        if driver is None:
            raise CheckpointError(
                f"live thread {thread.name!r} has no driver and cannot "
                "be checkpointed"
            )
        records.append(_ThreadRecord(
            name=thread.name,
            core_id=thread.core_id,
            daemon=thread.daemon,
            process=thread.process,
            clock=thread.clock,
            spec=thread.program_spec,
            position={name: getattr(driver, name) for name in driver.POSITION},
            scheduled=thread.tid in session.kernel.scheduler._thread_core,
        ))
    kernel = session.kernel
    state = {
        "config": session.config,
        "machine": session.machine.snapshot_state(),
        "rng": session.rng.snapshot(),
        "clock": sim.global_clock,
        "kernel": {
            "phys": kernel.phys,
            "ksm": kernel.ksm,
            "processes": kernel.processes,
            "next_pid": kernel._next_pid,
        },
        "session": {
            "trojan_proc": session.trojan_proc,
            "spy_proc": session.spy_proc,
            "bands": session.bands,
            "trojan_va": session.trojan_va,
            "spy_va": session.spy_va,
            "local_cores": list(session.local_cores),
            "remote_cores": list(session.remote_cores),
            "eviction_set": list(session.eviction_set),
            "transmissions": session._transmissions,
            "resyncs": session.resyncs,
            "faults_installed": session._faults_installed,
        },
        "threads": records,
        "ctx": ctx,
    }
    try:
        state_pickle = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"session state is not picklable: {exc}")
    from repro import __version__

    cfg = session.config
    manifest = {
        "repro_version": __version__,
        "machine_fingerprint": cfg.machine.fingerprint(),
        "seed": cfg.seed,
        "scenario": cfg.scenario.name,
        "clock": sim.global_clock,
        "engine": sim.engine_path,
        "threads": len(records),
        "transmissions": session._transmissions,
    }
    if ctx is not None:
        manifest["tag"] = ctx.tag
        manifest["label"] = ctx.label
        manifest["attempt"] = ctx.attempt
        manifest["payload_bits"] = len(ctx.payload)
    if info:
        manifest.update(info)
    return Checkpoint(manifest=manifest, state=state_pickle)


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------

def restore(blob: bytes | Checkpoint):
    """Rebuild a live session from a checkpoint.

    Returns ``(session, ctx)`` — a :class:`~repro.channel.session.
    ChannelSession` whose simulated world is bit-identical to the
    captured one, and the :class:`TransmitContext` of the in-flight
    transmission (``None`` for a quiescent snapshot).  Continue the
    transmission with ``session.transmit(ctx.payload, _resume=ctx,
    _label=ctx.label)``.
    """
    from repro.channel.session import ChannelSession, _acquire_machine
    from repro.kernel.syscalls import Kernel
    from repro.mem.hierarchy import Machine
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngStreams

    ckpt = blob if isinstance(blob, Checkpoint) else Checkpoint.from_bytes(blob)
    try:
        state = pickle.loads(ckpt.state)
    except Exception as exc:
        raise CheckpointError(f"cannot unpickle checkpoint state: {exc}")
    config = state["config"]

    # RNG first: every stream is created (or fetched) with its captured
    # bit state, and all later consumers (machine jitter, scheduler,
    # burst, workload streams) bind to these same generator objects.
    rng = RngStreams(config.seed)
    rng.restore(state["rng"])

    if config.reuse_machine:
        machine = _acquire_machine(config.machine, rng)
    else:
        machine = Machine(config.machine, rng)
    machine.restore_state(state["machine"])

    sim = Simulator(machine.stats)
    sim.global_clock = state["clock"]

    kernel = Kernel(machine, sim, rng)
    k = state["kernel"]
    kernel.phys = k["phys"]
    kernel.ksm = k["ksm"]
    kernel.processes = k["processes"]
    kernel._next_pid = k["next_pid"]

    s = state["session"]
    session = ChannelSession.__new__(ChannelSession)
    session.config = config
    session.recorder = None
    session.tap = None
    session.rng = rng
    session.machine = machine
    session.sim = sim
    session.kernel = kernel
    session.trojan_proc = s["trojan_proc"]
    session.spy_proc = s["spy_proc"]
    session.bands = s["bands"]
    session.trojan_va = s["trojan_va"]
    session.spy_va = s["spy_va"]
    session.local_cores = s["local_cores"]
    session.remote_cores = s["remote_cores"]
    session.eviction_set = s["eviction_set"]
    session.noise_threads = []
    session._transmissions = s["transmissions"]
    session.resyncs = s["resyncs"]
    session.fault_threads = []
    session._faults_installed = s["faults_installed"]
    session.segments = None

    resolve = lambda ref: rng.get(ref.stream)  # noqa: E731
    for rec in state["threads"]:
        _respawn(session, rec, resolve)
    return session, state["ctx"]


def _respawn(session, rec: _ThreadRecord, resolve) -> None:
    """Spawn one recorded thread and put its driver back where it was
    parked."""
    program = rec.spec.build(resolve)
    if rec.scheduled:
        thread = session.kernel.spawn(
            rec.process, rec.name, program, rec.core_id,
            daemon=rec.daemon, start_time=rec.clock, spec=rec.spec,
        )
    else:
        thread = session.sim.spawn(
            name=rec.name, program=program, core_id=rec.core_id,
            executor=session.kernel._execute, start_time=rec.clock,
            daemon=rec.daemon, process=rec.process, spec=rec.spec,
        )
    driver = thread.driver
    if driver is None:
        raise CheckpointError(
            f"thread {rec.name!r} was driven but restores without a "
            f"driver (no driver for {rec.spec.fn!r})"
        )
    for name, value in rec.position.items():
        setattr(driver, name, value)
