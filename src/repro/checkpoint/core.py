"""Whole-session capture and restore.

A checkpoint freezes a running :class:`~repro.channel.session.
ChannelSession` between engine events: the machine (caches, coherence
directories, interconnect windows, stats), the kernel (frame pool, KSM
stable tree, processes, scheduler-visible threads), every RNG stream,
the engine clock, and — the hard part — each live thread's *position*
inside its generator program.

Generators cannot be pickled, so positions are stored as re-drivable
triples ``(cursor, replay_log, pending_result)`` per thread (see
:meth:`repro.sim.thread.Cpu.mark`): restore rebuilds each program from
its :class:`~repro.checkpoint.spec.ProgramSpec` with ``cursor=`` and
re-sends the recorded op results, landing the fresh generator on the
exact yield the original was parked at.  Threads are respawned in
:meth:`~repro.sim.engine.Simulator.live_run_order` with
``start_time=thread.clock`` so the fresh heap's FIFO tie-breaking
reproduces the original pop order — the resumed run is bit-identical to
one that never paused (locked by the golden-determinism digests).

Everything rides ONE pickle graph, so identity sharing survives: the
trojan workers' shared :class:`TrojanControl`, the spy's result/decoder,
the KSM daemon named by the ksmd thread's spec, and the processes the
kernel owns all come back as single shared objects.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.checkpoint.spec import ProgramSpec, RngRef, TransmitContext
from repro.errors import CheckpointError

#: Bump when the blob layout or the re-drive protocol changes; restore
#: refuses blobs from other versions (state formats are not migrated).
CHECKPOINT_VERSION = 1

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
    cursor: Any
    replay_log: list
    pending: Any
    spec: ProgramSpec
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
    version: int = CHECKPOINT_VERSION
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
    :class:`CheckpointError` when any live thread has no
    :class:`ProgramSpec` (it could never be rebuilt) and
    :class:`~repro.errors.ConfigError` when the machine is instrumented
    (obfuscation) — sessions gate both via ``_segmentable()`` before
    segmenting, so hitting either here indicates a caller bug.

    *info* merges extra fields (segment index, transmission tag) into
    the manifest.
    """
    sim = session.sim
    records = []
    for thread in sim.live_run_order():
        spec = thread.program_spec
        if spec is None:
            raise CheckpointError(
                f"live thread {thread.name!r} has no ProgramSpec and "
                "cannot be checkpointed"
            )
        if thread._pending_result is not None and thread.replay_log is None:
            raise CheckpointError(
                f"live thread {thread.name!r} has no replay log "
                "(simulator was not run with checkpointing enabled)"
            )
        records.append(_ThreadRecord(
            name=thread.name,
            core_id=thread.core_id,
            daemon=thread.daemon,
            process=thread.process,
            clock=thread.clock,
            cursor=thread.cursor,
            replay_log=list(thread.replay_log or ()),
            pending=thread._pending_result,
            spec=spec,
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
    sim.checkpointing = True
    sim.stand_down("segments")
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
    """Spawn one recorded thread and re-drive it to its parked yield."""
    started = rec.pending is not None
    program = rec.spec.build(resolve, cursor=rec.cursor if started else None)
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
    if not started:
        # Never stepped: the engine will next(thread) normally.
        return
    # Re-drive: run to the first yield after the mark, then feed the
    # recorded results.  Mirrors the engine's protocol exactly —
    # including appending each result to the live replay log *before*
    # the send — so a later checkpoint of this thread is again valid.
    gen = thread._generator
    try:
        gen.send(None)  # first post-mark op; the result is in the log
        log = thread.replay_log
        for result in rec.replay_log:
            log.append(result)
            gen.send(result)
    except StopIteration:
        raise CheckpointError(
            f"thread {rec.name!r} finished during re-drive "
            "(program/cursor mismatch)"
        )
    except Exception as exc:
        raise CheckpointError(
            f"thread {rec.name!r} failed during re-drive: {exc!r}"
        ) from exc
    thread._pending_result = rec.pending
    thread.cursor = rec.cursor
