"""Run manifests: the reproducibility fingerprint of one transmission.

A :class:`RunManifest` answers "what exactly produced this result?" —
root seed, scenario, sharing mode, a stable hash of the machine
configuration, code and interpreter versions, the installed fault plan,
a snapshot of the stats counters, and the trace-recorder accounting.
One is attached to every
:class:`~repro.channel.session.TransmissionResult` (and therefore rides
inside every cached grid point), whether or not tracing is enabled.
"""

from __future__ import annotations

import hashlib
import platform
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to identify and reproduce one transmission."""

    repro_version: str
    python_version: str
    seed: int
    scenario: str
    sharing: str
    #: SHA-256 of :meth:`MachineConfig.fingerprint` — short enough to
    #: log, stable across processes, and equal iff the machines are
    #: behaviorally identical.
    machine_fingerprint: str
    calibration_samples: int
    flush_method: str = "clflush"
    noise_threads: int = 0
    resyncs: int = 0
    #: :meth:`FaultPlan.to_json` dict, or ``None`` when no faults.
    fault_plan: dict | None = None
    #: Stats-counter snapshot taken when the result was assembled.
    stats: dict = field(default_factory=dict)
    #: Trace accounting (zero when tracing was disabled).
    traced_events: int = 0
    dropped_events: int = 0
    #: Segmented-execution accounting (see :mod:`repro.checkpoint`):
    #: the configured segment length (0.0 = unsegmented), segments this
    #: session stored, and the segment index the run resumed from
    #: (``None`` for a run that started cold).
    segment_cycles: float = 0.0
    segments_stored: int = 0
    resumed_from: int | None = None
    #: Which path ran the channel threads: ``"driven"`` (the
    #: generator-free drivers of :mod:`repro.sim.drivers`) or
    #: ``"generator"`` when no driver was attached.
    engine: str = "generator"

    def to_json(self) -> dict:
        """Plain-dict form (JSON-safe; inverse of :meth:`from_json`)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_json` output."""
        return cls(**data)

    @classmethod
    def capture(cls, session, resyncs: int = 0) -> "RunManifest":
        """Snapshot *session*'s identity and counters right now."""
        import repro
        from repro.faults.plan import FaultPlan

        cfg = session.config
        plan = FaultPlan.from_json(cfg.faults)
        recorder = getattr(session, "recorder", None)
        store = getattr(session, "segments", None)
        return cls(
            repro_version=repro.__version__,
            python_version=platform.python_version(),
            seed=cfg.seed,
            scenario=cfg.scenario.name,
            sharing=cfg.sharing,
            machine_fingerprint=machine_fingerprint(cfg.machine),
            calibration_samples=cfg.calibration_samples,
            flush_method=cfg.flush_method,
            noise_threads=cfg.noise_threads,
            resyncs=resyncs,
            fault_plan=plan.to_json() if plan.events else None,
            stats=session.machine.stats.counters(),
            traced_events=recorder.emitted if recorder is not None else 0,
            dropped_events=recorder.dropped if recorder is not None else 0,
            segment_cycles=store.cycles if store is not None else 0.0,
            segments_stored=store.segments_stored if store is not None else 0,
            resumed_from=store.resumed_from if store is not None else None,
            engine=session.sim.engine_path,
        )


def machine_fingerprint(config) -> str:
    """SHA-256 hex digest of a machine config's canonical fingerprint."""
    return hashlib.sha256(config.fingerprint().encode()).hexdigest()
