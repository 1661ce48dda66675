"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
still being able to distinguish subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event engine."""


class DeadlockError(SimulationError):
    """No thread can make progress but the simulation is not finished."""


class ThreadProgramError(SimulationError):
    """A thread program yielded something that is not a simulator op."""


class MemorySystemError(ReproError):
    """Base class for errors raised by the memory system."""


class InvalidAddressError(MemorySystemError):
    """An address is outside the configured physical or virtual range."""


class CoherenceError(MemorySystemError):
    """A coherence-protocol invariant was violated (indicates a bug)."""


class KernelError(ReproError):
    """Base class for errors raised by the simulated OS kernel."""


class PageFaultError(KernelError):
    """An unrecoverable page fault (no mapping for the address)."""

    def __init__(self, vaddr: int, pid: int, message: str | None = None):
        self.vaddr = vaddr
        self.pid = pid
        super().__init__(
            message or f"unhandled page fault at va={vaddr:#x} in pid={pid}"
        )


class ProtectionFaultError(KernelError):
    """A write to a read-only (non-COW) mapping."""

    def __init__(self, vaddr: int, pid: int):
        self.vaddr = vaddr
        self.pid = pid
        super().__init__(f"write to read-only va={vaddr:#x} in pid={pid}")


class OutOfMemoryError(KernelError):
    """The physical frame allocator is exhausted."""


class RunnerError(ReproError):
    """Base class for experiment-runner errors."""


class SpecError(RunnerError):
    """An ExperimentSpec or Point is malformed (e.g. unpicklable params)."""


class PointExecutionError(RunnerError):
    """A grid point raised while executing (in-process or in a worker)."""

    def __init__(self, label: str, cause: BaseException):
        self.label = label
        self.cause = cause
        super().__init__(
            f"point {label!r} failed: {type(cause).__name__}: {cause}"
        )


class PointTimeoutError(RunnerError):
    """A grid point exceeded its per-point wall-clock limit."""


class WorkerCrashError(RunnerError):
    """A pool worker died (killed, OOM, hard crash) mid-point.

    Wraps :class:`concurrent.futures.process.BrokenProcessPool` for the
    specific point whose dispatch was lost; the runner respawns the pool
    and re-dispatches, so this surfaces only once the retry budget is
    exhausted.
    """


class IncompleteRunError(RunnerError):
    """A RunReport is missing point values (failed or never-run points).

    Raised by :attr:`repro.runner.RunReport.values` instead of silently
    returning a list misaligned with the grid order, which would let
    ``collect()`` zip values against the wrong parameters.
    """

    def __init__(self, experiment: str, missing: list[str]):
        self.missing = list(missing)
        shown = ", ".join(self.missing[:5])
        if len(self.missing) > 5:
            shown += f", ... ({len(self.missing) - 5} more)"
        super().__init__(
            f"run of {experiment!r} is missing {len(self.missing)} point "
            f"value(s): {shown}; use keep_going/padded_values() for "
            f"partial results"
        )


class FaultError(ReproError):
    """A fault plan or fault event is malformed."""


class InjectedFaultError(FaultError):
    """A deterministic fault injected by a FaultPlan (harness plane).

    Raised in place of (or inside) a point execution to exercise the
    runner's failure policy; never raised unless fault injection was
    explicitly requested.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be captured, validated, or restored."""


class ChannelError(ReproError):
    """Base class for covert-channel layer errors."""


class SyncTimeoutError(ChannelError):
    """Trojan/spy synchronization did not complete within its deadline."""


class CalibrationError(ChannelError):
    """Latency-band calibration produced unusable (overlapping) bands."""


class ServiceError(ReproError):
    """The experiment service (job API or cache routes) failed."""


class CacheProtocolError(ServiceError):
    """A ``/cache`` route answered an error or an unexpected status."""
