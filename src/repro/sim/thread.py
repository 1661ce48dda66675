"""Simulated threads and the Cpu op API used by thread programs.

A *thread program* is a generator function with the signature
``def program(cpu: Cpu) -> Generator``.  It performs memory operations by
delegating to the :class:`Cpu` helpers with ``yield from``::

    def spy(cpu):
        yield from cpu.flush(addr)
        yield from cpu.delay(1000)
        result = yield from cpu.load(addr)
        print(result.latency)

Each helper yields exactly one primitive op to the engine and returns the
:class:`~repro.sim.events.OpResult`.

Hot-path notes: every class here carries ``__slots__`` (a thread executes
millions of ops, and attribute access off a dict-backed instance costs a
hash per read), and :class:`Cpu` memoizes the frozen per-address op
objects so a spy hammering one shared line allocates zero ops per sample.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Generator
from typing import Any

from repro.sim.events import (
    Burst,
    Delay,
    Fence,
    Flush,
    Load,
    Op,
    OpResult,
    Rdtsc,
    Store,
)

# An executor turns (thread, op) into an OpResult.  The kernel supplies
# one that translates virtual addresses and drives the machine model.
Executor = Callable[["SimThread", Op], OpResult]

#: Stateless ops are singletons: Fence and Rdtsc carry no payload, so
#: every issue can yield the same frozen instance.
_FENCE = Fence()
_RDTSC = Rdtsc()


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    READY = "ready"
    DONE = "done"
    KILLED = "killed"
    FAILED = "failed"


class Cpu:
    """Per-thread handle exposing the instruction set to thread programs.

    All methods are generators meant to be invoked with ``yield from``.
    """

    __slots__ = ("_thread", "_loads", "_flushes")

    def __init__(self, thread: "SimThread"):
        self._thread = thread
        # Frozen op objects are immutable, so reissuing the same address
        # can reuse the same instance (covert-channel programs touch a
        # tiny set of addresses millions of times).
        self._loads: dict[int, Load] = {}
        self._flushes: dict[int, Flush] = {}

    @property
    def thread(self) -> "SimThread":
        """The thread this handle belongs to."""
        return self._thread

    @property
    def core_id(self) -> int:
        """Global core id the thread is pinned to."""
        return self._thread.core_id

    def load(self, vaddr: int) -> Generator[Op, OpResult, OpResult]:
        """Issue a load; returns the OpResult (latency, value, path)."""
        op = self._loads.get(vaddr)
        if op is None:
            op = self._loads[vaddr] = Load(vaddr)
        result = yield op
        return result

    def store(self, vaddr: int, value: int = 0) -> Generator[Op, OpResult, OpResult]:
        """Issue a store of *value* to the line holding *vaddr*."""
        result = yield Store(vaddr, value)
        return result

    def flush(self, vaddr: int) -> Generator[Op, OpResult, OpResult]:
        """clflush the line holding *vaddr* from all coherent caches."""
        op = self._flushes.get(vaddr)
        if op is None:
            op = self._flushes[vaddr] = Flush(vaddr)
        result = yield op
        return result

    def delay(self, cycles: float) -> Generator[Op, OpResult, OpResult]:
        """Spin for *cycles* cycles."""
        result = yield Delay(cycles)
        return result

    def rdtsc(self) -> Generator[Op, OpResult, float]:
        """Return the thread's current cycle timestamp."""
        result = yield _RDTSC
        return result.timestamp

    def fence(self) -> Generator[Op, OpResult, OpResult]:
        """Serialize (small fixed cost)."""
        result = yield _FENCE
        return result

    def timed_load(self, vaddr: int) -> Generator[Op, OpResult, OpResult]:
        """A load bracketed by fences, as the paper's rdtsc-timed loads.

        Returns the load's OpResult; its ``latency`` field is the timing
        measurement the spy records.
        """
        yield _FENCE
        op = self._loads.get(vaddr)
        if op is None:
            op = self._loads[vaddr] = Load(vaddr)
        result = yield op
        yield _FENCE
        return result

    def burst(
        self,
        vaddr: int,
        count: int,
        stride: int,
        write_ratio: float = 0.0,
        mlp: float = 1.0,
    ) -> Generator[Op, OpResult, OpResult]:
        """Issue *count* strided accesses as one batched event."""
        result = yield Burst(vaddr, count, stride, write_ratio, mlp)
        return result


class SimThread:
    """One schedulable thread inside the simulator.

    Created via :meth:`repro.sim.engine.Simulator.spawn`; not constructed
    directly by user code.
    """

    __slots__ = (
        "tid", "name", "core_id", "executor", "process", "clock", "state",
        "result", "failure", "ops_executed", "cpu", "daemon", "on_exit",
        "_exit_fired", "_engine_exit", "_generator", "_pending_result",
        "program_spec", "driver",
    )

    _VALID_OPS = (Load, Store, Flush, Delay, Rdtsc, Fence, Burst)
    #: Exact-type fast path for op validation; ``isinstance`` against the
    #: 7-way union above costs more than a set probe per event.
    _OP_TYPES = frozenset(_VALID_OPS)

    def __init__(
        self,
        tid: int,
        name: str,
        program: Callable[[Cpu], Generator],
        core_id: int,
        executor: Executor,
        process: Any = None,
    ):
        self.tid = tid
        self.name = name
        self.core_id = core_id
        self.executor = executor
        self.process = process
        self.clock: float = 0.0
        self.state = ThreadState.READY
        self.result: Any = None
        self.failure: BaseException | None = None
        self.ops_executed = 0
        self.cpu = Cpu(self)
        self.daemon = False
        #: Optional callback fired exactly once when the thread leaves the
        #: READY state (finished, killed or failed).  The kernel uses it
        #: to release the scheduler slot.
        self.on_exit: Callable[["SimThread"], None] | None = None
        #: Engine-internal exit hook (live-thread accounting); fired
        #: before :attr:`on_exit`.
        self._engine_exit: Callable[["SimThread"], None] | None = None
        self._exit_fired = False
        self._generator = program(self.cpu)
        self._pending_result: OpResult | None = None
        #: The factory that can rebuild the program (see
        #: :mod:`repro.checkpoint`); None for ad-hoc programs.
        self.program_spec: Any = None
        #: Generator-free driver (see :mod:`repro.sim.drivers`) that the
        #: engine runs instead of ``_generator`` while set.  A checkpoint
        #: stores a live thread's driver position; an undriven live
        #: thread cannot be checkpointed.
        self.driver: Any = None

    @property
    def done(self) -> bool:
        """True once the thread has finished, been killed, or failed."""
        return self.state is not ThreadState.READY

    def _fire_exit(self) -> None:
        if not self._exit_fired:
            self._exit_fired = True
            if self._engine_exit is not None:
                self._engine_exit(self)
            if self.on_exit is not None:
                self.on_exit(self)

    def kill(self) -> None:
        """Stop the thread; it will never be scheduled again."""
        if self.state is ThreadState.READY:
            self.state = ThreadState.KILLED
            self._generator.close()
            self._fire_exit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimThread(tid={self.tid}, name={self.name!r}, "
            f"core={self.core_id}, clock={self.clock:.0f}, {self.state.value})"
        )
