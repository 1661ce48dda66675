"""CPU scheduler: core pinning, time-sharing and preemption noise.

Threads are pinned to cores (the paper's ``sched_setaffinity``).  When a
core is oversubscribed the scheduler applies a fair-share slowdown (each
of *k* runnable threads progresses at 1/k rate) plus stochastic
context-switch penalties; this is the approximation that lets the
kernel-build noise experiments oversubscribe 12 cores with 13+ threads
as the paper does, without a cycle-accurate context-switch model.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim.rng import RngStream


class Scheduler:
    """Tracks thread-to-core assignments and computes time-sharing costs.

    Parameters
    ----------
    n_cores:
        Number of cores in the machine.
    context_switch_cost:
        Cycles charged when a context switch hits an op.
    preempt_probability:
        Chance per op that a thread on a *shared* core pays a context
        switch (scaled by how oversubscribed the core is).
    """

    def __init__(
        self,
        n_cores: int,
        context_switch_cost: float = 1_500.0,
        preempt_probability: float = 0.002,
    ):
        if n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        self.n_cores = n_cores
        self.context_switch_cost = context_switch_cost
        self.preempt_probability = preempt_probability
        self._assignments: dict[int, set[int]] = {c: set() for c in range(n_cores)}
        self._thread_core: dict[int, int] = {}

    def assign(self, tid: int, core_id: int) -> None:
        """Pin thread *tid* to *core_id* (moving it if already pinned)."""
        if core_id < 0 or core_id >= self.n_cores:
            raise ConfigError(f"core {core_id} out of range")
        self.release(tid)
        self._assignments[core_id].add(tid)
        self._thread_core[tid] = core_id

    def release(self, tid: int) -> None:
        """Remove *tid* from its core (no-op if unassigned)."""
        core = self._thread_core.pop(tid, None)
        if core is not None:
            self._assignments[core].discard(tid)

    def core_of(self, tid: int) -> int | None:
        """The core *tid* is pinned to, or None."""
        return self._thread_core.get(tid)

    def load(self, core_id: int) -> int:
        """Number of threads currently pinned to *core_id*."""
        return len(self._assignments[core_id])

    def least_loaded_core(self, socket_cores: list[int]) -> int:
        """Pick the least-loaded core among *socket_cores*."""
        return min(socket_cores, key=lambda c: (self.load(c), c))

    def timeshare(
        self, tid: int, rng: RngStream
    ) -> tuple[float, float]:
        """Return (slowdown_factor, extra_penalty_cycles) for one op."""
        core = self._thread_core.get(tid)
        if core is None:
            return 1.0, 0.0
        # Inlined self.load(core); called once per executed op.
        k = len(self._assignments[core])
        if k <= 1:
            return 1.0, 0.0
        penalty = 0.0
        if rng.random() < self.preempt_probability * (k - 1):
            penalty = self.context_switch_cost * rng.uniform(0.5, 2.0)
        return float(k), penalty
