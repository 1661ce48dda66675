"""Discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.engine.Simulator` — time-ordered thread interleaving,
  running the channel programs through :mod:`repro.sim.drivers`.
* :class:`~repro.sim.thread.Cpu` / :class:`~repro.sim.thread.SimThread` —
  the op API thread programs use, and the schedulable thread object.
* :mod:`repro.sim.events` — primitive ops and :class:`OpResult`.
* :class:`~repro.sim.rng.RngStreams` — deterministic named RNG streams.
* :class:`~repro.sim.stats.StatsRegistry` — counters and histograms.
"""

from repro.sim.engine import Simulator
from repro.sim.events import (
    AccessPath,
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
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.stats import Histogram, StatsRegistry
from repro.sim.thread import Cpu, SimThread, ThreadState

__all__ = [
    "AccessPath",
    "Burst",
    "Cpu",
    "Delay",
    "Fence",
    "Flush",
    "Histogram",
    "Load",
    "Op",
    "OpResult",
    "Rdtsc",
    "RngStreams",
    "SimThread",
    "Simulator",
    "StatsRegistry",
    "Store",
    "ThreadState",
    "derive_seed",
]
