"""Fixed cost of a machine: building one and resetting one (timings
only, no gate).

Every point that does not reuse the warm machine builds a fresh
``Machine``, and every point that does resets it.  Both are paid before
the first calibration round, so they are tracked apart from the
per-access cost in ``test_mem_access.py``.  The reset benchmark dirties
a few sets on every core and both sockets before each round, as a
finished point leaves them.  Nothing here asserts a time."""

from __future__ import annotations

from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.rng import RngStreams

PROBE = 0x40_0000


def test_machine_build(benchmark):
    config = MachineConfig()
    benchmark(Machine, config, RngStreams(7))


def test_machine_reset(benchmark):
    machine = Machine(MachineConfig(), RngStreams(7))
    n_cores = machine.config.n_cores

    def dirty():
        for k in range(64):
            machine.load(k % n_cores, PROBE + 4096 * k)
        return (), {}

    benchmark.pedantic(machine.reset, setup=dirty, rounds=200)
