"""Per-access cost of the memory hierarchy (timings only, no gate).

A cold point calibrates with Section V's round, flush -> place the line
in a (location, state) -> timed load, about 2,000 times; each pair's
first two or three rounds go through ``Machine.load``/``store``/
``flush``, and the rest replay the steady-state round's timing.  A noisy
point runs Fig. 9's kernel-build bursts through the same calls.  These
benchmarks time one calibration round per backend and pair through
those calls, and one 256-access burst, so the per-access cost is
tracked on its own.  Nothing here asserts a time."""

from __future__ import annotations

import pytest

from repro.channel.calibration import _run_op, _round, _round_ops
from repro.channel.config import ALL_PAIRS
from repro.channel.scenarios import scenario_spec_by_name
from repro.kernel.syscalls import Kernel
from repro.kernel.workloads import (
    KERNEL_BUILD_MLP,
    KERNEL_BUILD_PAGES,
    KERNEL_BUILD_WRITE_RATIO,
    kernel_build_program,
)
from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine
from repro.sim.engine import Simulator
from repro.sim.events import Burst
from repro.sim.rng import RngStreams

#: One cell per coherence backend: snoop MESI, MOESI, home directory.
CELLS = ("mesi-es", "moesi-ostate", "dir-es")

PROBE = 0x40_0000
SPY, LOCAL, REMOTE = 0, (1, 2), (6, 7)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.notation)
@pytest.mark.parametrize("cell", CELLS)
def test_calibration_round(benchmark, cell, pair):
    machine = Machine(scenario_spec_by_name(cell).machine_config(),
                      RngStreams(7))
    ops = _round_ops(pair, SPY, LOCAL, REMOTE)
    clock = [0.0]

    def step(j: int, now: float) -> float:
        # Every op through the Machine API, as an unreplayed round runs.
        return _run_op(machine, *ops[j], PROBE, now)[0]

    def one_round():
        clock[0], _latency = _round(step, len(ops) - 1, clock[0])

    benchmark(one_round)


@pytest.mark.parametrize("cell", CELLS)
def test_kernel_burst_256(benchmark, cell):
    rng = RngStreams(7)
    machine = Machine(scenario_spec_by_name(cell).machine_config(), rng)
    kernel = Kernel(machine, Simulator(machine.stats), rng)
    process = kernel.create_process("kbuild")
    region = process.mmap(KERNEL_BUILD_PAGES)
    thread = kernel.spawn(
        process, "kbuild-0",
        kernel_build_program(region, KERNEL_BUILD_PAGES, rng.get("w")),
        3, daemon=True,
    )
    span = KERNEL_BUILD_PAGES * 4096 - 256 * LINE_SIZE
    clock = [0.0, 0]

    def one_burst():
        # Walk the working set so bursts keep missing, as a build does.
        start = clock[1] * 256 * LINE_SIZE % span
        clock[0] += kernel._do_burst(thread, Burst(
            region + start, 256, LINE_SIZE, KERNEL_BUILD_WRITE_RATIO,
            KERNEL_BUILD_MLP,
        ), clock[0])
        clock[1] += 1

    benchmark(one_burst)
