"""Per-operation unit costs of ``Machine.load``/``store``/``flush``.

The microbenchmark drives a bare ``Machine`` per coherence backend with a
seeded mix of operations across cores and lines, times every call and
groups the time by the service path the call reports.  The traced run
multiplies these unit costs by the operation counts it saw inside each
``Simulator.run`` and reports what they leave unexplained as
``ledger.unattributed_share`` (never absorbed into a layer).
"""

from __future__ import annotations

import random
import statistics
import time

from repro.channel.scenarios import scenario_spec_by_name
from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.events import AccessPath
from repro.sim.rng import RngStreams

#: Backend -> a matrix cell whose machine configuration it uses.  MESIF
#: cells are attributed with the MESI costs.
PROTOCOL_CELLS = {"mesi": "mesi-es", "moesi": "moesi-es", "directory": "dir-es"}

#: The load service paths, in ``AccessPath`` order.
PATHS = tuple(p.value for p in AccessPath if p is not AccessPath.UNCACHED)


def protocol_of(machine_config) -> str:
    """The ``PROTOCOL_CELLS`` key whose unit costs apply to a machine."""
    if machine_config.coherence == "directory":
        return "directory"
    return "moesi" if machine_config.protocol == "moesi" else "mesi"


def _timer_overhead_ns(clock, samples: int = 2001) -> int:
    return int(statistics.median(-(clock() - clock()) for _ in range(samples)))


def machine_costs(cell: str, ops: int = 12_000, seed: int = 7) -> dict[str, float]:
    """Mean nanoseconds per ``load.<path>``, ``store`` and ``flush``."""
    config = scenario_spec_by_name(cell).machine_config(MachineConfig())
    machine = Machine(config, RngStreams(seed))
    rng = random.Random(seed)
    # Shared lines exercise the coherence paths across cores; core 0's
    # private lines overflow one L1 set but not L2, giving L2 hits.
    shared = [0x100000 + 64 * i for i in range(8)]
    shared += [0x200000 + 4096 * i for i in range(12)]
    private = [0x800000 + 4096 * i for i in range(12)]
    clock = time.perf_counter_ns
    overhead = _timer_overhead_ns(clock)
    totals: dict[str, list[int]] = {}
    now = 0.0
    for i in range(ops):
        now += 50.0
        draw = rng.random()
        if draw < 0.25:
            core, addr, op = 0, rng.choice(private), "load"
        else:
            core, addr = rng.randrange(config.n_cores), rng.choice(shared)
            op = "load" if draw < 0.7 else "store" if draw < 0.82 else "flush"
        if op == "load":
            start = clock()
            _value, _latency, path = machine.load(core, addr, now)
            end = clock()
            op = f"load.{path.value}"
        elif op == "store":
            start = clock()
            machine.store(core, addr, i, now)
            end = clock()
        else:
            start = clock()
            machine.flush(core, addr, now)
            end = clock()
        total = totals.setdefault(op, [0, 0])
        total[0] += 1
        total[1] += end - start - overhead
    return {op: ns / n for op, (n, ns) in totals.items()}


def unit_costs(ops: int = 12_000) -> dict[str, dict[str, float]]:
    """``machine_costs`` for every backend in ``PROTOCOL_CELLS``."""
    return {proto: machine_costs(cell, ops) for proto, cell in PROTOCOL_CELLS.items()}


def op_key(counter: str) -> str | None:
    """The unit-cost key a stats counter name is charged at, if any."""
    if counter.startswith("machine.load."):
        return "load." + counter[len("machine.load."):]
    if counter.startswith("machine.store."):
        return "store"
    if counter == "machine.flush":
        return "flush"
    return None
