"""Op-stream pins for the machine layer, one per coherence backend.

Each backend runs a seeded 20,000-op mix straight through
``Machine.load``/``store``/``flush``: loads, stores and flushes from
cores on both sockets, over lines every core shares and lines private to
one core (dense enough to evict from L1 and L2), with occasional
batched bursts whose ``now`` runs ahead of the clock and then falls
back, as ``Kernel._do_burst`` registers accesses.  The digest covers
every op's ``(value, latency.hex(), path.value)``, the final stats
counters and the final state of every line the stream touched, so any
change to a service path, a contention delay or the order or value of
a jitter draw moves it.  ``check_machine`` runs every
1,000 ops.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.channel.scenarios import scenario_spec_by_name
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import check_machine
from repro.sim.rng import RngStreams

OPS = 20_000
CHECK_EVERY = 1_000

#: Backend -> its machine configuration.  The last two stress the LLC:
#: a non-inclusive LLC keeps tag-only entries for private holders, and a
#: 256-line LLC forces back-invalidations of private copies.
CONFIGS = {
    "mesi-es": scenario_spec_by_name("mesi-es").machine_config(),
    "mesif-es": scenario_spec_by_name("mesif-es").machine_config(),
    "moesi-ostate": scenario_spec_by_name("moesi-ostate").machine_config(),
    "dir-es": scenario_spec_by_name("dir-es").machine_config(),
    "non-inclusive": MachineConfig(inclusive=False, llc_sets=64, llc_assoc=4),
    "small-llc": MachineConfig(llc_sets=64, llc_assoc=4),
}

#: sha256 of each backend's op stream, computed before the machine
#: layer's per-access rewrite; a faster service path must not move them.
DIGESTS = {
    "mesi-es": (
        "fb006ef1d990a06e08fa56b770a4d746"
        "3ffe91c20546f8bc49624abcb0318324"
    ),
    "mesif-es": (
        "bb7c171294572d7714d9a8472c78c173"
        "35157827623e5ef675e1c52d2e56991e"
    ),
    "moesi-ostate": (
        "a15df26581a35e2c93b1685af9c8834f"
        "6f932824d80439835586d7c2ff9dbe87"
    ),
    "dir-es": (
        "6f248b04cf7cab59569111f6afd621a0"
        "fa767bba7bd8cbde7f62029c18759cc4"
    ),
    "non-inclusive": (
        "c1c876749695a6a33aa6a7073a009391"
        "1728dbadb7c847ef19ce584cf758d778"
    ),
    "small-llc": (
        "f038b7099163dad3938048cb81be866d"
        "4e8395e514715b0568e0f4b5023ce7df"
    ),
}


def _lines(n_cores: int) -> tuple[list[int], list[list[int]]]:
    # Shared lines sit on several pages, so page-interleaved homes put
    # some on each socket.
    shared = [0x100000 + 64 * i for i in range(6)]
    shared += [0x200000 + 4096 * i for i in range(10)]
    private = []
    for core in range(n_cores):
        base = 0x4000000 + core * 0x100000
        # 4 KiB apart: one L1 set, twelve lines for eight ways.  32 KiB
        # apart: one L2 set, twelve lines for eight ways.
        lines = [base + 4096 * k for k in range(12)]
        lines += [base + 0x80000 + 32768 * k for k in range(12)]
        private.append(lines)
    return shared, private


def op_stream_digest(config: MachineConfig, seed: int = 2024) -> str:
    machine = Machine(config, RngStreams(seed))
    rng = random.Random(seed)
    shared, private = _lines(config.n_cores)
    digest = hashlib.sha256()
    now = 0.0
    burst = 0
    burst_at = 0.0
    for i in range(OPS):
        if burst:
            # A batched burst registers its accesses ahead of the clock.
            burst -= 1
            burst_at += rng.uniform(5.0, 40.0)
            at = burst_at
        else:
            now += rng.expovariate(1 / 30.0)
            at = now
            if rng.random() < 0.01:
                burst = rng.randrange(8, 48)
                burst_at = now
        core = rng.randrange(config.n_cores)
        addr = (
            rng.choice(shared) if rng.random() < 0.55
            else rng.choice(private[core])
        ) + rng.randrange(64)
        draw = rng.random()
        if draw < 0.70:
            value, latency, path = machine.load(core, addr, at)
            digest.update(f"L{value},{latency.hex()},{path.value};".encode())
        elif draw < 0.88:
            latency, path = machine.store(core, addr, i, at)
            digest.update(f"S{latency.hex()},{path.value};".encode())
        else:
            latency = machine.flush(core, addr, at)
            digest.update(f"F{latency.hex()};".encode())
        if (i + 1) % CHECK_EVERY == 0:
            check_machine(machine)
    digest.update(repr(sorted(machine.stats.counters().items())).encode())
    for addr in sorted({*shared, *(a for lines in private for a in lines)}):
        digest.update(repr(final_state(machine, addr)).encode())
    digest.update(repr(sorted(machine.dram.items())).encode())
    return digest.hexdigest()


def final_state(machine: Machine, addr: int) -> tuple:
    """A line's private states and directory records, order-free."""
    holders = sorted(
        (core, state.value)
        for core, state in machine.private_states(addr).items()
    )
    if machine.config.coherence == "directory":
        entry = machine.home_entry(addr)
        record = None if entry is None else (
            entry.state.value, entry.sharers, entry.owner_id, entry.value,
            entry.dirty,
        )
        return holders, record
    records = []
    for socket in range(machine.config.n_sockets):
        entry = machine.llc_entry(socket, addr)
        records.append(None if entry is None else (
            entry.owner, entry.forwarder, entry.value, entry.dirty,
            entry.data_valid,
        ))
    return holders, records


@pytest.mark.parametrize("backend", sorted(CONFIGS))
def test_op_stream_digest(backend):
    assert op_stream_digest(CONFIGS[backend]) == DIGESTS[backend]
