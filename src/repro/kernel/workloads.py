"""Background noise workloads (Section VIII-C).

The paper stress-tests the channel against *kernel-build* (kcbench), a
highly memory-intensive multi-threaded compile workload.  The programs
here reproduce its two disturbance mechanisms:

* LLC pollution — streaming over a working set larger than the LLC
  evicts the covert line, so the spy occasionally reads the DRAM band;
* interconnect contention — sustained ring/QPI/memory-controller traffic
  inflates and jitters everyone's latencies.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.checkpoint.spec import ProgramSpec, RngRef
from repro.kernel.process import Process
from repro.kernel.syscalls import Kernel
from repro.mem.cacheline import LINE_SIZE
from repro.mem.physical import PAGE_SIZE
from repro.sim.thread import Cpu, SimThread

#: Pages in each kernel-build worker's private working set; sized ~3x a
#: socket's scaled-down LLC so steady-state traffic keeps evicting.
KERNEL_BUILD_PAGES = 1536

#: Accesses issued per batched burst event.
BURST_LINES = 64

#: A kernel-build worker's defaults: the share of burst accesses that
#: are stores, the think-time range in cycles, and the memory-level
#: parallelism of its bursts.  ``repro.sim.drivers`` reads them too.
KERNEL_BUILD_WRITE_RATIO = 0.3
KERNEL_BUILD_THINK = (500.0, 2_000.0)
KERNEL_BUILD_MLP = 4.0


def kernel_build_program(
    region_base: int,
    region_pages: int,
    rng: np.random.Generator,
    write_ratio: float = KERNEL_BUILD_WRITE_RATIO,
    think_time: tuple[float, float] = KERNEL_BUILD_THINK,
    mlp: float = KERNEL_BUILD_MLP,
) -> Callable[[Cpu], Generator]:
    """A compile-like worker: bursts of strided accesses + think time.

    ``mlp`` models the memory-level parallelism of an out-of-order core
    streaming a compile working set.  Runs forever; spawn as a daemon.
    Sessions run it on its driver (``repro.sim.drivers``); this
    generator is the reference the driver is tested against.
    """
    region_bytes = region_pages * PAGE_SIZE
    max_start = region_bytes - BURST_LINES * LINE_SIZE

    def program(cpu: Cpu) -> Generator:
        while True:
            start = int(rng.integers(0, max_start)) & ~(LINE_SIZE - 1)
            think = float(rng.uniform(*think_time))
            yield from cpu.burst(
                region_base + start,
                count=BURST_LINES,
                stride=LINE_SIZE,
                write_ratio=write_ratio,
                mlp=mlp,
            )
            yield from cpu.delay(think)

    return program


def spawn_kernel_build(
    kernel: Kernel,
    n_threads: int,
    avoid_cores: set[int] | None = None,
    name_prefix: str = "kbuild",
) -> list[SimThread]:
    """Spawn *n_threads* kernel-build workers, one process, spread cores.

    The trojan and spy are pinned (``sched_setaffinity``); a fair OS
    scheduler therefore balances the unpinned kernel-build threads over
    the remaining cores, stacking them up on each other — never on the
    already-busy pinned cores — once every free core is taken.  This is
    the 8-thread regime of Figure 9 (13 runnable threads, 12 cores).
    """
    if n_threads <= 0:
        return []
    avoid = avoid_cores or set()
    process = kernel.create_process(f"{name_prefix}-proc")
    threads = []
    cfg = kernel.machine.config
    free = [c for c in range(cfg.n_cores) if c not in avoid]
    if not free:
        free = list(range(cfg.n_cores))
    # Interleave sockets the way a load-balancing scheduler does, so the
    # noise pressure lands evenly on both coherence domains.
    by_socket: dict[int, list[int]] = {}
    for c in free:
        by_socket.setdefault(c // cfg.cores_per_socket, []).append(c)
    preferred: list[int] = []
    pools = list(by_socket.values())
    for rank in range(max(len(p) for p in pools)):
        for pool in pools:
            if rank < len(pool):
                preferred.append(pool[rank])
    for i in range(n_threads):
        core = min(preferred, key=lambda c: (kernel.scheduler.load(c),
                                             preferred.index(c)))
        region = process.mmap(KERNEL_BUILD_PAGES)
        stream = f"workload.{name_prefix}.{i}"
        rng = kernel.rng.get(stream)
        program = kernel_build_program(region, KERNEL_BUILD_PAGES, rng)
        spec = ProgramSpec(
            "repro.kernel.workloads:kernel_build_program",
            (region, KERNEL_BUILD_PAGES, RngRef(stream)),
        )
        threads.append(
            kernel.spawn(
                process, f"{name_prefix}-{i}", program, core, daemon=True,
                spec=spec,
            )
        )
    return threads


def streaming_program(
    region_base: int,
    region_pages: int,
    stride: int = LINE_SIZE,
) -> Callable[[Cpu], Generator]:
    """A pure sequential reader (memory-bandwidth hog, no writes)."""
    region_bytes = region_pages * PAGE_SIZE

    def program(cpu: Cpu) -> Generator:
        addr = 0
        while True:
            yield from cpu.burst(
                region_base + addr, count=BURST_LINES, stride=stride
            )
            addr = (addr + BURST_LINES * stride) % (region_bytes - BURST_LINES * stride)

    return program


def pointer_chase_program(
    process: Process,
    region_base: int,
    region_pages: int,
    rng: np.random.Generator,
) -> Callable[[Cpu], Generator]:
    """A latency-bound random walker (one dependent load at a time)."""
    n_lines = region_pages * PAGE_SIZE // LINE_SIZE

    def program(cpu: Cpu) -> Generator:
        while True:
            line = int(rng.integers(0, n_lines))
            yield from cpu.load(region_base + line * LINE_SIZE)

    return program
