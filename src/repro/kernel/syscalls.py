"""The Kernel facade: processes, threads, address translation, faults.

This is the layer thread programs run on.  It owns the physical frame
pool, the KSM daemon and the scheduler, and supplies the *executor* that
turns the ops a thread yields (virtual addresses) into machine accesses
(physical addresses), charging page-fault and COW-unmerge costs on the
way — including the KSM unmerge-on-write that would destroy the covert
channel if the trojan ever wrote to the shared page.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.errors import OutOfMemoryError, ProtectionFaultError
from repro.kernel.ksm import KsmDaemon
from repro.kernel.paging import PageTableEntry, vpn_of
from repro.kernel.process import Process
from repro.kernel.scheduler import Scheduler
from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine
from repro.mem.physical import PAGE_SIZE, PhysicalMemory, page_pattern
from repro.sim.engine import Simulator
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
from repro.sim.rng import RngStreams
from repro.sim.thread import Cpu, SimThread

#: Cycles charged for a COW-break page fault (allocate + copy + TLB work).
COW_FAULT_CYCLES = 2_400.0


class Kernel:
    """The simulated OS: the glue between thread programs and hardware.

    Parameters
    ----------
    machine:
        The coherent machine the kernel manages.
    simulator:
        The discrete-event engine threads are spawned into.
    rng:
        Deterministic RNG registry (shared with the machine, normally).
    n_frames:
        Size of the physical frame pool.
    """

    def __init__(
        self,
        machine: Machine,
        simulator: Simulator,
        rng: RngStreams | None = None,
        n_frames: int = 16_384,
    ):
        self.machine = machine
        self.sim = simulator
        self.rng = rng if rng is not None else machine.rng
        self.phys = PhysicalMemory(n_frames=n_frames)
        self.ksm = KsmDaemon(self.phys)
        self.scheduler = Scheduler(machine.config.n_cores)
        self.stats = machine.stats
        self._sched_rng = self.rng.get("kernel.scheduler")
        self._burst_rng = self.rng.get("kernel.burst")
        self._next_pid = 1
        self.processes: list[Process] = []
        # Bound hot-path callables/constants for _execute (which runs
        # once per engine event).  machine.load/.flush are deliberately
        # NOT bound: the detection subsystem interposes on them by
        # assigning instance attributes (EventMonitor.attach), so the
        # executor must resolve them per call.
        self._timeshare = self.scheduler.timeshare
        self._fence_cost = machine.config.latency.fence
        # Scheduler internals for the timeshare fast path (thread alone
        # on its core: factor 1, no penalty, no RNG draw — the common
        # case).  Both dicts are mutated in place by assign/release, so
        # holding them here stays coherent with the scheduler.
        self._sched_thread_core = self.scheduler._thread_core
        self._sched_assignments = self.scheduler._assignments

    # ------------------------------------------------------------------
    # process / thread management
    # ------------------------------------------------------------------

    def create_process(self, name: str, start_time: float | None = None) -> Process:
        """Create a process (KSM-registered) and return it."""
        process = Process(
            pid=self._next_pid,
            name=name,
            phys=self.phys,
            start_time=(
                self.sim.global_clock if start_time is None else start_time
            ),
        )
        self._next_pid += 1
        self.processes.append(process)
        self.ksm.register_process(process)
        return process

    def spawn(
        self,
        process: Process,
        name: str,
        program: Callable[[Cpu], Generator],
        core_id: int,
        daemon: bool = False,
        start_time: float | None = None,
        spec: Any = None,
    ) -> SimThread:
        """Spawn a thread of *process* pinned to *core_id*.

        ``spec`` (a :class:`repro.checkpoint.ProgramSpec`) is passed
        through to the engine, which attaches a driver when it names one
        of the driven programs (that is what makes a thread
        checkpointable).
        """
        thread = self.sim.spawn(
            name=name,
            program=program,
            core_id=core_id,
            executor=self._execute,
            start_time=start_time,
            daemon=daemon,
            process=process,
            spec=spec,
        )
        self.scheduler.assign(thread.tid, core_id)
        thread.on_exit = lambda t: self.scheduler.release(t.tid)
        return thread

    def spawn_kernel_thread(
        self,
        name: str,
        program: Callable[[Cpu], Generator],
        core_id: int = 0,
        daemon: bool = True,
    ) -> SimThread:
        """Spawn a kernel-context thread (e.g. the KSM daemon).

        Kernel threads are not pinned in the scheduler, so they never
        contribute to core oversubscription.
        """
        return self.sim.spawn(
            name=name,
            program=program,
            core_id=core_id,
            executor=self._execute,
            daemon=daemon,
            process=None,
        )

    def start_ksm_daemon(self) -> SimThread:
        """Run the KSM scanner as a periodic simulated kernel thread.

        Spawned without a program spec, like the fault injectors: no
        session runs it, and a session with it live is not segmented.
        """
        return self.spawn_kernel_thread("ksmd", self.ksm.run, core_id=0)

    # ------------------------------------------------------------------
    # shared-memory setup (Section IV)
    # ------------------------------------------------------------------

    def map_shared_readonly(
        self, processes: list[Process], n_pages: int = 1
    ) -> list[int]:
        """Explicit sharing: map the same frames read-only into each process.

        Models the shared-library-code setup of prior work; returns one
        base VA per process.
        """
        frames = [self.phys.alloc() for _ in range(n_pages)]
        bases = []
        for process in processes:
            base = None
            for frame in frames:
                va = process.map_frame(frame.pfn, writable=False)
                if base is None:
                    base = va
            bases.append(base)
        # map_frame took a ref per process; drop the allocation ref.
        for frame in frames:
            self.phys.put_ref(frame.pfn)
        return bases

    def map_shared_writable(
        self, processes: list[Process], n_pages: int = 1
    ) -> list[int]:
        """Explicit sharing with write access: shared frames, writable PTEs.

        Models a writable shared segment (``mmap MAP_SHARED`` /
        ``shmget``) — the setup the O-state channel needs, since the
        trojan must be able to *dirty* the shared block: a KSM-merged
        page would COW-unmerge on the first write and an explicit
        read-only mapping would fault.  PTEs are built directly because
        :meth:`Process.map_frame` hardcodes the COW semantics of
        read-only library sharing.  Returns one base VA per process.
        """
        frames = [self.phys.alloc() for _ in range(n_pages)]
        bases = []
        for process in processes:
            base = None
            for frame in frames:
                self.phys.get_ref(frame.pfn)
                va = process._mmap_cursor
                process.page_table[vpn_of(va)] = PageTableEntry(
                    pfn=frame.pfn, writable=True, cow=False
                )
                process._mmap_cursor += PAGE_SIZE
                if base is None:
                    base = va
            bases.append(base)
        for frame in frames:
            self.phys.put_ref(frame.pfn)
        return bases

    def madvise_mergeable(self, process: Process, vaddr: int, n_pages: int = 1) -> None:
        """Mark pages as KSM merge candidates (madvise MERGEABLE)."""
        for i in range(n_pages):
            process.pte(vaddr + i * PAGE_SIZE).mergeable = True

    def setup_ksm_shared_page(
        self,
        first: Process,
        second: Process,
        pattern_seed: int = 0xC0FFEE,
        scan_now: bool = True,
    ) -> tuple[int, int]:
        """Force-create a KSM-shared page between two processes.

        Each process allocates a private page and fills it with the same
        deterministic pseudo-random pattern derived from a pre-agreed
        seed, then madvises it; a scan merges them onto one frame.
        Returns the two virtual addresses.
        """
        va_a = first.mmap(1)
        va_b = second.mmap(1)
        pattern = page_pattern(pattern_seed, 0)
        first.write_bytes(va_a, pattern)
        second.write_bytes(va_b, pattern)
        self.madvise_mergeable(first, va_a)
        self.madvise_mergeable(second, va_b)
        if scan_now:
            self.ksm.scan_once()
        return va_a, va_b

    def build_eviction_set(
        self, process: Process, target_va: int, n_lines: int | None = None
    ) -> list[int]:
        """Allocate an LLC eviction set for the line holding *target_va*.

        Returns virtual addresses of ``n_lines`` (default: LLC
        associativity + 2) lines in *process*'s address space whose
        physical addresses map to the same LLC set as the target.
        Loading all of them evicts the target from the inclusive LLC —
        the paper's clflush alternative ("eviction of all the ways in
        the set", Section VI-B).

        The kernel uses its knowledge of the physical layout; a real
        attacker discovers such sets with timing, which changes setup
        cost but not the channel mechanics.
        """
        cfg = self.machine.config
        if n_lines is None:
            n_lines = cfg.llc_assoc + 2
        target_pa = process.translate(target_va)
        target_set = (target_pa >> 6) & (cfg.llc_sets - 1)
        lines_per_page = PAGE_SIZE // LINE_SIZE
        out: list[int] = []
        guard = 0
        while len(out) < n_lines:
            guard += 1
            if guard > 4096:
                raise OutOfMemoryError(
                    "could not build an eviction set (frame pool too small)"
                )
            va = process.mmap(1)
            page_pa = process.translate(va)
            base_set = (page_pa >> 6) & (cfg.llc_sets - 1)
            offset_lines = (target_set - base_set) % cfg.llc_sets
            if offset_lines < lines_per_page:
                line_va = va + offset_lines * LINE_SIZE
                line_pa = process.translate(line_va)
                if line_pa != target_pa:
                    out.append(line_va)
        return out

    # ------------------------------------------------------------------
    # the executor: ops -> machine accesses
    # ------------------------------------------------------------------

    def _execute(self, thread: SimThread, op: Op) -> OpResult:
        now = thread.clock
        value = 0
        path = None
        # Exact-type dispatch: op classes are final (frozen, slotted
        # dataclasses memoized by Cpu), so ``type(op) is X`` replaces the
        # isinstance chain that cost up to seven calls per executed op.
        t = type(op)
        if t is Load:
            process = thread.process
            paddr = op.vaddr if process is None else process.translate(op.vaddr)
            value, latency, path = self.machine.load(thread.core_id, paddr, now)
        elif t is Store:
            latency = self._do_store(thread, op.vaddr, op.value, now)
        elif t is Flush:
            process = thread.process
            paddr = op.vaddr if process is None else process.translate(op.vaddr)
            latency = self.machine.flush(thread.core_id, paddr, now)
        elif t is Delay:
            latency = float(op.cycles)
            if latency < 0.0:
                latency = 0.0
        elif t is Rdtsc:
            latency = 0.0
        elif t is Fence:
            latency = self._fence_cost
        elif t is Burst:
            latency = self._do_burst(thread, op, now)
        else:  # pragma: no cover - engine validates op types
            raise TypeError(f"unknown op {op!r}")

        # Timeshare fast path: a thread alone on its core (or a kernel
        # thread with no core slot) pays nothing and draws no RNG —
        # identical to Scheduler.timeshare, which handles the shared
        # case (k > 1, stochastic preemption penalty).
        tid = thread.tid
        core = self._sched_thread_core.get(tid)
        if core is None or len(self._sched_assignments[core]) <= 1:
            return OpResult(latency, now + latency, value, path)
        factor, penalty = self._timeshare(tid, self._sched_rng)
        if t is Delay or t is Burst:
            # Fair-share slowdown applies to compute/think time: an
            # oversubscribed thread progresses at 1/k rate.
            latency = latency * factor
        # A preemption penalty can land on any op; when it hits a timed
        # load it shows up as a huge latency outlier, exactly what a
        # context switch does to an rdtsc-bracketed measurement.
        latency += penalty
        return OpResult(latency, now + latency, value, path)

    def _translate_read(self, thread: SimThread, vaddr: int) -> int:
        process: Process = thread.process
        if process is None:
            # Kernel threads address physical memory directly.
            return vaddr
        return process.translate(vaddr)

    def _do_store(self, thread: SimThread, vaddr: int, value: int, now: float) -> float:
        process: Process = thread.process
        fault_cost = 0.0
        if process is not None:
            pte = process.pte(vaddr)
            if pte.cow:
                # COW break — for a KSM-merged page this is the unmerge
                # that separates the sharers again (Section IV).
                old_pfn = pte.pfn
                self.ksm.unmerge(process, vpn_of(vaddr))
                self._purge_frame_from_caches(old_pfn)
                fault_cost = COW_FAULT_CYCLES
                self.stats.incr("kernel.cow_faults")
            elif not pte.writable:
                raise ProtectionFaultError(vaddr, process.pid)
            paddr = process.translate(vaddr)
            # Keep frame contents in sync so KSM hashing stays honest;
            # clamp so the 8-byte write never crosses the frame boundary.
            page_base = paddr - (paddr % PAGE_SIZE)
            offset = min(paddr % PAGE_SIZE, PAGE_SIZE - 8)
            self.phys.write(
                page_base + offset,
                (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
            )
        else:
            paddr = vaddr
        latency, _path = self.machine.store(thread.core_id, paddr, value, now)
        return latency + fault_cost

    def _do_burst(self, thread: SimThread, op: Burst, now: float) -> float:
        process: Process = thread.process
        total = 0.0
        addr = op.vaddr
        for _i in range(op.count):
            paddr = process.translate(addr) if process is not None else addr
            if op.write_ratio > 0 and self._burst_rng.random() < op.write_ratio:
                latency, _path = self.machine.store(
                    thread.core_id, paddr, 1, now + total
                )
            else:
                _value, latency, _path = self.machine.load(
                    thread.core_id, paddr, now + total
                )
            # Overlapped execution: mlp outstanding requests hide a
            # proportional share of each access's latency.
            total += latency / max(1.0, op.mlp)
            addr += op.stride
        return total

    def _purge_frame_from_caches(self, pfn: int) -> None:
        """Invalidate every line of a frame from every cache.

        Called when a page is remapped (KSM unmerge) so no core keeps
        serving stale lines for a freed frame.
        """
        base = pfn * PAGE_SIZE
        for offset in range(0, PAGE_SIZE, LINE_SIZE):
            self.machine.drop_line(base + offset)
