"""Kernel Same-page Merging (Section IV of the paper).

The daemon periodically scans every page that processes have madvise()d
as mergeable, in process start-time order (earliest first, as the paper
notes).  Pages with identical contents are merged onto the earliest
scanned frame; duplicate frames are released, and the survivors are
marked copy-on-write so that any write triggers an unmerge fault.

This is the implicit-sharing mechanism the trojan and spy exploit: they
fill private pages with an identical pre-agreed pseudo-random pattern,
madvise them, and after a scan both map the *same physical page* without
ever sharing code or data explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.paging import PageTableEntry
from repro.kernel.process import Process
from repro.mem.physical import PAGE_SIZE, PhysicalMemory


@dataclass
class KsmStats:
    """Counters mirroring /sys/kernel/mm/ksm."""

    full_scans: int = 0
    pages_scanned: int = 0
    pages_merged: int = 0
    pages_unmerged: int = 0
    pages_sharing: int = 0


@dataclass
class MergeRecord:
    """Bookkeeping for one canonical (stable-tree) frame."""

    pfn: int
    digest: bytes
    mappers: set[tuple[int, int]] = field(default_factory=set)  # (pid, vpn)


class KsmDaemon:
    """The same-page-merging scanner.

    Parameters
    ----------
    phys:
        The physical frame pool.
    scan_interval:
        Cycles between scan passes when run as a simulated thread.
    """

    def __init__(self, phys: PhysicalMemory, scan_interval: float = 20_000_000.0):
        self._phys = phys
        self.scan_interval = scan_interval
        self.stats = KsmStats()
        # stable tree: content digest -> canonical frame record
        self._stable: dict[bytes, MergeRecord] = {}
        self._processes: list[Process] = []

    def register_process(self, process: Process) -> None:
        """Track a process whose mergeable pages should be scanned."""
        if process not in self._processes:
            self._processes.append(process)

    # ------------------------------------------------------------------
    # scanning / merging
    # ------------------------------------------------------------------

    def scan_once(self) -> int:
        """One full scan pass; returns the number of pages merged."""
        merged = 0
        self._prune_stable()
        for process in sorted(self._processes, key=lambda p: p.start_time):
            for vpn in process.mapped_vpns():
                pte = process.page_table[vpn]
                if not pte.mergeable or pte.merged:
                    continue
                self.stats.pages_scanned += 1
                if self._try_merge(process, vpn, pte):
                    merged += 1
        self.stats.full_scans += 1
        return merged

    def _try_merge(self, process: Process, vpn: int, pte: PageTableEntry) -> bool:
        frame = self._phys.frame(pte.pfn)
        digest = frame.content_hash()
        record = self._stable.get(digest)
        if record is None or record.pfn == pte.pfn:
            # First sighting: this frame becomes the stable-tree canonical
            # copy.  Mark it COW so a later write by its own mapper also
            # breaks sharing correctly.
            self._stable[digest] = MergeRecord(
                pfn=pte.pfn, digest=digest,
                mappers={(process.pid, vpn)},
            )
            pte.cow = True
            pte.merged = True
            return False
        # Merge: remap onto the canonical frame, free the duplicate.
        old_pfn = pte.pfn
        self._phys.get_ref(record.pfn)
        pte.pfn = record.pfn
        pte.cow = True
        pte.merged = True
        record.mappers.add((process.pid, vpn))
        self._phys.put_ref(old_pfn)
        self.stats.pages_merged += 1
        self.stats.pages_sharing = sum(
            len(r.mappers) for r in self._stable.values() if len(r.mappers) > 1
        )
        return True

    def _prune_stable(self) -> None:
        """Drop stable-tree records whose frame contents changed or died."""
        stale = []
        for digest, record in self._stable.items():
            try:
                frame = self._phys.frame(record.pfn)
            except Exception:
                stale.append(digest)
                continue
            if frame.content_hash() != digest:
                stale.append(digest)
        for digest in stale:
            del self._stable[digest]

    # ------------------------------------------------------------------
    # unmerge (COW break on write, or forced by a mitigation policy)
    # ------------------------------------------------------------------

    def unmerge(self, process: Process, vpn: int) -> int:
        """Break sharing for one merged page; returns the new pfn.

        Called by the page-fault handler on a write to a merged page, and
        by the KSM-timeout mitigation (Section VIII-E) to forcibly
        separate suspicious pages.
        """
        pte = process.page_table[vpn]
        old_pfn = pte.pfn
        old_frame = self._phys.frame(old_pfn)
        new_frame = self._phys.alloc()
        if old_frame.touched:
            new_frame.data[:] = old_frame.data
        pte.pfn = new_frame.pfn
        pte.cow = False
        pte.merged = False
        self._phys.put_ref(old_pfn)
        for record in self._stable.values():
            record.mappers.discard((process.pid, vpn))
        self.stats.pages_unmerged += 1
        return new_frame.pfn

    def shared_frames(self) -> list[MergeRecord]:
        """Records of frames currently mapped by more than one page."""
        return [r for r in self._stable.values() if len(r.mappers) > 1]

    def mappers_of(self, pfn: int) -> set[tuple[int, int]]:
        """(pid, vpn) pairs currently sharing frame *pfn*."""
        for record in self._stable.values():
            if record.pfn == pfn:
                return set(record.mappers)
        return set()

    def run(self, cpu) -> "object":
        """Thread-program body: scan forever at ``scan_interval``.

        Spawn with ``daemon=True``; each pass is instantaneous in
        simulated time (scan work is attributed to the interval delay).
        """
        while True:
            yield from cpu.delay(self.scan_interval)
            self.scan_once()

    @staticmethod
    def page_size() -> int:
        """The page granularity KSM merges at."""
        return PAGE_SIZE
