"""Home-node directory coherence: global entries with sharer bitmasks.

The snoop-mode model (:mod:`repro.mem.coherence`) keeps one directory
per socket LLC and resolves misses by walking sockets.  Real multi-socket
parts instead assign every physical address a *home node* whose directory
entry is authoritative for the whole machine: an LLC miss always consults
the home first, and the home either answers from memory-side state or
snoops the single owning core (Section VIII-E's discussion of home-agent
systems).  :class:`DirectoryEntry` is that authoritative record — a
global :class:`DirectoryState`, a sharer *bitmask* over global core ids,
and owner extraction from the mask.

The request path itself lives in
:meth:`repro.mem.hierarchy.Machine._directory_load` and friends
(selected with ``MachineConfig(coherence="directory")``); this module is
pure bookkeeping so the entry semantics are unit-testable in isolation.

Sharer masks are deliberately *conservative*: private caches may evict
silently, so a set bit means "may hold a copy", never "must".  Owner
extraction therefore tolerates stale state — a named owner whose private
copy is gone falls back to the home's memory-side service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.mem.cacheline import bit_ids


class DirectoryState(enum.Enum):
    """Global (home-node) state of one line."""

    UNCACHED = "I"    # no cache anywhere may hold the line
    SHARED = "S"      # >= 1 clean copies; home answers from memory side
    EXCLUSIVE = "E"   # one core granted exclusive (clean) rights
    MODIFIED = "M"    # one core holds the only, dirty copy
    OWNED = "O"       # MOESI: dirty owner services reads, sharers exist

    @property
    def has_owner(self) -> bool:
        """Whether reads must be forwarded to an owning core."""
        return self in (
            DirectoryState.EXCLUSIVE,
            DirectoryState.MODIFIED,
            DirectoryState.OWNED,
        )


@dataclass(slots=True)
class DirectoryEntry:
    """One home-node directory entry.

    Attributes
    ----------
    addr:
        Line base address.
    state:
        Global :class:`DirectoryState`.
    sharers:
        Bitmask over *global* core ids (bit ``1 << core_id``); a superset
        of the cores actually holding a copy (bits go stale on silent
        private evictions and are healed lazily).
    owner_id:
        Explicit owner core for :attr:`DirectoryState.OWNED`, where the
        sharer mask alone cannot name the servicing core (the dirty
        owner coexists with clean sharers).
    value:
        Memory-side copy of the line's data tag.
    dirty:
        Whether ``value`` is newer than DRAM (write back on flush).
    """

    addr: int
    state: DirectoryState = DirectoryState.UNCACHED
    sharers: int = 0
    owner_id: int | None = None
    value: int = 0
    dirty: bool = False

    def add_sharer(self, core_id: int) -> None:
        """Record *core_id* as (possibly) holding a copy."""
        self.sharers |= 1 << core_id

    def drop_sharer(self, core_id: int) -> None:
        """Clear *core_id*'s bit (no-op if it was never set)."""
        self.sharers &= ~(1 << core_id)

    def sharer_ids(self) -> list[int]:
        """Global core ids with a set bit, in ascending order."""
        return bit_ids(self.sharers)

    @property
    def sharer_count(self) -> int:
        """Popcount of the sharer mask."""
        return self.sharers.bit_count()

    def owner(self) -> int | None:
        """The core that must service reads, extracted from the entry.

        For E/M the owner is the single set bit of the sharer mask —
        ``None`` when the mask is empty (stale entry) or has multiple
        bits set (the exclusivity invariant was already broken, so no
        core can be trusted to service).  For O the mask legitimately
        has several bits, so the explicit :attr:`owner_id` is used.
        For UNCACHED/SHARED the home answers itself.
        """
        if self.state is DirectoryState.OWNED:
            return self.owner_id
        if not self.state.has_owner:
            return None
        if self.sharers == 0 or self.sharers & (self.sharers - 1):
            return None
        return self.sharers.bit_length() - 1
