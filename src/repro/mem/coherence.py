"""Directory-based coherence controller, one domain per socket.

Implements Section VI of the paper literally.  Each socket's LLC keeps a
directory entry per line with the core-valid-bits vector:

* popcount >= 2 (or a clean LLC copy with no exclusive owner): the LLC
  answers a read miss directly — the *shared* latency band;
* popcount == 1 with exclusive rights granted: the LLC forwards the miss
  to the owner, the owner replies, downgrades E/M -> S and writes back —
  the *exclusive* latency band;
* popcount == 0 and no LLC copy: the miss falls through to the next
  socket, and finally to DRAM.

The controller also maintains inclusion (back-invalidation on LLC
eviction) or, in the non-inclusive variant, a tag-only snoop-filter
entry, which is the configuration discussed in Section VIII-E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CoherenceError
from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import CoherenceState, LlcLine, PrivateLine
from repro.mem.protocols import ProtocolPolicy


@dataclass
class Core:
    """One core's private cache hierarchy.

    L1 and L2 share :class:`PrivateLine` objects, so L2 is inclusive of
    L1 by construction and a state change is visible at both levels.
    """

    core_id: int
    socket_id: int
    l1: SetAssocCache[PrivateLine]
    l2: SetAssocCache[PrivateLine]


@dataclass
class SocketDomain:
    """Coherence domain of one socket: cores + LLC data array + directory.

    A ``base`` parameter is a 64-byte-aligned line address (the machine
    aligns once per access); an ``addr`` parameter may be unaligned.
    """

    socket_id: int
    cores: list[Core]
    data_array: SetAssocCache[LlcLine]
    policy: ProtocolPolicy
    dram: dict[int, int]
    inclusive: bool = True
    directory: dict[int, LlcLine] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._cores_by_id = {core.core_id: core for core in self.cores}

    # ------------------------------------------------------------------
    # private-cache helpers
    # ------------------------------------------------------------------

    def core(self, core_id: int) -> Core:
        """The core object for a global core id (must be in this socket)."""
        return self._cores_by_id[core_id]

    def l2_lookup(self, core: Core, base: int) -> PrivateLine | None:
        """L2 lookup after an L1 miss; promotes a hit into L1."""
        line = core.l2.lookup(base)
        if line is not None:
            victim = core.l1.insert(base, line)
            if victim is not None:
                self._handle_l1_victim(core, victim)
        return line

    def private_line(self, core: Core, addr: int) -> PrivateLine | None:
        """Peek at a private copy without touching LRU state."""
        line = core.l1.lookup(addr, False)
        if line is None:
            line = core.l2.lookup(addr, False)
        return line

    def private_fill(
        self, core: Core, base: int, state: CoherenceState, value: int
    ) -> None:
        """Install a line in the core's L1+L2 in the given state."""
        l1 = core.l1
        line = l1.lookup(base, False)
        if line is not None:
            # L2 is inclusive of L1: the copy is present at both levels.
            line.state = state
            line.value = value
            return
        line = core.l2.lookup(base, False)
        if line is not None:
            line.state = state
            line.value = value
        else:
            line = PrivateLine(base, state, value)
            victim = core.l2.insert(base, line)
            if victim is not None:
                self._handle_l2_victim(core, victim)
        victim = l1.insert(base, line)
        if victim is not None:
            self._handle_l1_victim(core, victim)

    def _drop_holder(self, entry: LlcLine, core_id: int, line: PrivateLine) -> None:
        # Clear a departing holder from the entry, keeping a dirty value.
        entry.core_valid &= ~(1 << core_id)
        if entry.owner == core_id:
            entry.owner = None
        if entry.forwarder == core_id:
            entry.forwarder = None
        if line.state.dirty:
            entry.value = line.value
            entry.dirty = True

    def private_invalidate(self, core: Core, addr: int) -> PrivateLine | None:
        """Drop a core's private copy, updating the directory entry.

        Returns the removed line (carrying the latest value) if present.
        """
        base = addr & ~63  # line_addr inlined (64-byte lines)
        line = core.l1.remove(base)
        line2 = core.l2.remove(base)
        line = line if line is not None else line2
        if line is None:
            return None
        entry = self.directory.get(base)
        if entry is not None:
            self._drop_holder(entry, core.core_id, line)
        return line

    def _handle_l1_victim(self, core: Core, victim: PrivateLine) -> None:
        # The same object still lives in L2 (L2 is inclusive of L1), so
        # state and value remain visible; nothing else to do.  If L2 lost
        # it already, fall back to full-eviction handling.
        if core.l2.lookup(victim.addr, False) is None:
            self._handle_l2_victim(core, victim)

    def _handle_l2_victim(self, core: Core, victim: PrivateLine) -> None:
        # Inclusion: L1 must not outlive L2.
        core.l1.remove(victim.addr)
        entry = self.directory.get(victim.addr)
        if entry is None:
            if victim.state.dirty:
                self.dram[victim.addr] = victim.value
            return
        self._drop_holder(entry, core.core_id, victim)
        self._maybe_collect_entry(victim.addr, entry)

    def _remove_holders(self, entry: LlcLine, base: int) -> tuple[int | None, bool]:
        # Drop every private copy the core-valid bits name; returns the
        # latest value seen (a dirty copy wins) and whether any was dirty.
        latest = entry.value if entry.data_valid else None
        dirty = entry.dirty
        cores = self._cores_by_id
        mask = entry.core_valid
        while mask:
            low = mask & -mask
            mask ^= low
            core = cores.get(low.bit_length() - 1)
            if core is None:
                continue
            line = core.l1.remove(base)
            line2 = core.l2.remove(base)
            line = line if line is not None else line2
            if line is not None:
                if line.state.dirty:
                    latest = line.value
                    dirty = True
                elif latest is None:
                    latest = line.value
        return latest, dirty

    # ------------------------------------------------------------------
    # LLC / directory
    # ------------------------------------------------------------------

    def llc_fill(self, base: int, value: int) -> LlcLine:
        """Create or refresh the directory entry + LLC data for *base*."""
        entry = self.directory.get(base)
        if entry is None:
            entry = LlcLine(base, value)
            self.directory[base] = entry
        else:
            entry.value = value
            # A data-valid entry is resident in the data array (eviction
            # and removal keep the two together).
            if entry.data_valid and base in self.data_array:
                return entry
            entry.data_valid = True
        victim = self.data_array.insert(base, entry)
        if victim is not None and victim.addr != base:
            self._handle_llc_victim(victim)
        return entry

    def _handle_llc_victim(self, victim: LlcLine) -> None:
        if self.inclusive:
            # Back-invalidate every private copy in this socket.
            victim.value, victim.dirty = self._remove_holders(victim, victim.addr)
            victim.core_valid = 0
            victim.owner = None
            victim.forwarder = None
            if victim.dirty:
                self.dram[victim.addr] = victim.value
            self.directory.pop(victim.addr, None)
        else:
            # Non-inclusive: keep a tag-only snoop-filter entry while
            # private copies remain.
            victim.data_valid = False
            self._maybe_collect_entry(victim.addr, victim)

    def _maybe_collect_entry(self, addr: int, entry: LlcLine) -> None:
        if not entry.core_valid and not entry.data_valid:
            if entry.dirty:
                self.dram[addr] = entry.value
            self.directory.pop(addr, None)

    def read(
        self, base: int, requester_id: int | None
    ) -> tuple[int, bool, LlcLine] | None:
        """One directory read transaction (Section VI-A walk).

        *requester_id* is the id of a local requesting core, or ``None``
        when the request arrives from another socket over QPI.  Returns
        ``(value, excl, entry)`` — *excl* is True when the request was
        forwarded to a core's private cache (the exclusive band) and
        False when the LLC answered directly (the shared band) — or
        ``None`` when the socket cannot service the request.
        """
        entry = self.directory.get(base)
        if entry is None:
            return None
        if requester_id is not None:
            # Self-heal: a requester that just missed privately cannot
            # still be a valid sharer.
            entry.core_valid &= ~(1 << requester_id)
            if entry.owner == requester_id:
                entry.owner = None
        owner_id = entry.owner
        if owner_id is not None:
            owner = self._cores_by_id.get(owner_id)
            if owner is None:
                raise CoherenceError(
                    f"directory of socket {self.socket_id} names owner core "
                    f"{owner_id} which is not in this socket"
                )
            owner_line = self.private_line(owner, base)
            if owner_line is None or not owner_line.state.readable:
                raise CoherenceError(
                    f"line {base:#x}: owner core {owner_id} holds no copy"
                )
            value = owner_line.value
            self.policy.on_owner_read_service(entry, owner_line)
            return value, True, entry
        if entry.data_valid:
            self.data_array.lookup(base)  # LRU touch
            return entry.value, False, entry
        mask = entry.core_valid
        if mask:
            # Non-inclusive tag-only entry: forward from the forwarder,
            # else from the lowest-numbered sharer.
            sharer_id = entry.forwarder
            if sharer_id is None or not mask >> sharer_id & 1:
                sharer_id = (mask & -mask).bit_length() - 1
            sharer_line = self.private_line(self._cores_by_id[sharer_id], base)
            if sharer_line is None:
                raise CoherenceError(
                    f"line {base:#x}: sharer {sharer_id} in core-valid bits "
                    "holds no private copy"
                )
            return sharer_line.value, True, entry
        self._maybe_collect_entry(base, entry)
        return None

    def grant_to_local(
        self, entry: LlcLine, core: Core, value: int,
        shared_elsewhere: bool = False,
    ) -> CoherenceState:
        """Register a local core as a sharer and fill its private caches.

        *shared_elsewhere* (another socket holds the line) rules out an
        E grant; see :meth:`ProtocolPolicy.fill_state_for_read`.
        """
        core_id = core.core_id
        entry.core_valid |= 1 << core_id
        previous_forwarder = entry.forwarder
        state = self.policy.fill_state_for_read(entry, core_id, shared_elsewhere)
        if state is CoherenceState.EXCLUSIVE:
            entry.owner = core_id
        elif (
            state is CoherenceState.FORWARD
            and previous_forwarder is not None
            and previous_forwarder != core_id
        ):
            # MESIF: the forwarder role moved to the newest sharer; the
            # previous forwarder drops to plain S.
            old = self._cores_by_id.get(previous_forwarder)
            if old is not None:
                old_line = self.private_line(old, entry.addr)
                if old_line is not None and old_line.state is CoherenceState.FORWARD:
                    old_line.state = CoherenceState.SHARED
        self.private_fill(core, entry.addr, state, value)
        return state

    def invalidate_line(self, base: int) -> tuple[int | None, bool]:
        """Remove the line from this whole domain (clflush semantics).

        Returns (latest_value, was_dirty).
        """
        entry = self.directory.pop(base, None)
        if entry is None:
            return None, False
        self.data_array.remove(base)
        return self._remove_holders(entry, base)
