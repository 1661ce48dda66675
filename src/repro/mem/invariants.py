"""Coherence-invariant checking used by tests and property-based fuzzing.

:func:`check_machine` walks every cache in a :class:`Machine` and raises
:class:`~repro.errors.CoherenceError` when any protocol invariant is
violated.  It is intentionally exhaustive and slow — call it from tests,
not from hot paths.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import CoherenceError
from repro.mem.cacheline import CoherenceState, line_addr
from repro.mem.hierarchy import Machine


def _private_holders(machine: Machine) -> dict[int, list[tuple[int, CoherenceState]]]:
    """Map line addr -> [(core_id, state)] over all private caches."""
    holders: dict[int, list[tuple[int, CoherenceState]]] = defaultdict(list)
    for domain in machine.sockets:
        for core in domain.cores:
            seen: set[int] = set()
            for cache in (core.l1, core.l2):
                for line in cache.lines():
                    if line.addr in seen:
                        continue
                    seen.add(line.addr)
                    holders[line.addr].append((core.core_id, line.state))
    return holders


def check_machine(machine: Machine) -> None:
    """Verify every coherence invariant; raise CoherenceError on breach.

    Checked invariants:

    * **SWMR**: at most one core holds a line in M or E, and if one does,
      no other core holds it at all (single-writer / multiple-reader).
    * **MOESI-O**: at most one O holder; co-holders must be in S.
    * **L1/L2 inclusion**: every L1-resident line is L2-resident.
    * **Directory precision**: a socket's core-valid bits equal the set of
      its cores privately holding the line, and ``owner`` points at a core
      actually holding a forwardable (E/M/O) copy.
    * **Holder records**: every private holder is recorded where
      :meth:`Machine.private_states` looks for it — its bit in its
      socket's core-valid set (snoop backends) or in the home entry's
      sharer mask (directory backend).
    * **LLC inclusion** (inclusive snoop mode): a private copy implies a
      data-valid LLC entry in the same socket.
    * **Value coherence**: all clean private copies of a line agree with
      the LLC copy.
    """
    holders = _private_holders(machine)

    for addr, entries in holders.items():
        states = [state for _core, state in entries]
        strong = [s for s in states if s.sole_copy]
        if strong and len(entries) > 1:
            raise CoherenceError(
                f"line {addr:#x}: {strong[0].value} copy coexists with "
                f"{len(entries) - 1} other private copies"
            )
        if len(strong) > 1:
            raise CoherenceError(f"line {addr:#x}: multiple M/E copies")
        owned = [s for s in states if s is CoherenceState.OWNED]
        if len(owned) > 1:
            raise CoherenceError(f"line {addr:#x}: multiple O copies")
        if owned:
            others = [s for s in states if s is not CoherenceState.OWNED]
            bad = [s for s in others if s not in (CoherenceState.SHARED,
                                                  CoherenceState.FORWARD)]
            if bad:
                raise CoherenceError(
                    f"line {addr:#x}: O coexists with {bad[0].value}"
                )

    directory_mode = machine.config.coherence == "directory"
    for addr, entries in holders.items():
        for core_id, _state in entries:
            if directory_mode:
                entry = machine.home_directory.get(addr)
                recorded = entry is not None and entry.sharers >> core_id & 1
                record = "home sharer mask"
            else:
                entry = machine.socket_of(core_id).directory.get(addr)
                recorded = entry is not None and core_id in entry.core_valid
                record = "socket core-valid bits"
            if not recorded:
                raise CoherenceError(
                    f"line {addr:#x}: core {core_id} holds a private copy "
                    f"missing from the {record}"
                )

    for domain in machine.sockets:
        for core in domain.cores:
            for line in core.l1.lines():
                if core.l2.lookup(line.addr, touch=False) is None:
                    raise CoherenceError(
                        f"core {core.core_id}: line {line.addr:#x} in L1 "
                        "but not in L2 (inclusion violated)"
                    )

        for addr, entry in domain.directory.items():
            actual = set()
            for core in domain.cores:
                if domain.private_line(core, addr) is not None:
                    actual.add(core.core_id)
            if entry.core_valid != actual:
                raise CoherenceError(
                    f"socket {domain.socket_id} line {addr:#x}: core-valid "
                    f"bits {sorted(entry.core_valid)} != actual holders "
                    f"{sorted(actual)}"
                )
            if entry.owner is not None:
                if entry.owner not in actual:
                    raise CoherenceError(
                        f"socket {domain.socket_id} line {addr:#x}: owner "
                        f"{entry.owner} holds no private copy"
                    )
                owner_core = domain.core(entry.owner)
                owner_line = domain.private_line(owner_core, addr)
                if owner_line.state in (CoherenceState.SHARED,
                                        CoherenceState.INVALID):
                    raise CoherenceError(
                        f"socket {domain.socket_id} line {addr:#x}: owner "
                        f"holds non-forwardable state {owner_line.state.value}"
                    )

        # The directory backend keeps no per-socket LLC entries.
        if domain.inclusive and not directory_mode:
            for core in domain.cores:
                seen = set()
                for cache in (core.l1, core.l2):
                    for line in cache.lines():
                        seen.add(line.addr)
                for addr in seen:
                    entry = domain.directory.get(addr)
                    if entry is None or not entry.data_valid:
                        raise CoherenceError(
                            f"socket {domain.socket_id} core {core.core_id}: "
                            f"private copy of {addr:#x} without an "
                            "LLC-resident entry (inclusion violated)"
                        )

        # Value coherence: clean private copies agree with the LLC copy.
        for addr, entry in domain.directory.items():
            if not entry.data_valid:
                continue
            for core in domain.cores:
                line = domain.private_line(core, addr)
                if line is None or line.state.dirty:
                    continue
                if entry.owner is not None:
                    # LLC copy may be stale while an owner exists.
                    continue
                if line.value != entry.value:
                    raise CoherenceError(
                        f"line {addr:#x}: clean private value {line.value} "
                        f"!= LLC value {entry.value}"
                    )


def check_transition_events(events) -> None:
    """Validate recorded coherence-transition events against MESI law.

    *events* is an iterable of ``repro.obs`` ``TraceEvent`` records (or
    plain mappings with the same ``data`` payload) of category
    ``"coherence"``, as emitted by ``MachineTap``.  Each event carries
    the complete post-transition private-state map of the affected line
    (``data["states"]``: core id -> state value) plus the per-core
    ``data["changed"]`` triples, so every snapshot can be checked
    independently:

    * **SWMR** per snapshot: at most one M/E copy, and a sole-copy state
      never coexists with other holders; at most one O copy, and O only
      coexists with S/F.
    * ``changed`` consistency: each ``[core, src, dst]`` triple must be a
      genuine change and its destination must match the snapshot.

    Snapshots are *not* required to chain into one another: victim
    evictions of unrelated lines are untraced by design, so a core can
    legitimately appear to drop a line between two recorded events.

    Raises :class:`~repro.errors.CoherenceError` on the first violation.
    """
    for index, event in enumerate(events):
        data = event.data if hasattr(event, "data") else event["data"]
        line = data.get("line", -1)
        states = {
            int(core_id): CoherenceState(value)
            for core_id, value in data["states"].items()
        }
        values = list(states.values())
        strong = [s for s in values if s.sole_copy]
        if strong and len(values) > 1:
            raise CoherenceError(
                f"event {index} line {line:#x}: {strong[0].value} copy "
                f"coexists with {len(values) - 1} other private copies"
            )
        if len(strong) > 1:
            raise CoherenceError(
                f"event {index} line {line:#x}: multiple M/E copies"
            )
        owned = [s for s in values if s is CoherenceState.OWNED]
        if len(owned) > 1:
            raise CoherenceError(
                f"event {index} line {line:#x}: multiple O copies"
            )
        if owned:
            bad = [
                s for s in values
                if s not in (CoherenceState.OWNED, CoherenceState.SHARED,
                             CoherenceState.FORWARD)
            ]
            if bad:
                raise CoherenceError(
                    f"event {index} line {line:#x}: O coexists with "
                    f"{bad[0].value}"
                )
        for core_id, src, dst in data.get("changed", ()):
            if src == dst:
                raise CoherenceError(
                    f"event {index} line {line:#x}: core {core_id} recorded "
                    f"a no-op transition {src}->{dst}"
                )
            recorded = states.get(int(core_id), CoherenceState.INVALID)
            if recorded.value != dst:
                raise CoherenceError(
                    f"event {index} line {line:#x}: core {core_id} "
                    f"transition lands in {dst} but snapshot shows "
                    f"{recorded.value}"
                )


def walk_private_states(machine: Machine, paddr: int) -> dict[int, CoherenceState]:
    """Private state of one line per holding core, peeking every core.

    The exhaustive reference for :meth:`Machine.private_states`, which
    peeks only the cores the coherence backend records as holders.
    """
    base = line_addr(paddr)
    states: dict[int, CoherenceState] = {}
    for domain in machine.sockets:
        for core in domain.cores:
            line = domain.private_line(core, base)
            if line is not None:
                states[core.core_id] = line.state
    return states


def check_line(machine: Machine, paddr: int) -> None:
    """Check the invariants relevant to one line (cheaper than full walk)."""
    states = walk_private_states(machine, paddr)
    strong = [s for s in states.values() if s.sole_copy]
    if strong and len(states) > 1:
        raise CoherenceError(
            f"line {line_addr(paddr):#x}: sole-copy state with "
            f"{len(states)} holders"
        )
