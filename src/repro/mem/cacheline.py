"""Cache line records and coherence states.

Private (per-core) caches hold :class:`PrivateLine` records with a MESI
(optionally MESIF/MOESI) state.  The shared, inclusive LLC holds
:class:`LlcLine` records which double as the directory: they carry the
core-valid-bits vector and the "exclusive granted" flag that Section VI
of the paper describes driving the E-vs-S service-path difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

LINE_SIZE = 64
LINE_SHIFT = 6


def line_addr(addr: int) -> int:
    """Align *addr* down to its cache-line base address."""
    return addr & ~(LINE_SIZE - 1)


class CoherenceState(enum.Enum):
    """Private-cache coherence states (MESI plus the F/O extensions).

    Each member carries four plain attributes the access paths read on
    every fill, hit and write-back:

    * ``readable``: a core holding it may read without a request;
    * ``writable``: a core holding it may write without a request;
    * ``dirty``: the copy may differ from the LLC/DRAM copy;
    * ``sole_copy``: the protocol guarantees no other private copy.
    """

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"
    FORWARD = "F"   # MESIF: designated forwarder among sharers
    OWNED = "O"     # MOESI: dirty line shared with other caches

    def __init__(self, code: str) -> None:
        self.readable = code != "I"
        self.writable = code == "M"
        self.dirty = code in ("M", "O")
        self.sole_copy = code in ("M", "E")


def bit_ids(mask: int) -> list[int]:
    """The core ids whose bit is set in *mask*, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(slots=True)
class PrivateLine:
    """One line in a private (L1/L2) cache.

    Slotted: fills and state transitions allocate/mutate these on every
    cache miss, and slot access skips the per-instance dict.  *addr* is
    the line's base address; every caller passes it aligned.
    """

    addr: int
    state: CoherenceState
    value: int = 0


@dataclass(slots=True)
class LlcLine:
    """One line in the shared LLC, including its directory metadata.

    Attributes
    ----------
    addr:
        Line base address (callers pass it aligned).
    core_valid:
        Bitmask over the global core ids whose private hierarchy holds
        the line (the paper's core-valid-bits vector; bit ``1 << id``),
        the representation the directory backend's sharer mask uses.
    owner:
        Core id that must service read misses for this line (a core
        holding it in E/M, or O under MOESI); ``None`` when the LLC can
        answer directly.  A non-None owner is what creates the E-state
        latency band of Section VI.
    forwarder:
        MESIF only: the sharer designated to forward the line.
    data_valid:
        Whether the LLC actually holds the data (always True for an
        inclusive LLC; False for tag-only directory entries in the
        non-inclusive variant).
    dirty:
        LLC copy differs from DRAM (must be written back on eviction).
    """

    addr: int
    value: int = 0
    core_valid: int = 0
    owner: int | None = None
    forwarder: int | None = None
    data_valid: bool = True
    dirty: bool = False
