"""Coherence protocol variants: MESI (default), MESIF and MOESI.

The paper evaluates Intel's MESIF and notes AMD's MOESI, observing that
the F and O states "simply serve to improve performance, and do not
fundamentally add new functionality" (Section II-B).  The policies below
capture exactly the behaviours that differ between the variants:

* what state a read fill receives when other sharers exist,
* what happens to an owner's dirty line when it services a read
  (MESI/MESIF write back to the LLC; MOESI keeps the dirty line in O and
  continues to service reads itself).

Everything else — the directory walk, the E-vs-S service paths the covert
channel exploits — is variant-independent, which is how the paper's
attack generalizes across vendors.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.cacheline import CoherenceState, LlcLine, PrivateLine


class ProtocolPolicy:
    """Hook points where the protocol variants differ."""

    name = "abstract"
    has_forward_state = False
    has_owned_state = False

    def fill_state_for_read(
        self, entry: LlcLine, requester: int, shared_elsewhere: bool = False
    ) -> CoherenceState:
        """State granted to *requester* on a read fill.

        Called after the requester has been added to ``entry.core_valid``.
        *shared_elsewhere* says another socket still holds the line, so
        this socket's copy is not the sole one even with no local sharer.
        """
        if (
            not shared_elsewhere
            and entry.core_valid == 1 << requester
            and (entry.owner is None or entry.owner == requester)
        ):
            return CoherenceState.EXCLUSIVE
        return CoherenceState.SHARED

    def on_owner_read_service(
        self, entry: LlcLine, owner_line: PrivateLine
    ) -> None:
        """Downgrade the owner after it serviced another core's read.

        MESI semantics: the owner drops to S and writes the latest value
        back to the LLC, leaving a clean copy for future read misses
        (Section VI-A); the directory stops forwarding to it.
        """
        entry.value = owner_line.value
        if owner_line.state.dirty:
            entry.dirty = True
        owner_line.state = CoherenceState.SHARED
        entry.owner = None

    def validate(self) -> None:
        """Sanity-check the policy object (subclasses may extend)."""


class MesiPolicy(ProtocolPolicy):
    """Plain MESI: the baseline protocol of Section II-B."""

    name = "mesi"


class MesifPolicy(ProtocolPolicy):
    """MESIF (Intel): one sharer is designated the forwarder (F).

    The most recent requester receives F; the previous forwarder drops to
    plain S.  Timing is identical to MESI for every path the covert
    channel uses — the F state matters only for which cache responds to
    cross-socket snoops, not for whether the LLC can respond.
    """

    name = "mesif"
    has_forward_state = True

    def fill_state_for_read(
        self, entry: LlcLine, requester: int, shared_elsewhere: bool = False
    ) -> CoherenceState:
        state = super().fill_state_for_read(entry, requester, shared_elsewhere)
        if state is CoherenceState.SHARED:
            entry.forwarder = requester
            return CoherenceState.FORWARD
        return state


class MoesiPolicy(ProtocolPolicy):
    """MOESI (AMD): a dirty owner keeps the line in O and keeps serving.

    Avoids the write-back to the LLC/memory when a modified block becomes
    shared; the directory keeps forwarding read misses to the owner, so
    dirty-shared lines stay in the cache-to-cache (E-band) latency class.
    Clean E lines downgrade to S exactly as in MESI, which is why the
    paper's read-only covert channel is unaffected by the O state.
    """

    name = "moesi"
    has_owned_state = True

    def on_owner_read_service(
        self, entry: LlcLine, owner_line: PrivateLine
    ) -> None:
        if owner_line.state.dirty:
            # Keep servicing from the owner; no LLC write-back.
            owner_line.state = CoherenceState.OWNED
            entry.value = owner_line.value
            return
        super().on_owner_read_service(entry, owner_line)


#: The protocol registry: name -> policy class.  This is the single
#: dispatch point for protocol selection — the ``--protocol`` CLI flag,
#: :class:`repro.channel.scenarios.ScenarioSpec` and
#: :class:`repro.mem.hierarchy.MachineConfig` all validate against it,
#: mirroring how drivers register in ``repro.experiments.REGISTRY``.
PROTOCOLS: dict[str, type[ProtocolPolicy]] = {
    "mesi": MesiPolicy,
    "mesif": MesifPolicy,
    "moesi": MoesiPolicy,
}


def make_policy(name: str) -> ProtocolPolicy:
    """Instantiate the registered protocol policy called *name*.

    Case-insensitive.  Unknown names raise :class:`ConfigError` listing
    the registered choices.
    """
    try:
        policy_cls = PROTOCOLS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(sorted(PROTOCOLS))}"
        ) from None
    policy = policy_cls()
    policy.validate()
    return policy
