"""Home-node directory backend: entry semantics + machine request paths.

Covers the two satellite units the scenario matrix leans on:

* :meth:`DirectoryEntry.owner` extraction from the sharer bitmask,
  including the degenerate masks (empty, multi-bit) a conservative
  directory must tolerate;
* the true-LRU promote-on-probe encoding the LRU channel modulates —
  an MRU-promoted line survives a probe sweep that evicts everything
  else, which is exactly the one-bit signal the spy times.
"""

import pytest

from repro.channel.config import LCOLD, LMRU
from repro.errors import CoherenceError
from repro.mem.cache import SetAssocCache
from repro.mem.directory import DirectoryEntry, DirectoryState
from repro.mem.hierarchy import AccessPath, Machine, MachineConfig
from repro.mem.invariants import check_machine
from repro.mem.latency import NoiseModel
from repro.sim.rng import RngStreams

LINE = 64


# -- DirectoryEntry.owner() edge cases --------------------------------


def test_owner_none_for_ownerless_states():
    entry = DirectoryEntry(addr=0)
    assert entry.owner() is None                     # UNCACHED
    entry.state = DirectoryState.SHARED
    entry.add_sharer(3)
    entry.add_sharer(5)
    assert entry.owner() is None                     # home answers itself


@pytest.mark.parametrize(
    "state", [DirectoryState.EXCLUSIVE, DirectoryState.MODIFIED]
)
def test_owner_is_single_sharer_bit(state):
    entry = DirectoryEntry(addr=0, state=state)
    entry.add_sharer(6)
    assert entry.owner() == 6


@pytest.mark.parametrize(
    "state", [DirectoryState.EXCLUSIVE, DirectoryState.MODIFIED]
)
def test_owner_none_on_empty_mask(state):
    # Stale entry: the owner's copy was silently evicted and the bit
    # already healed away.  No core can service; fall back to home.
    entry = DirectoryEntry(addr=0, state=state)
    assert entry.owner() is None


@pytest.mark.parametrize(
    "state", [DirectoryState.EXCLUSIVE, DirectoryState.MODIFIED]
)
def test_owner_none_on_multibit_mask(state):
    # A multi-bit mask under E/M means the exclusivity invariant broke;
    # trusting either bit would forward to a core that may not serve.
    entry = DirectoryEntry(addr=0, state=state)
    entry.add_sharer(1)
    entry.add_sharer(4)
    assert entry.owner() is None


def test_owned_state_uses_explicit_owner_id():
    # O legitimately has several sharer bits; the mask cannot name the
    # dirty owner, so the explicit field must win.
    entry = DirectoryEntry(addr=0, state=DirectoryState.OWNED, owner_id=2)
    entry.add_sharer(2)
    entry.add_sharer(7)
    assert entry.owner() == 2
    entry.owner_id = None
    assert entry.owner() is None


def test_sharer_mask_bookkeeping():
    entry = DirectoryEntry(addr=0)
    for core in (9, 1, 4):
        entry.add_sharer(core)
    entry.add_sharer(4)  # idempotent
    assert entry.sharer_ids() == [1, 4, 9]
    assert entry.sharer_count == 3
    entry.drop_sharer(4)
    entry.drop_sharer(4)  # no-op on a cleared bit
    assert entry.sharer_ids() == [1, 9]


# -- machine request paths (coherence="directory") --------------------


def directory_machine():
    return Machine(
        MachineConfig(coherence="directory",
                      noise=NoiseModel(enabled=False)),
        RngStreams(0),
    )


def test_home_entry_lifecycle():
    machine = directory_machine()
    addr = 0x300_0000
    machine.load(0, addr, now=0.0)
    entry = machine.home_directory[addr]
    assert entry.state is DirectoryState.EXCLUSIVE
    assert entry.owner() == 0
    # A second reader demotes the clean owner; home takes over service.
    machine.load(4, addr, now=100.0)
    assert entry.state is DirectoryState.SHARED
    assert entry.owner() is None
    assert entry.sharer_count == 2


def test_stale_owner_heals_to_home_service():
    machine = directory_machine()
    addr = 0x300_0000
    machine.load(0, addr, now=0.0)
    entry = machine.home_directory[addr]
    assert entry.owner() == 0
    # Silently drop the owner's private copies (models eviction) while
    # leaving the home entry stale: the next consult must heal it
    # instead of forwarding nowhere.
    machine.sockets[0].private_invalidate(machine.cores[0], addr)
    value, _latency, path = machine.load(4, addr, now=100.0)
    # The stale bit is healed away; with no live copy left anywhere the
    # home falls through to a fresh memory fill and re-grants E.
    assert path is AccessPath.DRAM
    assert entry.state is DirectoryState.EXCLUSIVE
    assert entry.owner() == 4
    assert 0 not in entry.sharer_ids()


def test_flush_returns_line_to_memory_fill():
    machine = directory_machine()
    addr = 0x300_0000
    machine.store(0, addr, 42, now=0.0)
    machine.flush(0, addr, now=100.0)
    value, _latency, path = machine.load(4, addr, now=200.0)
    assert value == 42          # dirty data survived the flush
    assert path is AccessPath.DRAM


def test_check_machine_accepts_stale_sharer_bits():
    machine = directory_machine()
    addr = 0x300_0000
    machine.load(0, addr, now=0.0)
    machine.load(4, addr, now=100.0)
    check_machine(machine)
    # A silent private eviction leaves a stale bit: still coherent.
    machine.sockets[0].private_invalidate(machine.cores[0], addr)
    check_machine(machine)


def test_check_machine_flags_holder_missing_from_sharer_mask():
    machine = directory_machine()
    addr = 0x300_0000
    machine.load(0, addr, now=0.0)
    machine.load(4, addr, now=100.0)
    machine.home_directory[addr].drop_sharer(4)
    with pytest.raises(CoherenceError, match="home sharer mask"):
        check_machine(machine)


# -- LRU-order probe encoding -----------------------------------------


def probe_sweep(cache, set_index, start=0x900_0000, count=None):
    """Insert `count` fresh conflicting lines (the spy's eviction probe)."""
    count = cache.assoc if count is None else count
    for i in range(count):
        addr = start + (set_index * LINE) + i * (cache.n_sets * LINE)
        cache.insert(addr, object())


def test_probe_promotes_line_to_mru():
    cache = SetAssocCache("llc", n_sets=4, assoc=4, )
    base = 0x800_0000  # set 0
    conflicts = [base + i * 4 * LINE for i in range(1, 4)]
    cache.insert(base, "B")
    for addr in conflicts:
        cache.insert(addr, object())
    # B is now LRU; a probe (lookup) must move it to the MRU end, so the
    # next insertion evicts the oldest *conflict*, not B.
    assert cache.lookup(base) == "B"
    cache.insert(base + 16 * 4 * LINE, object())
    assert base in cache
    assert conflicts[0] not in cache


def test_mru_symbol_survives_partial_sweep_cold_does_not():
    """The LRU channel's two symbols, at the replacement-state level.

    MRU symbol: the trojan re-touches the block while the spy sweeps
    ``assoc - 1`` conflicting ways, so the block stays resident and the
    timed reload hits.  COLD symbol: the trojan idles, the same sweep
    reaches the block's slot and the reload misses (DRAM band).
    """
    for touched, survives in ((True, True), (False, False)):
        cache = SetAssocCache("llc", n_sets=4, assoc=4)
        base = 0x800_0000
        cache.insert(base, "B")
        # age B behind one conflicting line
        cache.insert(base + 4 * LINE * 4, object())
        if touched:
            cache.lookup(base)  # trojan holds B at the MRU end
        probe_sweep(cache, 0, count=3)
        assert (base in cache) is survives


def test_full_sweep_always_evicts():
    # The spy's *flush* sweep covers every way: even an MRU block goes.
    cache = SetAssocCache("llc", n_sets=4, assoc=4)
    base = 0x800_0000
    cache.insert(base, "B")
    cache.lookup(base)
    probe_sweep(cache, 0)
    assert base not in cache


def test_mru_cold_pairs_map_to_expected_bands():
    # The spy decodes by band: a held (MRU) block services from the
    # holder's cache (E band); a swept (COLD) block refills from DRAM.
    assert LMRU.expected_path is AccessPath.LOCAL_EXCL
    assert LCOLD.expected_path is AccessPath.DRAM
