"""Behavioral tests for the coherence protocol (Section VI semantics)."""

import pytest

from repro.mem.cacheline import CoherenceState, LINE_SIZE
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import check_machine
from repro.mem.latency import NoiseModel
from repro.sim.events import AccessPath

ADDR = 0x80_0000


@pytest.fixture
def m(rng):
    config = MachineConfig(noise=NoiseModel(enabled=False))
    return Machine(config, rng)


def test_first_load_fills_exclusive_from_dram(m):
    _v, _lat, path = m.load(1, ADDR)
    assert path is AccessPath.DRAM
    assert m.private_state(1, ADDR) is CoherenceState.EXCLUSIVE
    entry = m.llc_entry(0, ADDR)
    assert entry.core_valid == {1}
    assert entry.owner == 1
    check_machine(m)


def test_second_core_load_downgrades_owner_to_shared(m):
    m.load(1, ADDR)
    _v, _lat, path = m.load(0, ADDR)
    assert path is AccessPath.LOCAL_EXCL
    assert m.private_state(0, ADDR) is CoherenceState.SHARED
    assert m.private_state(1, ADDR) is CoherenceState.SHARED
    assert m.llc_entry(0, ADDR).owner is None
    assert m.llc_entry(0, ADDR).core_valid == {0, 1}
    check_machine(m)


def test_third_core_served_by_llc(m):
    m.load(1, ADDR)
    m.load(2, ADDR)
    _v, _lat, path = m.load(0, ADDR)
    assert path is AccessPath.LOCAL_SHARED
    check_machine(m)


def test_own_cache_hits(m):
    m.load(1, ADDR)
    _v, _lat, path = m.load(1, ADDR)
    assert path is AccessPath.L1_HIT


def test_llc_hit_after_private_eviction_grants_exclusive(m):
    """popcount==0 with a clean LLC copy: LLC serves, grants E."""
    m.load(1, ADDR)
    domain = m.socket_of(1)
    domain.private_invalidate(domain.core(1), ADDR)  # silent-drop the copy
    _v, _lat, path = m.load(2, ADDR)
    assert path is AccessPath.LOCAL_SHARED  # same latency band as S
    assert m.private_state(2, ADDR) is CoherenceState.EXCLUSIVE
    check_machine(m)


def test_remote_exclusive_path(m):
    m.load(6, ADDR)  # socket 1
    _v, _lat, path = m.load(0, ADDR)  # socket 0
    assert path is AccessPath.REMOTE_EXCL
    # remote owner downgraded; line now shared across sockets
    assert m.private_state(6, ADDR) is CoherenceState.SHARED
    assert m.private_state(0, ADDR) is CoherenceState.SHARED
    check_machine(m)


def test_remote_shared_path(m):
    m.load(6, ADDR)
    m.load(7, ADDR)
    _v, _lat, path = m.load(0, ADDR)
    assert path is AccessPath.REMOTE_SHARED
    check_machine(m)


def test_flush_removes_everywhere(m):
    m.load(0, ADDR)
    m.load(6, ADDR)
    m.flush(3, ADDR)
    for core in (0, 6):
        assert m.private_state(core, ADDR) is CoherenceState.INVALID
    assert m.llc_entry(0, ADDR) is None
    assert m.llc_entry(1, ADDR) is None
    _v, _lat, path = m.load(0, ADDR)
    assert path is AccessPath.DRAM
    check_machine(m)


def test_store_acquires_modified(m):
    m.load(0, ADDR)
    m.store(0, ADDR, 42)
    assert m.private_state(0, ADDR) is CoherenceState.MODIFIED
    check_machine(m)


def test_store_invalidates_other_sharers(m):
    m.load(0, ADDR)
    m.load(1, ADDR)
    m.load(6, ADDR)
    m.store(2, ADDR, 7)
    for core in (0, 1, 6):
        assert m.private_state(core, ADDR) is CoherenceState.INVALID
    assert m.private_state(2, ADDR) is CoherenceState.MODIFIED
    check_machine(m)


def test_store_value_visible_to_readers(m):
    m.store(0, ADDR, 99)
    value, _lat, _path = m.load(6, ADDR)
    assert value == 99
    check_machine(m)


def test_dirty_value_survives_flush(m):
    m.store(0, ADDR, 123)
    m.flush(0, ADDR)
    value, _lat, path = m.load(1, ADDR)
    assert value == 123
    assert path is AccessPath.DRAM


def test_write_hit_in_modified_is_cheap(m):
    m.store(0, ADDR, 1)
    latency, path = m.store(0, ADDR, 2)
    assert path is AccessPath.L1_HIT
    value, _lat, _p = m.load(0, ADDR)
    assert value == 2


def test_modified_owner_services_reads(m):
    m.store(1, ADDR, 5)
    value, _lat, path = m.load(0, ADDR)
    assert value == 5
    assert path is AccessPath.LOCAL_EXCL  # forwarded from the M owner
    check_machine(m)


def test_core_valid_bits_track_private_evictions(m):
    """Filling many lines of the same L2 set evicts and clears cvb."""
    m.load(1, ADDR)
    cfg = m.config
    way_stride = cfg.l2_sets * LINE_SIZE
    # Overfill the L2 set that ADDR maps to.
    for way in range(cfg.l2_assoc + 2):
        m.load(1, ADDR + (way + 1) * way_stride)
    entry = m.llc_entry(0, ADDR)
    if entry is not None:
        assert 1 not in entry.core_valid or \
            m.private_state(1, ADDR) is not CoherenceState.INVALID
    check_machine(m)


def test_llc_eviction_back_invalidates(m):
    """Inclusive LLC: evicting the LLC line drops private copies too."""
    m.load(1, ADDR)
    cfg = m.config
    way_stride = cfg.llc_sets * LINE_SIZE
    for way in range(cfg.llc_assoc + 4):
        m.load(2, ADDR + (way + 1) * way_stride)
    # ADDR's set received llc_assoc+4 new lines; ADDR must be gone and
    # core 1's private copy back-invalidated with it.
    assert m.llc_entry(0, ADDR) is None
    assert m.private_state(1, ADDR) is CoherenceState.INVALID
    check_machine(m)


def test_latency_bands_are_ordered(m):
    lat = {}
    m.flush(0, ADDR)
    m.load(1, ADDR)
    _v, lat["local_excl"], _p = m.load(0, ADDR)
    m.flush(0, ADDR)
    m.load(1, ADDR)
    m.load(2, ADDR)
    _v, lat["local_shared"], _p = m.load(0, ADDR)
    m.flush(0, ADDR)
    m.load(6, ADDR)
    _v, lat["remote_excl"], _p = m.load(0, ADDR)
    m.flush(0, ADDR)
    m.load(6, ADDR)
    m.load(7, ADDR)
    _v, lat["remote_shared"], _p = m.load(0, ADDR)
    m.flush(0, ADDR)
    _v, lat["dram"], _p = m.load(0, ADDR)
    assert (lat["local_shared"] < lat["local_excl"]
            < lat["remote_shared"] < lat["remote_excl"] < lat["dram"])


def test_global_coherence_state(m):
    assert m.global_coherence_state(ADDR) is CoherenceState.INVALID
    m.load(0, ADDR)
    assert m.global_coherence_state(ADDR) is CoherenceState.EXCLUSIVE
    m.load(1, ADDR)
    assert m.global_coherence_state(ADDR) is CoherenceState.SHARED
    m.store(0, ADDR, 1)
    assert m.global_coherence_state(ADDR) is CoherenceState.MODIFIED


def test_llc_direct_e_response_merges_bands(rng):
    config = MachineConfig(
        noise=NoiseModel(enabled=False), llc_direct_e_response=True
    )
    m = Machine(config, rng)
    m.load(1, ADDR)
    _v, lat_e, path = m.load(0, ADDR)
    assert path is AccessPath.LOCAL_EXCL
    assert lat_e == pytest.approx(m.config.latency.local_shared, abs=1.0)


@pytest.mark.parametrize("protocol", ["mesi", "mesif", "moesi"])
@pytest.mark.parametrize("evicter, reloader, keeper", [(7, 8, 1), (1, 2, 7)])
def test_llc_refill_after_private_eviction_keeps_swmr(
    rng, protocol, evicter, reloader, keeper
):
    """A socket's LLC copy with no local holder must not grant E while
    the other socket still holds the line."""
    m = Machine(MachineConfig(noise=NoiseModel(enabled=False),
                              protocol=protocol), rng)
    m.load(1, ADDR)                      # socket 0: E
    m.load(7, ADDR)                      # socket 1 copies it; both S
    # The evicter drops its copy; its socket's LLC keeps a data-valid
    # entry, which then serves the reloader in the same socket.
    m.socket_of(evicter).private_invalidate(m.core(evicter), ADDR)
    m.load(reloader, ADDR)
    assert m.private_state(keeper, ADDR) is CoherenceState.SHARED
    assert not m.private_state(reloader, ADDR).sole_copy
    check_machine(m)
