"""Tests for the set-associative LRU cache container."""

import pickle
from dataclasses import replace

import pytest

from repro.channel.session import ChannelSession, SessionConfig, clear_warm_state
from repro.checkpoint.core import capture, restore
from repro.errors import ConfigError
from repro.mem.cache import EMPTY_SET, SetAssocCache
from repro.mem.cacheline import LINE_SIZE, line_addr
from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.rng import RngStreams


def make_cache(n_sets=4, assoc=2):
    return SetAssocCache("test", n_sets, assoc)


def addr_for_set(cache, set_index, way):
    """An address mapping to *set_index*, distinct per *way*."""
    return (way * cache.n_sets + set_index) * LINE_SIZE


def test_geometry_validation():
    with pytest.raises(ConfigError):
        SetAssocCache("bad", 3, 2)  # not a power of two
    with pytest.raises(ConfigError):
        SetAssocCache("bad", 4, 0)


def test_capacity():
    assert make_cache(8, 4).capacity_lines == 32


def test_insert_and_lookup():
    cache = make_cache()
    cache.insert(0x100, "record")
    assert cache.lookup(0x100) == "record"
    assert cache.lookup(0x123) == "record"  # same line
    assert 0x100 in cache


def test_miss_returns_none():
    cache = make_cache()
    assert cache.lookup(0x100) is None


def test_line_alignment():
    assert line_addr(0x1234) == 0x1200
    assert line_addr(0x1240) == 0x1240


def test_lru_eviction_order():
    cache = make_cache(n_sets=1, assoc=2)
    cache.insert(0 * LINE_SIZE, "a")
    cache.insert(1 * LINE_SIZE, "b")
    victim = cache.insert(2 * LINE_SIZE, "c")
    assert victim == "a"


def test_lookup_refreshes_lru():
    cache = make_cache(n_sets=1, assoc=2)
    cache.insert(0 * LINE_SIZE, "a")
    cache.insert(1 * LINE_SIZE, "b")
    cache.lookup(0)  # refresh "a"
    victim = cache.insert(2 * LINE_SIZE, "c")
    assert victim == "b"


def test_no_touch_lookup_preserves_lru():
    cache = make_cache(n_sets=1, assoc=2)
    cache.insert(0 * LINE_SIZE, "a")
    cache.insert(1 * LINE_SIZE, "b")
    cache.lookup(0, touch=False)
    victim = cache.insert(2 * LINE_SIZE, "c")
    assert victim == "a"


def test_reinsert_same_line_no_eviction():
    cache = make_cache(n_sets=1, assoc=2)
    cache.insert(0, "a")
    cache.insert(LINE_SIZE, "b")
    victim = cache.insert(0, "a2")
    assert victim is None
    assert cache.lookup(0) == "a2"


def test_remove():
    cache = make_cache()
    cache.insert(0x200, "x")
    assert cache.remove(0x200) == "x"
    assert cache.remove(0x200) is None
    assert cache.lookup(0x200) is None


def test_set_isolation():
    cache = make_cache(n_sets=4, assoc=1)
    for s in range(4):
        cache.insert(addr_for_set(cache, s, 0), f"s{s}")
    for s in range(4):
        assert cache.lookup(addr_for_set(cache, s, 0)) == f"s{s}"


def test_occupancy_and_lines():
    cache = make_cache()
    cache.insert(0, "a")
    cache.insert(LINE_SIZE, "b")
    assert cache.occupancy() == 2
    assert set(cache.lines()) == {"a", "b"}


def test_clear():
    cache = make_cache()
    cache.insert(0, "a")
    cache.clear()
    assert cache.occupancy() == 0


def test_set_index_within_range():
    cache = make_cache(n_sets=16, assoc=2)
    for addr in range(0, 65536, 4096 + LINE_SIZE):
        assert 0 <= cache.set_index(addr) < 16


# -- sets allocated on first fill ----------------------------------------

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]


def allocated_sets(machine: Machine) -> int:
    """How many of *machine*'s cache sets hold a bucket of their own."""
    caches = [cache for core in machine.cores for cache in (core.l1, core.l2)]
    caches += [domain.data_array for domain in machine.sockets]
    return sum(bucket is not EMPTY_SET
               for cache in caches for bucket in cache._sets)


@pytest.fixture
def cold():
    clear_warm_state()
    yield
    clear_warm_state()


def test_unfilled_sets_share_the_empty_bucket():
    cache = make_cache(n_sets=4, assoc=2)
    assert all(bucket is EMPTY_SET for bucket in cache._sets)
    assert cache.lookup(0) is None and cache.remove(0) is None
    cache.insert(addr_for_set(cache, 1, 0), "a")
    assert [bucket is EMPTY_SET for bucket in cache._sets] == [
        True, False, True, True]
    assert len(EMPTY_SET) == 0
    sets = cache._sets
    cache.clear()
    assert cache._sets is sets  # drivers hold the list across a run
    assert all(bucket is EMPTY_SET for bucket in cache._sets)


def test_restore_puts_empty_sets_back_on_the_shared_bucket():
    cache = make_cache(n_sets=2, assoc=2)
    cache.restore([[], [(LINE_SIZE, "b"), (3 * LINE_SIZE, "d")]])
    assert cache._sets[0] is EMPTY_SET
    assert list(cache._sets[1].items()) == [(LINE_SIZE, "b"),
                                            (3 * LINE_SIZE, "d")]
    assert cache.insert(5 * LINE_SIZE, "f") == "b"  # LRU order kept
    assert len(EMPTY_SET) == 0


def test_fresh_machine_allocates_no_set():
    assert allocated_sets(Machine(MachineConfig())) == 0


@pytest.mark.parametrize("spec", ["mesi-es", "dir-es"])
def test_noisy_session_leaves_the_empty_bucket_empty(spec, cold):
    """A noisy session fills sets on every level of both backends; after
    it and after ``Machine.reset``, the shared bucket is still empty,
    and the reset machine's caches and directories are a fresh one's."""
    session = ChannelSession(SessionConfig(
        spec=spec, seed=5, calibration_samples=120, noise_threads=2,
    ))
    session.transmit(list(PAYLOAD))
    machine = session.machine
    assert allocated_sets(machine) > 0
    assert len(EMPTY_SET) == 0

    machine.reset(RngStreams(9))
    assert len(EMPTY_SET) == 0
    assert allocated_sets(machine) == 0
    fresh = Machine(machine.config, RngStreams(9)).snapshot_state()
    state = machine.snapshot_state()
    for part in ("cores", "sockets", "dram", "home_directory"):
        assert state[part] == fresh[part], part


def test_checkpoint_round_trip_leaves_the_empty_bucket_empty(cold):
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=5, calibration_samples=120, noise_threads=1,
    ))
    checkpoints = []

    def pause_capture_finish(ctx):
        session.sim.run(pause_at=session.sim.global_clock + 30_000.0)
        checkpoints.append(capture(session, ctx))
        session.sim.run()

    session._run_transmission = pause_capture_finish
    reference = session.transmit(list(PAYLOAD))
    restored, ctx = restore(checkpoints[0])
    assert len(EMPTY_SET) == 0
    machine = pickle.loads(checkpoints[0].state)["machine"]
    assert restored.machine.snapshot_state()["cores"] == machine["cores"]
    resumed = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert len(EMPTY_SET) == 0
    assert (pickle.dumps(replace(resumed, manifest=None))
            == pickle.dumps(replace(reference, manifest=None)))
