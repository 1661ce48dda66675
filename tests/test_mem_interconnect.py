"""Tests for the interconnect contention model."""

import pickle
import random
from collections import deque

import pytest

from repro.errors import ConfigError
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.interconnect import Interconnect, Resource
from repro.sim.rng import RngStreams


class SeedResource:
    """Reference implementation: the seed's literal O(window) scan.

    The optimized :class:`Resource` must return bit-identical delays, so
    the randomized tests below compare against this with exact ``==``.
    """

    def __init__(self, window=2_000.0, saturation=110.0, service_cycles=2.0):
        self.window = window
        self.saturation = saturation
        self.service_cycles = service_cycles
        self.events = deque()

    def register(self, time, weight=1.0):
        cutoff = time - self.window
        while self.events and self.events[0][0] < cutoff:
            self.events.popleft()
        load = sum(w for t, w in self.events if cutoff <= t <= time)
        self.events.append((time, weight))
        rho = min(load / self.saturation, Resource.RHO_CAP)
        return self.service_cycles * rho / (1.0 - rho)


def test_idle_resource_has_no_delay():
    res = Resource("r", window=1000, saturation=50, service_cycles=2.0)
    assert res.register(0.0) == pytest.approx(0.0)


def test_delay_grows_with_load():
    res = Resource("r", window=1000, saturation=50, service_cycles=2.0)
    delays = [res.register(float(i)) for i in range(40)]
    assert delays[-1] > delays[5]


def test_mm1_shape():
    res = Resource("r", window=1000, saturation=10, service_cycles=1.0)
    for i in range(5):
        res.register(float(i))
    # load 5 of 10 => rho 0.5 => delay = 1 * 0.5/0.5 = 1.0
    assert res.register(5.0) == pytest.approx(1.0)


def test_rho_is_capped():
    res = Resource("r", window=1000, saturation=5, service_cycles=1.0)
    for i in range(100):
        res.register(float(i) * 0.1)
    delay = res.register(10.0)
    cap = Resource.RHO_CAP
    assert delay <= cap / (1 - cap) + 1e-9


def test_window_expiry():
    res = Resource("r", window=100, saturation=10, service_cycles=1.0)
    for i in range(8):
        res.register(float(i))
    assert res.register(10_000.0) == pytest.approx(0.0)


def test_future_events_do_not_count():
    res = Resource("r", window=1000, saturation=10, service_cycles=1.0)
    # a burst registers at future instants
    for t in (5_000.0, 6_000.0, 7_000.0):
        res.register(t)
    # a query in the past must not see them
    assert res.register(100.0) == pytest.approx(0.0)


def test_reset_clears_window():
    res = Resource("r", window=1000, saturation=5, service_cycles=1.0)
    for i in range(10):
        res.register(float(i))
    res.reset()
    assert res.register(20.0) == pytest.approx(0.0)


def test_total_traffic_accumulates():
    res = Resource("r")
    res.register(0.0)
    res.register(1.0)
    assert res.total_traffic == pytest.approx(2.0)


def test_current_load():
    res = Resource("r", window=1000)
    res.register(0.0)
    res.register(10.0)
    assert res.current_load(20.0) == pytest.approx(2.0)
    assert res.current_load(5_000.0) == pytest.approx(0.0)


def test_window_boundary_is_inclusive():
    # An event at exactly t == cutoff (time - window) still counts: the
    # predicate is cutoff <= t <= time, and eviction drops only t < cutoff.
    res = Resource("r", window=100, saturation=10, service_cycles=1.0)
    res.register(0.0)
    assert res.current_load(100.0) == pytest.approx(1.0)
    assert res.current_load(100.5) == pytest.approx(0.0)


def test_future_boundary_is_inclusive():
    res = Resource("r", window=100, saturation=10, service_cycles=1.0)
    res.register(50.0)
    # An event registered at exactly the query time counts; later ones don't.
    assert res.current_load(50.0) == pytest.approx(1.0)
    assert res.current_load(49.0) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_register_matches_seed_scan_uniform(seed):
    # Randomized stream of unit-weight events, mostly time-ordered with
    # occasional out-of-order bursts (the machine's batched-burst shape).
    rng = random.Random(seed)
    fast = Resource("r", window=200, saturation=20, service_cycles=2.0)
    ref = SeedResource(window=200, saturation=20, service_cycles=2.0)
    now = 0.0
    for _ in range(2_000):
        now += rng.expovariate(0.2)
        t = now + (rng.uniform(0.0, 50.0) if rng.random() < 0.1 else 0.0)
        assert fast.register(t) == ref.register(t)


def test_reset_then_reuse_stays_consistent():
    rng = random.Random(4)
    fast = Resource("r", window=100, saturation=10, service_cycles=1.0)
    ref = SeedResource(window=100, saturation=10, service_cycles=1.0)
    now = 0.0
    for _ in range(300):
        now += rng.expovariate(0.5)
        assert fast.register(now) == ref.register(now)
    fast.reset()
    ref.events.clear()
    # The clock restarting below previously-seen times must not confuse
    # the time-sorted index (this is the calibration -> measurement reset).
    now = 0.0
    for _ in range(300):
        now += rng.expovariate(0.5)
        assert fast.register(now) == ref.register(now)


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        Resource("r", window=0)
    with pytest.raises(ConfigError):
        Resource("r", saturation=0)


def test_interconnect_topology():
    ic = Interconnect(n_sockets=2)
    assert len(ic.rings) == 2
    assert len(ic.mems) == 2


def test_interconnect_rejects_zero_sockets():
    with pytest.raises(ConfigError):
        Interconnect(0)


def test_interconnect_delegates():
    ic = Interconnect(2)
    assert ic.rings[0].register(0.0) == pytest.approx(0.0)
    assert ic.qpi.register(0.0) == pytest.approx(0.0)
    assert ic.mems[1].register(0.0) == pytest.approx(0.0)


def test_interconnect_reset():
    ic = Interconnect(2)
    for i in range(200):
        ic.rings[0].register(float(i) * 0.1)
    ic.reset()
    assert ic.rings[0].current_load(100.0) == pytest.approx(0.0)


def test_rings_are_independent():
    ic = Interconnect(2)
    for i in range(100):
        ic.rings[0].register(float(i))
    assert ic.rings[1].current_load(50.0) == pytest.approx(0.0)


_IC = Interconnect(2)


@pytest.mark.parametrize("resource", [
    Resource("default"), _IC.rings[0], _IC.qpi, _IC.mems[0],
], ids=["default", "ring", "qpi", "mem"])
def test_delay_table_is_the_closed_form(resource):
    """Entry *k* of ``_delays`` is the M/M/1 delay at load *k*, bit for
    bit, and every load past the first clamped one reads the last."""
    table = resource._delays
    cap = Resource.RHO_CAP
    assert len(table) - 1 == min(
        k for k in range(10 * int(resource.saturation) + 2)
        if k / resource.saturation >= cap)
    for load in range(int(4 * resource.saturation) + 1):
        rho = min(load / resource.saturation, cap)
        closed = resource.service_cycles * rho / (1.0 - rho)
        entry = table[min(load, len(table) - 1)]
        assert entry.hex() == closed.hex(), load


def test_out_of_order_window_survives_a_snapshot():
    """Retained events out of insertion order and an uncompacted sorted
    index restore to a window that returns the original's delays."""
    rng = random.Random(6)
    machine = Machine(MachineConfig(), RngStreams(6))
    ring = machine.interconnect.rings[0]
    now = 0.0
    for _ in range(400):
        now += rng.expovariate(0.05)
        ring.register(now + (rng.uniform(0.0, 300.0)
                             if rng.random() < 0.2 else 0.0))
    assert list(ring._events) != sorted(ring._events)
    assert 0 < ring._tpos < Resource._COMPACT_THRESHOLD

    state = pickle.loads(pickle.dumps(machine.snapshot_state()))
    copy = Machine(MachineConfig(), RngStreams(6))
    copy.restore_state(state)
    twin = copy.interconnect.rings[0]
    assert twin.total_traffic == ring.total_traffic == 400.0
    for _ in range(1_000):
        now += rng.expovariate(0.05)
        t = now + (rng.uniform(0.0, 300.0) if rng.random() < 0.2 else 0.0)
        assert twin.register(t) == ring.register(t)
    assert copy.snapshot_state()["resources"] == (
        machine.snapshot_state()["resources"])


def test_reset_zeroes_total_traffic():
    res = Resource("r")
    res.register(0.0)
    res.reset()
    assert res.total_traffic == 0.0
