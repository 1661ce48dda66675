"""Tests for the covert-channel detection subsystem."""

import numpy as np
import pytest

from repro.channel.config import TABLE_I
from repro.channel.session import ChannelSession, SessionConfig
from repro.detection import (
    ChannelDetector,
    EventMonitor,
    FlushStormDetector,
    ModulationDetector,
    PingPongDetector,
)
from repro.kernel.workloads import spawn_kernel_build
from repro.mem.cacheline import LINE_SIZE
from repro.obs import MachineTap, TraceRecorder


def tapped_monitor(machine, **kwargs):
    """An :class:`EventMonitor` fed live by a tap on *machine*."""
    monitor = EventMonitor(**kwargs)
    recorder = TraceRecorder()
    MachineTap(machine, recorder).attach()
    recorder.subscribe(monitor.consume)
    return monitor


def session_with_monitor(seed=21, **kwargs):
    session = ChannelSession(SessionConfig(
        spec=TABLE_I[0].name, seed=seed, calibration_samples=200, **kwargs
    ))
    monitor = EventMonitor()
    session.start_trace().subscribe(monitor.consume)
    return session, monitor


def test_monitor_stops_recording_when_unsubscribed(machine):
    monitor = EventMonitor()
    recorder = TraceRecorder()
    MachineTap(machine, recorder).attach()
    recorder.subscribe(monitor.consume)
    recorder.subscribe(monitor.consume)  # idempotent
    machine.flush(0, 0x1000, 10.0)
    machine.load(0, 0x1000, 20.0)
    assert monitor.lines[0x1000].flush_rate(20.0) > 0
    assert monitor.events_seen == 2
    recorder.unsubscribe(monitor.consume)
    machine.flush(0, 0x1000, 30.0)
    assert len(monitor.lines[0x1000].flushes) == 1  # no longer recording


def test_monitor_only_tracks_flushed_lines(machine):
    monitor = tapped_monitor(machine)
    machine.load(0, 0x2000, 10.0)   # never flushed: not tracked
    machine.flush(0, 0x3000, 10.0)
    machine.load(0, 0x3000, 20.0)
    assert not monitor.lines[0x2000].loads
    assert monitor.lines[0x3000].loads


def test_monitor_records_downgrades(machine):
    monitor = tapped_monitor(machine)
    addr = 0x4000
    machine.flush(0, addr, 0.0)
    machine.load(1, addr, 10.0)       # E on core 1
    machine.load(0, addr, 20.0)       # forwarded: downgrade
    activity = monitor.lines[addr]
    assert len(activity.downgrades) == 1
    assert activity.touching_cores(20.0) == {0, 1}


def test_window_pruning(machine):
    monitor = tapped_monitor(machine, window=1_000.0)
    machine.flush(0, 0x5000, 0.0)
    assert monitor.lines[0x5000].flush_rate(10_000.0) == 0.0


def test_channel_is_detected_during_transmission():
    session, monitor = session_with_monitor()
    session.transmit([1, 0, 1, 1, 0, 0, 1, 0] * 4)
    now = session.sim.global_clock
    detector = ChannelDetector(monitor)
    detections = detector.scan(now)
    assert detections, "covert channel escaped detection"
    covert_line = session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    flagged_lines = {d.line for d in detections}
    assert covert_line in flagged_lines
    top = detections[0]
    assert top.score >= 1.0
    assert top.reasons


def test_detection_identifies_involved_cores():
    session, monitor = session_with_monitor()
    session.transmit([1, 0, 1, 1] * 4)
    detector = ChannelDetector(monitor)
    detections = detector.scan(session.sim.global_clock)
    top = detections[0]
    # spy core and at least one trojan worker core appear
    assert session.config.spy_core in top.cores
    assert any(core in top.cores for core in session.local_cores)


def test_benign_noise_workload_not_flagged(kernel_env):
    machine, sim, kernel = kernel_env
    monitor = tapped_monitor(machine)
    spawn_kernel_build(kernel, 4, avoid_cores={0})

    def waiter(cpu):
        yield from cpu.delay(600_000)

    process = kernel.create_process("w")
    kernel.spawn(process, "w", waiter, core_id=0)
    sim.run()
    detector = ChannelDetector(monitor)
    assert detector.scan(sim.global_clock) == []


def test_benign_producer_consumer_not_flagged(kernel_env):
    """Ordinary shared-memory communication must not trip the detector."""
    machine, sim, kernel = kernel_env
    monitor = tapped_monitor(machine)
    process = kernel.create_process("app")
    buf = process.mmap(1)

    def producer(cpu):
        for i in range(200):
            yield from cpu.store(buf, i)
            yield from cpu.delay(500)

    def consumer(cpu):
        for _ in range(200):
            yield from cpu.load(buf)
            yield from cpu.delay(500)

    kernel.spawn(process, "prod", producer, core_id=1)
    kernel.spawn(process, "cons", consumer, core_id=2)
    sim.run()
    detector = ChannelDetector(monitor)
    assert detector.scan(sim.global_clock) == []


def test_flush_storm_detector_thresholds(machine):
    monitor = tapped_monitor(machine, window=1_000_000.0)
    addr = 0x9000
    for i in range(10):
        machine.flush(0, addr, float(i * 1000))
    detector = FlushStormDetector(threshold_per_mcycle=50.0)
    score, reason = detector.score(monitor, addr, 10_000.0)
    assert score == 0.0 and reason is None
    for i in range(200):
        machine.flush(0, addr, 10_000.0 + i * 500)
    score, reason = detector.score(monitor, addr, 110_000.0)
    assert score > 0 and "flush storm" in reason


def test_modulation_detector_accepts_lattice():
    # synthesize a monitor with slot-quantized downgrades
    class FakeMonitor:
        def __init__(self):
            from repro.detection.events import LineActivity

            self.lines = {0: LineActivity(window=1e9)}

    monitor = FakeMonitor()
    rng = np.random.default_rng(0)
    t = 0.0
    for _ in range(60):
        slots = int(rng.choice([1, 1, 1, 2, 3]))
        t += slots * 1200.0 + rng.normal(0, 20)
        monitor.lines[0].downgrades.append(t)
    detector = ModulationDetector()
    score, reason = detector.score(monitor, 0, t)
    assert score >= 0.7
    assert "modulation" in reason


def test_modulation_detector_rejects_poisson():
    class FakeMonitor:
        def __init__(self):
            from repro.detection.events import LineActivity

            self.lines = {0: LineActivity(window=1e9)}

    monitor = FakeMonitor()
    rng = np.random.default_rng(0)
    t = 0.0
    for _ in range(80):
        t += rng.exponential(1500.0)
        monitor.lines[0].downgrades.append(t)
    detector = ModulationDetector()
    score, _reason = detector.score(monitor, 0, t)
    assert score == 0.0


class StubMonitor:
    """A monitor with one line whose activity is written directly.

    ``window=1e6`` makes rates trivially readable: N events in the
    window is N per Mcycle.
    """

    LINE = 0x9000

    def __init__(self):
        from repro.detection.events import LineActivity

        self.lines = {self.LINE: LineActivity(window=1e6)}

    def fill(self, *, flushes=0, downgrades=0, cores=1, now=1e6):
        activity = self.lines[self.LINE]
        for i in range(flushes):
            activity.flushes.append(now - 1 - i % 1000)
        for i in range(downgrades):
            activity.downgrades.append(now - 1 - i % 1000)
        for i in range(max(cores, 1) * 3):
            activity.loads.append((now - 1 - i, i % cores))
        return self


def test_flush_storm_score_at_exact_threshold():
    detector = FlushStormDetector(threshold_per_mcycle=50.0)
    below = StubMonitor().fill(flushes=49)
    score, reason = detector.score(below, StubMonitor.LINE, 1e6)
    assert score == 0.0 and reason is None
    at = StubMonitor().fill(flushes=50)
    score, reason = detector.score(at, StubMonitor.LINE, 1e6)
    assert score == pytest.approx(0.25)
    assert "flush storm" in reason


def test_flush_storm_score_saturates_at_one():
    detector = FlushStormDetector(threshold_per_mcycle=50.0)
    at_cap = StubMonitor().fill(flushes=200)
    score, _ = detector.score(at_cap, StubMonitor.LINE, 1e6)
    assert score == 1.0
    past_cap = StubMonitor().fill(flushes=500)
    score, _ = detector.score(past_cap, StubMonitor.LINE, 1e6)
    assert score == 1.0


def test_ping_pong_boundaries():
    detector = PingPongDetector(downgrade_threshold=25.0, max_core_set=5)
    line = StubMonitor.LINE
    # One downgrade short of the threshold: silent.
    score, _ = detector.score(
        StubMonitor().fill(downgrades=24, cores=2), line, 1e6)
    assert score == 0.0
    # Exactly at the rate threshold with the max core set: flagged.
    score, reason = detector.score(
        StubMonitor().fill(downgrades=25, cores=5), line, 1e6)
    assert score == pytest.approx(0.25)
    assert "ping-pong among 5 cores" in reason
    # One core too many: wide benign sharing, silent.
    score, _ = detector.score(
        StubMonitor().fill(downgrades=25, cores=6), line, 1e6)
    assert score == 0.0
    # Saturation.
    score, _ = detector.score(
        StubMonitor().fill(downgrades=400, cores=3), line, 1e6)
    assert score == 1.0


def lattice_monitor(n_events, off_lattice=0, slot=1200.0):
    """Downgrades with ``n_events - 1`` gaps, *off_lattice* of them at
    1.5 slots (half-way between lattice points, always rejected)."""
    monitor = StubMonitor()
    gaps = ([slot * 1.5] * off_lattice
            + [slot] * (n_events - 1 - off_lattice))
    t = slot
    downgrades = monitor.lines[StubMonitor.LINE].downgrades
    downgrades.append(t)
    for gap in gaps:
        t += gap
        downgrades.append(t)
    return monitor, t


def test_modulation_needs_min_events():
    detector = ModulationDetector(min_events=24)
    # 23 perfectly quantized events: one short, silent.
    monitor, now = lattice_monitor(23)
    score, _ = detector.score(monitor, StubMonitor.LINE, now)
    assert score == 0.0
    # 24: scored, and a perfect lattice scores 1.0.
    monitor, now = lattice_monitor(24)
    score, reason = detector.score(monitor, StubMonitor.LINE, now)
    assert score == 1.0
    assert "modulation" in reason


def test_modulation_lattice_fraction_boundary():
    detector = ModulationDetector(min_events=24, lattice_fraction=0.7)
    # 23 gaps, 7 off-lattice -> 16/23 ~= 0.696 < 0.7: silent.
    monitor, now = lattice_monitor(24, off_lattice=7)
    score, _ = detector.score(monitor, StubMonitor.LINE, now)
    assert score == 0.0
    # 6 off-lattice -> 17/23 ~= 0.739 >= 0.7: flagged with the fraction.
    monitor, now = lattice_monitor(24, off_lattice=6)
    score, _ = detector.score(monitor, StubMonitor.LINE, now)
    assert score == pytest.approx(17 / 23)


def test_channel_detector_flag_threshold_boundary():
    # Flush storm alone at saturation contributes exactly 1.0 — equal to
    # the default flag_threshold, so the line is flagged (>= comparison).
    monitor = StubMonitor().fill(flushes=200, cores=2)
    detections = ChannelDetector(monitor).scan(1e6)
    assert [d.line for d in detections] == [StubMonitor.LINE]
    assert detections[0].score == pytest.approx(1.0)
    assert detections[0].flush_rate == pytest.approx(200.0)
    # A sub-threshold score with a reason attached stays unflagged...
    weak = StubMonitor().fill(flushes=50, cores=2)
    assert ChannelDetector(weak).scan(1e6) == []
    # ...unless the operator lowers the threshold.
    sensitive = ChannelDetector(weak, flag_threshold=0.25)
    assert [d.line for d in sensitive.scan(1e6)] == [StubMonitor.LINE]


def test_ping_pong_detector_needs_small_core_set(machine):
    monitor = tapped_monitor(machine, window=1e6)
    addr = 0xA000
    machine.flush(0, addr, 0.0)
    now = 0.0
    # many cores touching: looks like ordinary wide sharing
    for i in range(120):
        core = i % 10
        machine.flush(0, addr, now)
        machine.load(core, addr, now + 10)
        machine.load((core + 1) % 10, addr, now + 20)
        now += 1_000.0
    detector = PingPongDetector()
    score, _reason = detector.score(monitor, addr, now)
    assert score == 0.0
