"""Tests for the discrete-event engine and thread machinery."""

import pytest

from repro.errors import SimulationError, ThreadProgramError
from repro.sim.engine import Simulator
from repro.sim.events import Delay, Load, OpResult, Rdtsc
from repro.sim.thread import ThreadState


def unit_executor(latency_by_op=None):
    """An executor charging fixed latencies, no real memory."""
    table = latency_by_op or {}

    def execute(thread, op):
        latency = table.get(type(op), 10.0)
        if isinstance(op, Delay):
            latency = op.cycles
        if isinstance(op, Rdtsc):
            latency = 0.0
        return OpResult(latency=latency, timestamp=thread.clock + latency)

    return execute


def test_single_thread_runs_to_completion():
    sim = Simulator()
    log = []

    def program(cpu):
        yield from cpu.delay(100)
        log.append((yield from cpu.rdtsc()))

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert thread.state is ThreadState.DONE
    assert log == [100.0]


def test_threads_interleave_in_time_order():
    sim = Simulator()
    order = []

    def make(name, step):
        def program(cpu):
            for _ in range(3):
                yield from cpu.delay(step)
                order.append((name, (yield from cpu.rdtsc())))
        return program

    sim.spawn("fast", make("fast", 10), core_id=0, executor=unit_executor())
    sim.spawn("slow", make("slow", 25), core_id=1, executor=unit_executor())
    sim.run()
    times = [t for _n, t in order]
    assert times == sorted(times)
    assert order[0][0] == "fast"


def test_global_clock_advances():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(500)

    sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert sim.global_clock >= 500


def test_daemon_does_not_block_run():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(10)

    def short(cpu):
        yield from cpu.delay(50)

    daemon = sim.spawn("d", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    sim.spawn("s", short, core_id=1, executor=unit_executor())
    sim.run()
    assert not daemon.done  # still alive for a follow-up run


def test_max_events_guard():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    sim.spawn("t", forever, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_cycles_guard():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1000)

    sim.spawn("t", forever, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError):
        sim.run(max_cycles=10_000)


def test_pause_at_then_run_matches_uninterrupted_run():
    """``pause_at`` parks the run at the first event at or past the
    boundary, and a plain ``run()`` then ends where an uninterrupted
    run does, with the same event count."""
    def loop(cpu):
        for _ in range(50):
            yield from cpu.delay(10)

    def simulator():
        sim = Simulator()
        sim.spawn("t", loop, core_id=0, executor=unit_executor())
        return sim

    sim = simulator()
    assert sim.run(pause_at=200) is True
    assert 200 <= sim.global_clock < 210
    assert sim.run() is False
    plain = simulator()
    assert plain.run() is False
    assert sim.global_clock == plain.global_clock == 500.0
    assert (sim.stats.counters()["engine.events"]
            == plain.stats.counters()["engine.events"] == 50)


def test_invalid_yield_raises():
    sim = Simulator()

    def bad(cpu):
        yield "not an op"

    thread = sim.spawn("bad", bad, core_id=0, executor=unit_executor())
    with pytest.raises(ThreadProgramError):
        sim.run()
    assert thread.state is ThreadState.FAILED


def test_thread_result_captured():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(5)
        return "payload"

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert thread.result == "payload"


def test_spawn_mid_run_starts_at_current_time():
    sim = Simulator()
    seen = []

    def parent(cpu):
        yield from cpu.delay(100)
        child = sim.spawn("child", child_prog, core_id=1,
                          executor=unit_executor())
        seen.append(child.clock)
        yield from cpu.delay(10)

    def child_prog(cpu):
        yield from cpu.delay(1)

    sim.spawn("parent", parent, core_id=0, executor=unit_executor())
    sim.run()
    assert seen and seen[0] >= 100


def test_thread_by_name():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    sim.spawn("alpha", program, core_id=0, executor=unit_executor())
    assert sim.thread_by_name("alpha").name == "alpha"
    with pytest.raises(KeyError):
        sim.thread_by_name("missing")


def test_duplicate_live_name_rejected():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    sim.spawn("t", program, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError, match="duplicate thread name"):
        sim.spawn("t", program, core_id=1, executor=unit_executor())


def test_name_reuse_after_exit_allowed():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    first = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert first.state is ThreadState.DONE
    # Dead threads release their name; the index resolves to the newest.
    second = sim.spawn("t", program, core_id=0, executor=unit_executor())
    assert sim.thread_by_name("t") is second
    sim.run()


def test_name_reuse_after_kill_allowed():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    first = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                      daemon=True)
    first.kill()
    second = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    assert sim.thread_by_name("t") is second
    second.kill()


def test_on_exit_fires_once():
    sim = Simulator()
    calls = []

    def program(cpu):
        yield from cpu.delay(1)

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    thread.on_exit = lambda t: calls.append(t.tid)
    sim.run()
    thread.kill()  # no double fire
    assert calls == [thread.tid]


def test_on_exit_fires_on_kill():
    sim = Simulator()
    calls = []

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    thread = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    thread.on_exit = lambda t: calls.append("killed")
    thread.kill()
    assert calls == ["killed"]


def test_timed_load_measures_load_only():
    sim = Simulator()
    results = []

    def program(cpu):
        result = yield from cpu.timed_load(0x40)
        results.append(result)

    executor = unit_executor({Load: 123.0})
    sim.spawn("t", program, core_id=0, executor=executor)
    sim.run()
    assert results[0].latency == 123.0
