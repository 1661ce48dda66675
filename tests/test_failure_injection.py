"""Failure injection: the channel and stack degrade gracefully.

Covert channels run in hostile conditions — workers get killed,
transmissions are cut short, third parties touch the shared line, memory
runs out.  These tests verify that every such failure produces a clean,
observable outcome (degraded accuracy, a typed error) rather than a hang
or a corrupted simulation.
"""

import pytest

from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.decoder import BitDecoder
from repro.channel.session import ChannelSession, SessionConfig
from repro.channel.spy import SpyResult, spy_program
from repro.channel.trojan import TrojanControl, controller_program, worker_roles
from repro.errors import OutOfMemoryError, SyncTimeoutError
from repro.mem.invariants import check_machine

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0] * 3


def make_session(seed=31, **kwargs):
    params = kwargs.pop("params", ProtocolParams(max_poll_slots=300,
                                                 max_reception_slots=2_000))
    return ChannelSession(SessionConfig(
        spec=kwargs.pop("scenario", TABLE_I[0]).name,
        seed=seed, calibration_samples=200, params=params, **kwargs,
    ))


def test_spy_alone_times_out_cleanly():
    """No trojan at all: the spy's polling gives up with a typed error."""
    session = make_session()
    decoder = BitDecoder(session.bands, session.config.scenario,
                         session.config.params)
    result = SpyResult()
    session.kernel.spawn(
        session.spy_proc, "spy-alone",
        spy_program(result, decoder, session.config.params, session.spy_va),
        core_id=0,
    )
    with pytest.raises(SyncTimeoutError):
        session.sim.run()
    assert result.timed_out
    check_machine(session.machine)


def test_trojan_workers_killed_mid_transmission():
    """Killing the reader threads cuts the channel but nothing hangs."""
    session = make_session()
    cfg = session.config
    control = TrojanControl()
    decoder = BitDecoder(session.bands, cfg.scenario, cfg.params)
    spy_result = SpyResult()
    session.spawn_workers(worker_roles(cfg.scenario), control, 0)
    session.spawn_controller(
        controller_program(control, cfg.scenario, cfg.params,
                           session.trojan_va, list(PAYLOAD)), 0)
    session.kernel.spawn(
        session.spy_proc, "spy-0",
        spy_program(spy_result, decoder, cfg.params, session.spy_va),
        core_id=0,
    )
    assert session.sim.run(pause_at=30_000.0)
    workers = [
        thread for thread in session.sim.threads
        if thread.name.startswith(("trojan-L", "trojan-R"))
        and not thread.done
    ]
    assert workers
    for thread in workers:
        thread.kill()
    assert not session.sim.run()
    report = decoder.decode(spy_result.samples)
    # the spy got a prefix at best; the stack stayed coherent
    assert len(report.bits) < len(PAYLOAD)
    check_machine(session.machine)


def test_controller_stops_early_spy_gets_prefix():
    session = make_session()
    cfg = session.config
    control = TrojanControl()
    decoder = BitDecoder(session.bands, cfg.scenario, cfg.params)
    spy_result = SpyResult()
    session.spawn_workers(worker_roles(cfg.scenario), control, 0)
    # only the first 6 bits are ever sent
    session.spawn_controller(
        controller_program(control, cfg.scenario, cfg.params,
                           session.trojan_va, list(PAYLOAD[:6])), 0)
    session.kernel.spawn(
        session.spy_proc, "spy-0",
        spy_program(spy_result, decoder, cfg.params, session.spy_va),
        core_id=0,
    )
    session.sim.run()
    report = decoder.decode(spy_result.samples)
    assert report.bits == PAYLOAD[:6]


def test_resync_exhaustion_is_typed_with_doubling_backoff(monkeypatch):
    """Every re-synchronization retry is consumed: the typed
    SyncTimeoutError propagates, and the inter-attempt idle doubled
    per attempt (Section VII-A exponential backoff)."""
    session = make_session()
    cfg = session.config
    assert cfg.resync_attempts == 2

    idles = []
    monkeypatch.setattr(session, "idle", lambda cycles: idles.append(cycles))

    def always_desynced(self, *args, **kwargs):
        raise SyncTimeoutError("handshake never converged (forced)")

    monkeypatch.setattr(ChannelSession, "_transmit_once", always_desynced)
    with pytest.raises(SyncTimeoutError):
        session.transmit(list(PAYLOAD[:4]))
    # every retry was spent...
    assert session.resyncs == cfg.resync_attempts
    # ...and each backoff doubled the previous one
    base = cfg.resync_backoff_cycles
    assert idles == [base, 2 * base]


def test_third_party_flusher_disrupts_but_terminates():
    """An unrelated process flushing the same line injects chaos only."""
    session = make_session()
    other = session.kernel.create_process("interloper")
    va = other.map_frame(
        session.kernel.phys.pfn_of(session.spy_proc.translate(session.spy_va))
    )

    def flusher(cpu):
        while True:
            yield from cpu.flush(va)
            yield from cpu.delay(777.0)

    session.kernel.spawn(other, "flusher", flusher, core_id=5, daemon=True)
    result = session.transmit(PAYLOAD)
    # outcome may be poor, but it terminates and stays coherent
    assert 0.0 <= result.accuracy <= 1.0
    check_machine(session.machine)


def test_out_of_memory_is_typed():
    from repro.kernel.process import Process
    from repro.mem.physical import PhysicalMemory

    phys = PhysicalMemory(n_frames=4)
    process = Process(1, "p", phys)
    with pytest.raises(OutOfMemoryError):
        process.mmap(10)


def test_payload_of_one_bit():
    session = make_session()
    result = session.transmit([1])
    assert result.received == [1]


def test_empty_payload():
    session = make_session()
    result = session.transmit([])
    # nothing sent: the spy sees the lead-in then quiet; decode is empty
    assert result.received in ([], [0], [1])
    assert result.alignment.sent == 0


def test_long_payload_terminates():
    session = make_session(params=ProtocolParams())
    payload = PAYLOAD * 20  # 480 bits
    result = session.transmit(payload)
    assert result.accuracy >= 0.99
    check_machine(session.machine)


def test_all_scenarios_survive_machine_invariants(session_factory):
    for scenario in TABLE_I:
        session = session_factory(scenario=scenario)
        session.transmit([1, 0, 1])
        check_machine(session.machine)
