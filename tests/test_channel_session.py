"""End-to-end tests for the binary covert channel (Algorithms 1+2)."""

import pytest

from repro.channel.config import TABLE_I, ProtocolParams, scenario_by_name
from repro.channel.session import ChannelSession, SessionConfig, run_transmission
from repro.errors import ConfigError
from repro.mem.hierarchy import MachineConfig

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0]


@pytest.mark.parametrize("scenario", TABLE_I, ids=lambda s: s.name)
def test_all_six_scenarios_transmit_perfectly(scenario, session_factory):
    session = session_factory(scenario=scenario)
    result = session.transmit(PAYLOAD)
    assert result.received == PAYLOAD
    assert result.accuracy == 1.0


def test_transmission_uses_ksm_page_by_default(session_factory):
    session = session_factory()
    assert session.config.sharing == "ksm"
    assert (session.trojan_proc.translate(session.trojan_va)
            == session.spy_proc.translate(session.spy_va))
    assert session.kernel.ksm.stats.pages_merged == 1


def test_explicit_sharing_works(session_factory):
    session = session_factory(sharing="explicit")
    result = session.transmit(PAYLOAD[:8])
    assert result.received == PAYLOAD[:8]


def test_repeated_transmissions_on_one_session(session_factory):
    session = session_factory()
    for _ in range(3):
        result = session.transmit(PAYLOAD[:8])
        assert result.accuracy == 1.0


def test_achieved_rate_close_to_nominal(session_factory):
    session = session_factory(params=ProtocolParams().at_rate(400))
    result = session.transmit([1, 0] * 20)
    assert result.achieved_rate_kbps == pytest.approx(400, rel=0.25)


def test_sample_labels_cover_both_bands(session_factory):
    session = session_factory()
    result = session.transmit(PAYLOAD[:8])
    labels = {s.label for s in result.samples}
    assert "c" in labels and "b" in labels


def test_payload_validation(session_factory):
    session = session_factory()
    with pytest.raises(ConfigError):
        session.transmit([0, 2, 1])


def test_remote_scenario_requires_two_sockets():
    with pytest.raises(ConfigError):
        SessionConfig(
            spec="RExclc-RSharedb",
            machine=MachineConfig(n_sockets=1),
        )


def test_local_scenario_on_single_socket(session_factory):
    session = session_factory(
        scenario=scenario_by_name("LExclc-LSharedb"),
        machine=MachineConfig(n_sockets=1),
    )
    result = session.transmit(PAYLOAD[:8])
    assert result.accuracy == 1.0


def test_invalid_sharing_mode():
    with pytest.raises(ConfigError):
        SessionConfig(spec=TABLE_I[0].name, sharing="telepathy")


def test_run_transmission_oneshot():
    result = run_transmission(TABLE_I[0].name, [1, 0, 1])
    assert result.received == [1, 0, 1]
    assert result.scenario_name == "LExclc-LSharedb"


def test_determinism_same_seed(session_factory):
    first = session_factory(seed=11).transmit(PAYLOAD)
    second = session_factory(seed=11).transmit(PAYLOAD)
    assert first.received == second.received
    assert first.cycles == second.cycles


def test_different_seeds_differ_in_timing(session_factory):
    first = session_factory(seed=11).transmit(PAYLOAD)
    second = session_factory(seed=12).transmit(PAYLOAD)
    assert first.cycles != second.cycles


def test_worker_threads_match_table_one(session_factory):
    scenario = scenario_by_name("RSharedc-LSharedb")
    session = session_factory(scenario=scenario)
    session.transmit([1, 0])
    worker_names = [
        t.name for t in session.sim.threads if t.name.startswith("trojan-")
        and "ctl" not in t.name
    ]
    assert len(worker_names) == scenario.total_threads


def test_spy_observed_paths_match_scenario(session_factory):
    scenario = scenario_by_name("RExclc-LSharedb")
    session = session_factory(scenario=scenario)
    result = session.transmit([1, 1, 0, 1])
    tc = session.bands.band_for(scenario.csc)
    tb = session.bands.band_for(scenario.csb)
    for sample in result.samples:
        if sample.label == "c":
            assert tc.contains(sample.latency)
        elif sample.label == "b":
            assert tb.contains(sample.latency)


def test_noise_threads_spawned(session_factory):
    session = session_factory(noise_threads=2)
    assert len(session.noise_threads) == 2
    result = session.transmit(PAYLOAD[:8])
    assert result.accuracy >= 0.7


def test_eviction_based_flush_channel():
    """Section VI-B: the channel works without clflush, via LLC eviction."""
    from repro.channel.config import ProtocolParams

    session = ChannelSession(SessionConfig(
        spec=TABLE_I[0].name,
        params=ProtocolParams.for_eviction_flush(),
        seed=13,
        flush_method="evict",
        calibration_samples=200,
    ))
    assert len(session.eviction_set) >= session.config.machine.llc_assoc
    result = session.transmit(PAYLOAD)
    assert result.accuracy == 1.0
    # eviction sweeps are expensive: the rate is far below clflush rates
    assert result.achieved_rate_kbps < 100


def test_eviction_set_maps_to_target_llc_set():
    session = ChannelSession(SessionConfig(
        spec=TABLE_I[0].name,
        seed=13,
        flush_method="evict",
        calibration_samples=200,
    ))
    cfg = session.config.machine
    target_pa = session.spy_proc.translate(session.spy_va)
    target_set = (target_pa >> 6) & (cfg.llc_sets - 1)
    for va in session.eviction_set:
        pa = session.spy_proc.translate(va)
        assert (pa >> 6) & (cfg.llc_sets - 1) == target_set
        assert pa != target_pa


def test_invalid_flush_method_rejected():
    with pytest.raises(ConfigError):
        SessionConfig(spec=TABLE_I[0].name, flush_method="magnets")
