"""Tests for latency-band calibration (Section V / Figure 2)."""

from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.channel import calibration
from repro.channel import session as session_module
from repro.channel.calibration import (
    Band,
    LatencyBands,
    calibrate,
    measure_dram,
    measure_pair,
)
from repro.channel.config import (
    ALL_PAIRS,
    LEXCL,
    LOWNED,
    LSHARED,
    REXCL,
    RSHARED,
    extra_pairs_for,
)
from repro.channel.scenarios import scenario_spec_by_name
from repro.channel.session import ChannelSession, SessionConfig, clear_warm_state
from repro.errors import CalibrationError
from repro.experiments.arena import live_cells
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.latency import NoiseModel, ObfuscationPolicy
from repro.obs import MachineTap, RunManifest, TraceRecorder
from repro.sim.rng import RngStreams


@pytest.fixture
def calibrated(rng):
    machine = Machine(MachineConfig(), rng)
    return calibrate(machine, samples=300)


def test_band_contains():
    band = Band("x", 10.0, 20.0)
    assert band.contains(10.0) and band.contains(20.0)
    assert not band.contains(9.9)
    assert band.center == 15.0


def test_all_four_bands_calibrated(calibrated):
    bands, raw = calibrated
    assert set(bands.bands) == set(ALL_PAIRS)
    assert bands.dram is not None
    assert set(raw) == {"LShared", "LExcl", "RShared", "RExcl", "dram"}


def test_band_medians_match_paper(calibrated):
    _bands, raw = calibrated
    assert np.median(raw["LShared"]) == pytest.approx(98, abs=4)
    assert np.median(raw["LExcl"]) == pytest.approx(124, abs=4)
    assert np.median(raw["RShared"]) == pytest.approx(170, abs=6)
    assert np.median(raw["RExcl"]) == pytest.approx(232, abs=6)


def test_bands_are_ordered_and_disjoint(calibrated):
    bands, _raw = calibrated
    ordered = [bands.band_for(p) for p in (LSHARED, LEXCL, RSHARED, REXCL)]
    for a, b in zip(ordered[:-1], ordered[1:]):
        assert a.hi < b.lo


def test_classification(calibrated):
    bands, _raw = calibrated
    assert bands.classify(98.0) == LSHARED
    assert bands.classify(124.0) == LEXCL
    assert bands.classify(170.0) == RSHARED
    assert bands.classify(232.0) == REXCL
    assert bands.classify(320.0) == "dram"
    assert bands.classify(1.0) is None


def test_check_separation_passes_for_disjoint(calibrated):
    bands, _raw = calibrated
    bands.check_separation(LSHARED, LEXCL)  # no raise


def test_check_separation_raises_on_overlap():
    bands = LatencyBands(bands={
        LSHARED: Band("LShared", 90, 130),
        LEXCL: Band("LExcl", 120, 140),
    })
    with pytest.raises(CalibrationError):
        bands.check_separation(LSHARED, LEXCL)


def test_overlapping_classify_prefers_narrower_band():
    bands = LatencyBands(bands={
        LSHARED: Band("LShared", 90, 200),
        LEXCL: Band("LExcl", 120, 130),
    })
    assert bands.classify(125.0) == LEXCL


def test_measure_pair_returns_requested_samples(rng):
    machine = Machine(MachineConfig(), rng)
    data = measure_pair(machine, LEXCL, 0x40_0000, samples=50)
    assert data.shape == (50,)
    assert np.all(data > 0)


def test_measure_dram_high_latency(rng):
    machine = Machine(MachineConfig(), rng)
    data = measure_dram(machine, 0x40_0000, samples=50)
    assert np.median(data) > 250


def test_single_socket_machine_skips_remote_pairs(rng):
    machine = Machine(MachineConfig(n_sockets=1), rng)
    bands, raw = calibrate(machine, samples=100)
    assert LSHARED in bands.bands and LEXCL in bands.bands
    assert RSHARED not in bands.bands and REXCL not in bands.bands


def test_calibration_is_deterministic():
    a = calibrate(Machine(MachineConfig(), RngStreams(5)), samples=100)
    b = calibrate(Machine(MachineConfig(), RngStreams(5)), samples=100)
    assert a[0].band_for(LEXCL).lo == b[0].band_for(LEXCL).lo
    assert np.array_equal(a[1]["LExcl"], b[1]["LExcl"])


def test_calibration_resets_interconnect(rng):
    machine = Machine(MachineConfig(), rng)
    calibrate(machine, samples=200)
    for ring in machine.interconnect.rings:
        assert ring.current_load(1e12) == 0.0


# ----------------------------------------------------------------------
# steady-state replay: bit-identical to running every round for real
# ----------------------------------------------------------------------

PROBE = 0x40_0000


@contextmanager
def every_round_real():
    """The all-real reference loop, reached through a test seam: no
    round ever starts in the state the round before it started in, so
    every round goes through the ``Machine`` API."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_round_state",
                   lambda machine, base: object())
        yield


@contextmanager
def counting_ops():
    """Count ``Machine.load``/``store``/``flush`` calls with a class-level
    patch (an instance patch would itself force every round real)."""
    counts: Counter = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("load", "store", "flush"):
            def counted(self, *args, _op=getattr(Machine, name), _name=name):
                counts[_name] += 1
                return _op(self, *args)
            mp.setattr(Machine, name, counted)
        yield counts


def calibrate_fresh(config, seed=5, samples=200, real=False,
                    prepare=None, **kwargs):
    """Calibrate a fresh machine; returns (bands, raw, RNG snapshot,
    machine state).  *prepare* runs on the machine first."""
    machine = Machine(config, RngStreams(seed))
    if prepare is not None:
        prepare(machine)
    with every_round_real() if real else nullcontext():
        bands, raw = calibrate(machine, samples=samples, **kwargs)
    machine.obfuscation = None  # snapshot_state refuses a live policy
    return bands, raw, machine.rng.snapshot(), machine.snapshot_state()


def assert_replay_exact(config, **kwargs) -> LatencyBands:
    """Bands, raw arrays, RNG streams and the whole machine state (cache
    sets, directories, interconnect windows, counters) equal the
    all-real loop's; returns the replayed bands."""
    bands, raw, streams, state = calibrate_fresh(config, **kwargs)
    ref_bands, ref_raw, ref_streams, ref_state = calibrate_fresh(
        config, real=True, **kwargs)
    assert bands == ref_bands
    assert raw.keys() == ref_raw.keys()
    for key in raw:
        assert np.array_equal(raw[key], ref_raw[key]), key
    assert streams == ref_streams
    assert state == ref_state
    return bands


def cell_options(cell: str) -> tuple[MachineConfig, dict]:
    spec = scenario_spec_by_name(cell)
    return spec.machine_config(), {
        "extra_pairs": extra_pairs_for(spec.scenario)}


@pytest.mark.parametrize("seed", [5, 101, 777])
@pytest.mark.parametrize("cell", live_cells())
def test_replay_matches_every_round_real_on_live_cells(cell, seed):
    config, options = cell_options(cell)
    bands = assert_replay_exact(config, seed=seed, **options)
    assert bands.provenance.startswith("replayed:")


@pytest.mark.parametrize("samples", [1, 2, 3, 1000])
def test_replay_matches_every_round_real_at_any_sample_count(samples):
    bands = assert_replay_exact(MachineConfig(protocol="moesi"),
                                samples=samples, extra_pairs=(LOWNED,))
    # Six pairs; a pair replays from its third round at the latest.
    real = int(bands.provenance.split(":")[1])
    assert real == 6 * samples if samples <= 2 else real <= 6 * 3


@pytest.mark.parametrize("config", [
    MachineConfig(llc_direct_e_response=True),
    MachineConfig(n_sockets=1),
    MachineConfig(noise=NoiseModel(enabled=False)),
    MachineConfig(coherence="directory", protocol="moesi"),
], ids=["llc-direct-e", "one-socket", "noiseless", "directory"])
def test_replay_matches_every_round_real_on_machine_variants(config):
    """Home-agent machines run every round real: see the fallbacks."""
    assert_replay_exact(config)


def test_replay_matches_when_round_one_evicts_a_dirty_victim():
    """Dirty lines fill the probe's L1/L2 sets on the spy core and its
    LLC set on socket 0, so the first rounds evict and write back."""
    l2_stride = 512 * 64
    llc_stride = 2048 * 64
    private = [PROBE + k * l2_stride for k in range(1, 9)]
    shared = [PROBE + k * llc_stride for k in range(1, 17)]

    def prefill(machine):
        for addr in private:
            machine.store(0, addr, 7)
        for addr in shared:
            machine.store(3, addr, 9)

    assert_replay_exact(MachineConfig(), prepare=prefill)
    *_rest, state = calibrate_fresh(MachineConfig(), prepare=prefill)
    assert set(state["dram"]) & set(shared), "no dirty LLC victim"
    assert set(state["dram"]) & set(private), "no dirty L2 victim"


def _future_traffic(machine):
    """Fill every interconnect window with traffic ahead of the round
    clock, which starts at 0, for longer than 200 rounds take: every
    round registers out of time order and queues behind it."""
    ic = machine.interconnect
    for resource in (*ic.rings, ic.qpi, *ic.mems):
        for k in range(1000):
            resource.register(300.0 + 197.0 * k)


@pytest.mark.parametrize("pair", [*ALL_PAIRS, None],
                         ids=lambda p: "dram" if p is None else p.notation)
def test_replay_matches_every_round_real_behind_future_traffic(pair):
    """:func:`measure_pair` and :func:`measure_dram` run without the
    per-pair interconnect reset :func:`calibrate` does, so the replayed
    rounds meet windows that already hold later traffic."""
    def measure(real):
        machine = Machine(MachineConfig(), RngStreams(5))
        _future_traffic(machine)
        with every_round_real() if real else nullcontext(), \
                counting_ops() as counts:
            if pair is None:
                data = measure_dram(machine, PROBE, 200)
            else:
                data = measure_pair(machine, pair, PROBE, 200)
        ic = machine.interconnect
        out_of_order = any(
            list(r._events) != sorted(r._events)
            for r in (*ic.rings, ic.qpi, *ic.mems))
        return (data, machine.rng.snapshot(), machine.snapshot_state(),
                sum(counts.values()), out_of_order)

    data, streams, state, ops, out_of_order = measure(real=False)
    ref_data, ref_streams, ref_state, ref_ops, _ = measure(real=True)
    assert out_of_order
    assert ops < ref_ops / 10  # the replay ran
    assert np.array_equal(data, ref_data)
    assert streams == ref_streams
    assert state == ref_state


def _tap(machine):
    MachineTap(machine, TraceRecorder()).attach()


def _obfuscate(machine):
    machine.obfuscation = ObfuscationPolicy(suspicious_cores={0})


def _interpose_load(machine):
    machine.load = lambda *args: Machine.load(machine, *args)


def _dir_hook(machine):
    machine._dir_trace = lambda now, kind, base, entry: None


#: reason -> (machine config, interposition) of every per-op fallback.
FALLBACKS = {
    "traced": (MachineConfig(), _tap),
    "obfuscated": (MachineConfig(), _obfuscate),
    "faulted": (MachineConfig(), _interpose_load),
    "dir-trace": (MachineConfig(coherence="directory"), _dir_hook),
    "home-agent": (MachineConfig(home_agent=True), None),
}


def round_ops_per_pair(machine, extra_pairs=()):
    """Every pair's round ops on a two-socket *machine*, DRAM last."""
    remote = calibration._default_remote_cores(machine)
    return [calibration._round_ops(pair, 0, (1, 2), remote)
            for pair in (*ALL_PAIRS, *extra_pairs, None)]


@pytest.mark.parametrize("reason", sorted(FALLBACKS))
def test_interposed_machine_runs_every_round_real(reason):
    config, prepare = FALLBACKS[reason]
    bands = assert_replay_exact(config, samples=50, prepare=prepare)
    assert bands.provenance == f"per-op:{reason}"
    machine = Machine(config, RngStreams(5))
    with counting_ops() as counts:
        if prepare is not None:
            prepare(machine)  # a tap binds the methods it wraps
        calibrate(machine, samples=50)
    every_op = sum(50 * len(ops) for ops in round_ops_per_pair(machine))
    assert sum(counts.values()) == every_op + 1  # and the closing flush


@pytest.mark.parametrize("config, extra_pairs", [
    (MachineConfig(), ()),
    (MachineConfig(protocol="moesi"), (LOWNED,)),
    (MachineConfig(coherence="directory"), ()),
])
def test_clean_calibration_runs_at_most_three_rounds_per_pair(
        config, extra_pairs):
    """A structural guard: a clean machine replays every round past the
    third, so a change that silently drops calibration back to per-op
    rounds fails here."""
    machine = Machine(config, RngStreams(5))
    with counting_ops() as counts:
        bands, _raw = calibrate(machine, samples=400, extra_pairs=extra_pairs)
    per_pair = round_ops_per_pair(machine, extra_pairs)
    assert counts["flush"] <= 3 * len(per_pair) + 1
    assert sum(counts.values()) <= sum(3 * len(ops) for ops in per_pair) + 1
    real = int(bands.provenance.removeprefix("replayed:"))
    assert counts["flush"] == real + 1


def _session(config, interpose=None):
    with pytest.MonkeyPatch.context() as mp:
        if interpose is not None:
            mp.setattr(session_module, "Machine",
                       lambda *args: _interposed(interpose, *args))
        return ChannelSession(config)


def _interposed(interpose, config, rng):
    machine = Machine(config, rng)
    interpose(machine)
    return machine


@pytest.mark.parametrize("how, spec, options, interpose", [
    ("per-op:traced", "mesi-es", {"trace": True}, None),
    ("per-op:obfuscated", "mesi-es", {}, _obfuscate),
    ("per-op:faulted", "mesi-es", {}, _interpose_load),
    ("per-op:dir-trace", "dir-es", {}, _dir_hook),
    ("per-op:home-agent", "mesi-es",
     {"machine": MachineConfig(home_agent=True)}, None),
])
def test_manifest_records_a_per_op_calibration(how, spec, options, interpose):
    clear_warm_state()
    config = SessionConfig(spec=spec, seed=3, calibration_samples=60,
                           **options)
    assert RunManifest.capture(_session(config, interpose)).calibration == how
    clear_warm_state()


def test_manifest_records_a_replayed_then_a_memo_calibration():
    clear_warm_state()
    config = SessionConfig(spec="mesi-es", seed=3, calibration_samples=60,
                           trace=False)
    cold = RunManifest.capture(ChannelSession(config))
    assert cold.calibration == "replayed:10"  # 5 pairs x 2 real rounds
    warm = RunManifest.capture(ChannelSession(config))
    assert warm.calibration == "memo"
    clear_warm_state()
