"""One engine, two paths: driven channel threads vs their generators.

:meth:`repro.sim.engine.Simulator.run` runs the trojan workers, the
controller and the spy through generator-free drivers
(:mod:`repro.sim.drivers`) unless the simulator stood down.  The
drivers are a pure performance play, so their one contract is
bit-identity with the generator programs.  The differential harness
(``tests/test_fast_paths.py``) draws random points across every fast
path; these tests pin fixed cases on the driver path alone:

* every cell of the scenario registry, the five golden digests and the
  noisy ``matrix_cold`` point shape transmit identically on both paths
  (result pickles equal once ``manifest.engine`` is normalised);
* the multi-bit symbol channel and every driver class actually run;
* a run cut short and resumed under ``stop_when``/``pause_at`` carries
  on from where the drivers parked, as the generators do;
* traced sessions run driven and record the generator path's event
  stream, and a binding attached after the drivers hoisted theirs
  stands them down;
* every stand-down reason fires and is recorded in the manifest.

The generator path is reached by emptying the driver table — a test
seam, not a knob.  The calibration memo is process-local, so each run
clears it first; otherwise the second run reuses the first run's
calibration pass and the manifests (not the transmissions) drift apart.
"""

import pickle
from dataclasses import replace

import pytest

from repro.channel.calibration import clear_calibration_memo
from repro.channel.config import ProtocolParams
from repro.channel.decoder import BitDecoder
from repro.channel.scenarios import SCENARIOS
from repro.channel.session import ChannelSession, SessionConfig, execute_point
from repro.channel.spy import SpyResult, spy_program
from repro.channel.trojan import TrojanControl, controller_program, worker_roles
from repro.errors import CalibrationError, SimulationError, SyncTimeoutError
from repro.experiments.common import payload_bits
from repro.runner import ExperimentSpec, Point, Runner
from repro.sim import drivers

from tests.test_golden_determinism import GOLDEN, run_config, transmission_digest

PAYLOAD = [1, 0, 1, 1, 0, 1]


def on_path(driven, fn, *args, **kwargs):
    """Call *fn* with ``REPRO_TRACE`` unset and a cold calibration
    memo, on the chosen path."""
    clear_calibration_memo()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_TRACE", raising=False)
        if not driven:
            mp.setattr(drivers, "DRIVERS", {})
        return fn(*args, **kwargs)


def transmit(cell, *, seed=11, payload=PAYLOAD, before=None, **config):
    """Build a session on *cell*, optionally prepare it, send *payload*."""
    session = ChannelSession(SessionConfig(
        spec=cell, seed=seed, calibration_samples=120, **config,
    ))
    if before is not None:
        before(session)
    return session, session.transmit(list(payload))


def normalised(result):
    """*result*'s pickle with the one path-dependent field blanked."""
    manifest = replace(result.manifest, engine="")
    return pickle.dumps(replace(result, manifest=manifest))


def assert_same(driven, generator):
    assert transmission_digest(driven) == transmission_digest(generator)
    assert normalised(driven) == normalised(generator)


# -- driven == generator, every registry cell ------------------------------


@pytest.mark.parametrize("cell", sorted(SCENARIOS))
def test_driven_matches_generator_on_registry_cell(cell):
    """Live cells transmit bit-identically; dead cells (e.g.
    ``mesi-ostate``, whose O bands collapse) fail with the same
    calibration error on both paths."""
    try:
        _, generator = on_path(False, transmit, cell)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError) as driven_exc:
            on_path(True, transmit, cell)
        assert str(driven_exc.value) == str(exc)
        return
    session, driven = on_path(True, transmit, cell)
    assert session.sim.stand_down_reason is None
    assert driven.manifest.engine == "driven"
    assert generator.manifest.engine == "generator"
    assert_same(driven, generator)


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("driven", [True, False], ids=["driven", "generator"])
def test_golden_digests_on_both_paths(name, driven):
    assert on_path(driven, run_config, name) == GOLDEN[name]


@pytest.mark.parametrize("noise", [1, 2])
@pytest.mark.parametrize("cell", ["mesi-es", "moesi-ostate", "dir-es"])
def test_noisy_warmed_point_matches_generator(cell, noise):
    """The ``matrix_cold`` point shape: kernel-build noise threads share
    the machine with driven threads, after an 8-bit warm-up."""
    def point():
        return execute_point(
            spec=cell, payload=payload_bits(24), seed=105,
            noise_threads=noise, warmup_bits=8,
        )

    driven = on_path(True, point)
    assert driven.manifest.engine == "driven"
    assert_same(driven, on_path(False, point))


# -- driven == generator, other channel shapes ----------------------------


def test_multi_bit_channel_matches_generator():
    """The 2-bit symbol channel drives only its workers; its controller
    and spy are generator programs in the same loop."""
    from repro.channel.symbols import MultiBitSession

    def two_transmissions():
        session = MultiBitSession(seed=4)
        return [
            session.transmit([1, 0, 0, 1, 1, 1, 0, 0, 1, 0]),
            session.transmit([0, 1, 1, 0]),
        ]

    driven = on_path(True, two_transmissions)
    assert driven[0].manifest.engine == "driven"
    for one, other in zip(driven, on_path(False, two_transmissions)):
        assert normalised(one) == normalised(other)


def test_all_three_drivers_advance(monkeypatch):
    """Equivalence must not pass vacuously: every driver must run."""
    advances = dict.fromkeys(drivers.DRIVERS.values(), 0)
    for cls in advances:
        real = cls.advance

        def counted(self, bound, rt, _real=real, _cls=cls):
            advances[_cls] += 1
            return _real(self, bound, rt)

        monkeypatch.setattr(cls, "advance", counted)
    on_path(True, transmit, "mesi-es")
    assert len(advances) == 3
    assert all(count > 0 for count in advances.values()), advances


# -- interrupted runs resume where the drivers parked ----------------------


def _interrupted(resume):
    """Prepare a session whose transmission run is cut at 3,000 events
    and then resumed with a per-event check (*resume* names which)."""
    def before(session):
        sim = session.sim
        run = sim.run

        def interrupted_run(**kwargs):
            with pytest.raises(SimulationError, match="max_events=3000"):
                run(max_events=3000)
            if resume == "stop_when":
                return run(stop_when=lambda s: False)
            while run(pause_at=sim.global_clock + 5000.0):
                pass
            return False

        sim.run = interrupted_run

    return before


@pytest.mark.parametrize("resume", ["stop_when", "pause_at"])
def test_resumed_run_continues_driven_threads(resume):
    """Resuming with ``stop_when``/``pause_at`` must carry on the driven
    threads, not restart their never-advanced generators."""
    payload = payload_bits(12, seed=3)
    _, plain = on_path(False, transmit, "mesi-es", seed=3, payload=payload)
    for driven in (True, False):
        session, result = on_path(
            driven, transmit, "mesi-es", seed=3, payload=payload,
            before=_interrupted(resume),
        )
        assert result.manifest.engine == ("driven" if driven else "generator")
        assert len(result.received) == len(payload)
        assert_same(result, plain)


# -- stand-down reasons ----------------------------------------------------


def _obfuscate(session):
    from repro.mitigation.hardware import attach_obfuscator

    attach_obfuscator(session.machine, suspicious_cores=range(16))


def _interpose(session):
    # Detection monitors interpose by binding wrappers into the
    # machine's instance dict; the run-entry check must notice.
    session.machine.load = session.machine.load


def _simulation_faults():
    from repro.faults import FaultPlan

    plan = FaultPlan.build_simulation(
        seed=3, rate_per_mcycle=10.0, window_cycles=500_000.0,
    )
    assert plan.simulation_events
    return plan.to_json()


def test_traced_session_runs_driven():
    """Tracing no longer stands a session down: the drivers issue every
    access through the tap, so the recorded stream is the generator
    path's, byte for byte."""
    session, driven = on_path(True, transmit, "mesi-es", trace=True)
    assert session.sim.stand_down_reason is None
    assert driven.manifest.engine == "driven"
    reference, generator = on_path(False, transmit, "mesi-es", trace=True)
    assert generator.manifest.engine == "generator"
    assert session.recorder.emitted > 0
    assert session.recorder.digest() == reference.recorder.digest()
    assert_same(driven, generator)


def test_segments_stand_down_at_build(monkeypatch):
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    session, result = on_path(True, transmit, "mesi-es")
    assert session.sim.stand_down_reason == "segments"
    assert result.manifest.engine == "generator:segments"


def test_simulation_faults_stand_down_at_build():
    session, result = on_path(
        True, transmit, "mesi-es", faults=_simulation_faults(),
    )
    assert session.sim.stand_down_reason == "faults"
    assert result.manifest.engine == "generator:faults"


RUN_ENTRY_REASONS = [
    pytest.param("obfuscation", _obfuscate, id="obfuscation"),
    pytest.param("interposition", _interpose, id="interposition"),
]


@pytest.mark.parametrize("reason, prepare", RUN_ENTRY_REASONS)
def test_run_entry_stands_down(reason, prepare):
    """A second transmission on a driven session finds the machine
    changed and runs on the generator path, identically."""
    def two_transmissions():
        session, _ = transmit("mesi-es")
        prepare(session)
        return session, session.transmit([1, 0, 1])

    session, driven = on_path(True, two_transmissions)
    assert session.sim.stand_down_reason == reason
    assert driven.manifest.engine == f"generator:{reason}"
    _, generator = on_path(False, two_transmissions)
    assert_same(driven, generator)


@pytest.mark.parametrize("reason, prepare", RUN_ENTRY_REASONS)
def test_stand_down_rebuilds_parked_workers(reason, prepare, monkeypatch):
    """Workers parked mid-loop by a cut-short run go back to generators
    rebuilt at their exact position.  The controller and spy run as
    spec-less generators here: a parked spy or controller cannot be
    rebuilt."""
    rebuilds = []
    real = drivers._WorkerDriver.rebuild

    def counted(self):
        rebuilds.append(self.state)
        return real(self)

    monkeypatch.setattr(drivers._WorkerDriver, "rebuild", counted)

    def cut_then_changed():
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=11, calibration_samples=120,
        ))
        cfg = session.config
        control = TrojanControl()
        decoder = BitDecoder(session.bands, cfg.scenario, cfg.params)
        spy_result = SpyResult()
        session.spawn_workers(worker_roles(cfg.scenario), control, 0)
        session.spawn_controller(controller_program(
            control, cfg.scenario, cfg.params, session.trojan_va,
            list(PAYLOAD),
        ), 0)
        session.kernel.spawn(
            session.spy_proc, "spy-0",
            spy_program(spy_result, decoder, cfg.params, session.spy_va),
            core_id=cfg.spy_core,
        )
        session.sim.run(stop_when=lambda sim: sim.global_clock > 40_000.0)
        prepare(session)
        session.sim.run()
        return session, [(s.timestamp, s.latency) for s in spy_result.samples]

    driven, driven_samples = on_path(True, cut_then_changed)
    assert driven.sim.stand_down_reason == reason
    assert rebuilds
    generator, generator_samples = on_path(False, cut_then_changed)
    assert driven_samples == generator_samples
    assert driven.sim.global_clock == generator.sim.global_clock
    assert driven.machine.stats.counters() == generator.machine.stats.counters()


def _attach_monitor(session):
    from repro.detection.events import EventMonitor

    EventMonitor(session.machine).attach()


def _attach_second_tap(session):
    from repro.obs import MachineTap, TraceRecorder

    MachineTap(session.machine, TraceRecorder()).attach()


@pytest.mark.parametrize("attach", [_attach_monitor, _attach_second_tap],
                         ids=["monitor", "second-tap"])
def test_late_interposition_stands_traced_session_down(attach, monkeypatch):
    """A traced session's drivers hoisted the tap's wrappers at spawn.
    A monitor or a second tap attached after a cut-short run is a
    binding they never saw: the session stands down with
    ``"interposition"`` — the inline L1 path must not skip it — and the
    first tap still records the generator path's stream."""
    def cut_then_attached():
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=11, calibration_samples=120, trace=True,
        ))
        cfg = session.config
        control = TrojanControl()
        decoder = BitDecoder(session.bands, cfg.scenario, cfg.params)
        spy_result = SpyResult()
        session.spawn_workers(worker_roles(cfg.scenario), control, 0)
        session.spawn_controller(controller_program(
            control, cfg.scenario, cfg.params, session.trojan_va,
            list(PAYLOAD),
        ), 0)
        session.kernel.spawn(
            session.spy_proc, "spy-0",
            spy_program(spy_result, decoder, cfg.params, session.spy_va),
            core_id=cfg.spy_core,
        )
        session.sim.run(stop_when=lambda sim: sim.global_clock > 40_000.0)
        attach(session)
        session.sim.run()
        return session, [(s.timestamp, s.latency) for s in spy_result.samples]

    driven, driven_samples = on_path(True, cut_then_attached)
    assert driven.sim.stand_down_reason == "interposition"
    generator, generator_samples = on_path(False, cut_then_attached)
    assert driven_samples == generator_samples
    assert driven.recorder.digest() == generator.recorder.digest()
    assert driven.machine.stats.counters() == generator.machine.stats.counters()


def test_resync_stands_down_mid_session():
    """A lost handshake stands the session down before the retry."""
    def lost_handshake():
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=11, calibration_samples=120,
            params=ProtocolParams(max_poll_slots=2), resync_attempts=1,
        ))
        with pytest.raises(SyncTimeoutError):
            session.transmit(list(PAYLOAD))
        return session

    driven = on_path(True, lost_handshake)
    assert driven.sim.stand_down_reason == "resync"
    generator = on_path(False, lost_handshake)
    assert driven.sim.global_clock == generator.sim.global_clock
    assert driven.machine.stats.counters() == generator.machine.stats.counters()


def test_stand_down_is_idempotent():
    session, _ = on_path(True, transmit, "mesi-es")
    session.sim.stand_down("resync")
    session.sim.stand_down("obfuscation")
    assert session.sim.stand_down_reason == "resync"
    # The session still transmits correctly on the generator path.
    result = session.transmit([1, 0, 1, 1])
    assert result.accuracy == 1.0
    assert result.manifest.engine == "generator:resync"


TRANSMIT_OPTS = "tests.runner_points:transmit_opts"


def runner_engine(point):
    """Run *point* alone through a serial runner; return its result."""
    clear_calibration_memo()
    spec = ExperimentSpec(experiment="stand-down", points=(point,))
    return Runner(jobs=1, cache=None).run(spec).values[0]


def test_runner_point_traced_by_env_runs_driven(monkeypatch):
    """``REPRO_TRACE`` traces a runner point's session and it still
    runs driven, transmitting and recording as the generator path."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    point = Point(
        fn="tests.runner_points:transmit_point",
        params={"cell": "mesi-es", "seed": 5, "bits": 3},
    )
    result = runner_engine(point)
    assert result.accuracy == 1.0
    assert result.manifest.engine == "driven"
    assert result.manifest.traced_events > 0
    monkeypatch.setattr(drivers, "DRIVERS", {})
    generator = runner_engine(point)
    assert generator.manifest.engine == "generator"
    assert_same(result, generator)


def test_runner_point_with_recorder_runs_driven(monkeypatch):
    """An explicit recorder session runs driven, as the generator path."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    point = Point(fn=TRANSMIT_OPTS, params={
        "cell": "mesi-es", "seed": 5, "bits": 3, "trace": True,
    })
    result = runner_engine(point)
    assert result.accuracy == 1.0
    assert result.manifest.engine == "driven"
    assert result.manifest.traced_events > 0
    monkeypatch.setattr(drivers, "DRIVERS", {})
    generator = runner_engine(point)
    assert generator.manifest.engine == "generator"
    assert_same(result, generator)


def test_runner_point_records_faults_stand_down(monkeypatch):
    """A point carrying a simulation fault plan stands down at build."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    result = runner_engine(Point(fn=TRANSMIT_OPTS, params={
        "cell": "mesi-es", "seed": 5, "bits": 3,
        "faults": _simulation_faults(),
    }))
    assert len(result.received) == 3
    assert result.manifest.engine == "generator:faults"


def test_runner_point_records_obfuscation_stand_down(monkeypatch):
    """An obfuscator attached after build stands the session down at
    run entry — distinct from every build-time reason above."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    result = runner_engine(Point(fn=TRANSMIT_OPTS, params={
        "cell": "mesi-es", "seed": 5, "bits": 3, "obfuscate": True,
    }))
    # The obfuscator is a defense: the transmission completes but the
    # channel is degraded, so only the payload sent is pinned.
    assert result.sent == [1, 1, 1]
    assert result.manifest.engine == "generator:obfuscation"


def test_runner_points_run_driven_without_opting_in(monkeypatch):
    """Serial and pool dispatch both reach the drivers, with no runner
    option, and agree bit for bit."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    spec = ExperimentSpec(experiment="engine-paths", points=tuple(
        Point(fn="tests.runner_points:transmit_point",
              params={"cell": cell, "seed": seed, "bits": 3})
        for cell in ("mesi-es", "moesi-ostate")
        for seed in (0, 1)
    ))
    serial = Runner(jobs=1, cache=None).run(spec).values
    pooled = Runner(jobs=2, cache=None).run(spec).values
    for one, other in zip(serial, pooled):
        assert one.manifest.engine == other.manifest.engine == "driven"
        assert transmission_digest(one) == transmission_digest(other)
