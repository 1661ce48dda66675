"""One engine, two paths: driven channel threads vs their generators.

:meth:`repro.sim.engine.Simulator.run` runs the trojan workers, the
controller, the spy and the kernel-build noise workers through
generator-free drivers (:mod:`repro.sim.drivers`) in every session.  The drivers are a pure
performance play, so their one contract is bit-identity with the
generator programs.  The differential harness
(``tests/test_fast_paths.py``) draws random points across every fast
path; these tests pin fixed cases on the driver path alone:

* every cell of the scenario registry, the five golden digests and the
  noisy ``matrix_cold`` point shape transmit identically on both paths
  (result pickles equal once ``manifest.engine`` is normalised);
* the multi-bit symbol channel and every driver class actually run;
* a run cut short and resumed by ``run()`` or ``pause_at`` carries on
  from where the drivers parked, as the generators do, and a
  ``pause_at`` run still advances the drivers inline;
* traced, faulted, obfuscated, interposed, resynced and segmented
  sessions run driven and identically — a binding attached before the
  cohort spawns is read at spawn, under the inline L1 path too, and an
  obfuscation policy attached while the cohort is parked is read live;
* a checkpoint stores each driver's position: restored drivers resume
  mid-FSM bit-identically, and a driven record cannot restore without
  a driver.

The generator path is reached by emptying the driver table — a test
seam, not a knob.  The calibration memo is process-local, so each run
clears it first; otherwise the second run reuses the first run's
calibration pass and the manifests (not the transmissions) drift apart.
"""

import pickle
import tempfile
from dataclasses import replace

import pytest

from repro.channel.calibration import clear_calibration_memo
from repro.channel.config import ProtocolParams
from repro.channel.decoder import BitDecoder
from repro.channel.scenarios import SCENARIOS
from repro.channel.session import ChannelSession, SessionConfig, execute_point
from repro.channel.spy import SpyResult, spy_program
from repro.channel.trojan import TrojanControl, controller_program, worker_roles
from repro.checkpoint.core import capture, restore
from repro.errors import (
    CalibrationError,
    CheckpointError,
    SimulationError,
    SyncTimeoutError,
)
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
    _, driven = on_path(True, transmit, cell)
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


def test_every_driver_advances(monkeypatch):
    """Equivalence must not pass vacuously: every class in ``DRIVERS``
    must run on the noisy point shape, the noise driver included."""
    advances = dict.fromkeys(drivers.DRIVERS.values(), 0)
    for cls in advances:
        real = cls.advance

        def counted(self, bound, rt, _real=real, _cls=cls):
            advances[_cls] += 1
            return _real(self, bound, rt)

        monkeypatch.setattr(cls, "advance", counted)
    on_path(True, transmit, "mesi-es", noise_threads=1)
    assert len(advances) == len(drivers.DRIVERS)
    assert all(count > 0 for count in advances.values()), advances


# -- interrupted runs resume where the drivers parked ----------------------


def _interrupted(resume):
    """Prepare a session whose transmission run is cut at 3,000 events
    and then resumed by one plain run or by ``pause_at`` segments
    (*resume* names which)."""
    def before(session):
        sim = session.sim
        run = sim.run

        def interrupted_run(**kwargs):
            with pytest.raises(SimulationError, match="max_events=3000"):
                run(max_events=3000)
            if resume == "run":
                return run()
            while run(pause_at=sim.global_clock + 5000.0):
                pass
            return False

        sim.run = interrupted_run

    return before


@pytest.mark.parametrize("resume", ["run", "pause_at"])
def test_resumed_run_continues_driven_threads(resume):
    """Resuming with ``run()``/``pause_at`` must carry on the driven
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


def test_pause_at_run_advances_drivers_inline(monkeypatch):
    """Pausing every 5,000 cycles leaves the inline runs in place: the
    drivers execute many ops per advance, and the paused transmission
    is the uninterrupted one."""
    advances = []
    for cls in drivers.DRIVERS.values():
        real = cls.advance

        def counted(self, bound, rt, _real=real):
            advances.append(bound)
            return _real(self, bound, rt)

        monkeypatch.setattr(cls, "advance", counted)

    pauses = []

    def paused(session):
        sim = session.sim
        run = sim.run

        def segmented_run(**kwargs):
            while run(pause_at=(sim.global_clock // 5_000.0 + 1) * 5_000.0):
                pauses.append(sim.global_clock)
            return False

        sim.run = segmented_run

    session, result = on_path(True, transmit, "mesi-es", before=paused)
    events = session.machine.stats.counters()["engine.events"]
    paused_advances = len(advances)
    advances.clear()
    _, plain = on_path(True, transmit, "mesi-es")
    assert len(pauses) > 3
    assert 0 < paused_advances < events
    # A pause cuts at most one inline run of each live driven thread.
    drivers_live = len(worker_roles(session.config.scenario)) + 2
    assert paused_advances <= len(advances) + drivers_live * len(pauses)
    assert_same(result, plain)


# -- one engine path, decided at build -------------------------------------
#
# The machine changes below return what they observe, so a test can
# check that a binding the drivers read at spawn really sees every
# access the generator path issues through it.  Obfuscation is the one
# change a parked cohort reads live (inside ``machine.load``); the
# bindings attach before the cohort spawns, as the trace tap does.


def _obfuscate(session):
    from repro.mitigation.hardware import attach_obfuscator

    attach_obfuscator(session.machine, suspicious_cores=range(16))


def _interpose(session):
    # An op wrapper binds into the machine's instance dict, which the
    # drivers read at spawn.
    machine = session.machine
    load = machine.load
    calls = []

    def logged(core_id, paddr, now=0.0):
        calls.append((core_id, paddr, now))
        return load(core_id, paddr, now)

    machine.load = logged
    return lambda: calls


def _attach_monitor(session):
    # An external monitor wrapping both load and flush on top of the
    # tap, read by the drivers at spawn.
    machine = session.machine
    load, flush = machine.load, machine.flush
    calls = {"load": 0, "flush": 0}

    def counted_load(core_id, paddr, now=0.0):
        calls["load"] += 1
        return load(core_id, paddr, now)

    def counted_flush(core_id, paddr, now=0.0):
        calls["flush"] += 1
        return flush(core_id, paddr, now)

    machine.load = counted_load
    machine.flush = counted_flush
    return lambda: dict(calls)


def _attach_second_tap(session):
    from repro.obs import MachineTap, TraceRecorder

    recorder = TraceRecorder()
    MachineTap(session.machine, recorder).attach()
    return recorder.digest


def _simulation_faults():
    from repro.faults import FaultPlan
    from repro.faults.plan import SIMULATION_KINDS

    plan = FaultPlan.build_simulation(
        seed=7, rate_per_mcycle=50.0, window_cycles=100_000.0,
        kinds=SIMULATION_KINDS,
    )
    assert plan.simulation_events
    return plan.to_json()


def assert_driven(session, result=None):
    assert session.sim.engine_path == "driven"
    if result is not None:
        assert result.manifest.engine == "driven"


def assert_same_run(driven, generator):
    """Two sessions left the simulator and machine in the same state."""
    assert driven.sim.global_clock == generator.sim.global_clock
    assert driven.machine.stats.counters() == generator.machine.stats.counters()
    if driven.recorder is not None:
        assert driven.recorder.emitted > 0
        assert driven.recorder.digest() == generator.recorder.digest()


def test_traced_session_runs_driven():
    """Tracing does not stand a session down: the drivers issue every
    access through the tap, so the recorded stream is the generator
    path's, byte for byte."""
    session, driven = on_path(True, transmit, "mesi-es", trace=True)
    assert_driven(session, driven)
    reference, generator = on_path(False, transmit, "mesi-es", trace=True)
    assert generator.manifest.engine == "generator"
    assert_same_run(session, reference)
    assert_same(driven, generator)


def test_segments_stand_down_at_build(monkeypatch, tmp_path):
    """A segmented point runs driven: it stores segments of driver
    positions, a rerun resumes from the newest one on the drivers, and
    both transmit as the unsegmented generator path does."""
    def point():
        return execute_point(
            spec="mesi-es", payload=list(PAYLOAD), seed=11,
            calibration_samples=120,
        )

    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)
    reference = on_path(False, point)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    segmented = on_path(True, point)
    resumed = on_path(True, point)
    assert segmented.manifest.segments_stored > 0
    assert resumed.manifest.resumed_from is not None
    for result in (segmented, resumed):
        assert result.manifest.engine == "driven"
        assert transmission_digest(result) == transmission_digest(reference)
        # Equal values (the manifest does not compare); a resumed
        # result's pickle shares unpickled objects differently.
        assert result == reference


def test_traced_segment_armed_point_runs_driven():
    """A traced session never checkpoints, so ``REPRO_SEGMENT_CYCLES``
    does not arm it: it runs driven and stores no segment, with the
    untraced reference's result."""
    def point():
        return execute_point(
            spec="mesi-es", payload=payload_bits(8, seed=7), seed=7,
            calibration_samples=120,
        )

    reference = on_path(False, point)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setenv("REPRO_CACHE_DIR", tmp)
        mp.setenv("REPRO_SEGMENT_CYCLES", "25000")
        mp.setenv("REPRO_TRACE", "1")
        clear_calibration_memo()
        traced = point()
    assert traced.manifest.engine == "driven"
    assert traced.manifest.traced_events > 0
    assert traced.manifest.segments_stored == 0
    assert transmission_digest(traced) == transmission_digest(reference)
    assert (pickle.dumps(replace(traced, manifest=None))
            == pickle.dumps(replace(reference, manifest=None)))


def test_simulation_faults_stand_down_at_build():
    """A simulation fault plan of all four kinds runs driven:
    preemption tokens reach the drivers through the scheduler, KSM
    unmerges through per-access translation, and the fault threads run
    as generators beside them."""
    session, driven = on_path(
        True, transmit, "mesi-es", faults=_simulation_faults(),
    )
    assert_driven(session, driven)
    reference, generator = on_path(
        False, transmit, "mesi-es", faults=_simulation_faults(),
    )
    assert_same_run(session, reference)
    assert_same(driven, generator)


MACHINE_CHANGES = [
    pytest.param("obfuscation", _obfuscate, id="obfuscation"),
    pytest.param("interposition", _interpose, id="interposition"),
]


def observed(observe):
    """What a machine change's observer saw (``None`` if it has none)."""
    return None if observe is None else observe()


@pytest.mark.parametrize("reason, prepare", MACHINE_CHANGES)
def test_run_entry_stands_down(reason, prepare):
    """A second transmission on a driven session finds the machine
    changed (*reason*) and still runs driven, identically."""
    def two_transmissions():
        session, _ = transmit("mesi-es")
        observe = prepare(session)
        return session, session.transmit([1, 0, 1]), observed(observe)

    session, driven, driven_seen = on_path(True, two_transmissions)
    assert_driven(session, driven)
    _, generator, generator_seen = on_path(False, two_transmissions)
    assert driven_seen == generator_seen
    assert_same(driven, generator)


def _parked(session):
    """Names of the live driven threads that have executed ops."""
    return [
        thread.name for thread in session.sim.threads
        if thread.driver is not None and thread.ops_executed
        and not thread.done
    ]


def _cohort_cut_short(prepare, **config):
    """Spawn one transmission's cohort by hand — driven workers, the
    controller and spy as spec-less generators — pause it at 40,000
    cycles and finish the run.  *prepare* applies before the spawn, or
    at the pause when it is :func:`_obfuscate`.

    Returns the session, the threads parked driven at the cut, and the
    spy's samples with what *prepare*'s observer saw.
    """
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=11, calibration_samples=120, **config,
    ))
    cfg = session.config
    control = TrojanControl()
    decoder = BitDecoder(session.bands, cfg.scenario, cfg.params)
    spy_result = SpyResult()
    live = prepare is _obfuscate
    observe = None if live else prepare(session)
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
    assert session.sim.run(pause_at=40_000.0)
    parked = _parked(session)
    if live:
        observe = prepare(session)
    assert not session.sim.run()
    samples = [(s.timestamp, s.latency) for s in spy_result.samples]
    return session, parked, (samples, observed(observe))


@pytest.mark.parametrize("reason, prepare", MACHINE_CHANGES)
def test_stand_down_rebuilds_parked_workers(reason, prepare):
    """Workers parked mid-loop by a paused run stay driven and resume
    identically on a changed machine (*reason*): obfuscation attached
    at the pause, an interposed load before the spawn."""
    driven, parked, driven_seen = on_path(True, _cohort_cut_short, prepare)
    assert_driven(driven)
    assert parked and all(name.startswith("trojan-L") for name in parked)
    generator, _, generator_seen = on_path(False, _cohort_cut_short, prepare)
    assert driven_seen == generator_seen
    assert_same_run(driven, generator)


@pytest.mark.parametrize("attach", [_attach_monitor, _attach_second_tap],
                         ids=["monitor", "second-tap"])
def test_late_interposition_stands_traced_session_down(attach):
    """A traced session's drivers read the tap's wrappers at spawn.  A
    load/flush wrapper or a second tap attached on top before the spawn
    is read with them — the inline L1 path must not skip it — so
    through a paused and resumed run it sees what it sees on the
    generator path, and the first tap still records the generator
    path's stream."""
    driven, parked, driven_seen = on_path(
        True, _cohort_cut_short, attach, trace=True,
    )
    assert_driven(driven)
    assert parked
    generator, _, generator_seen = on_path(
        False, _cohort_cut_short, attach, trace=True,
    )
    assert driven_seen == generator_seen
    assert_same_run(driven, generator)


def test_trace_started_on_a_built_noisy_session_records_the_noise():
    """``start_trace()`` on a built session whose kernel-build noise
    workers were spawned driven, untraced: their bursts read the tap's
    bindings, so the recording holds the workers' loads and stores and
    equals, like the result, that of a session traced from
    construction."""
    def noisy(trace):
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=11, calibration_samples=120,
            noise_threads=2, trace=trace,
        ))
        assert [t.driver is not None for t in session.noise_threads] == [
            True, True,
        ]
        recorder = session.start_trace()
        # From here on both recordings must see the same stream.
        recorder.clear()
        return session, session.transmit(list(PAYLOAD))

    late, late_result = on_path(True, noisy, False)
    early, early_result = on_path(True, noisy, True)
    noise_cores = {thread.core_id for thread in late.noise_threads}
    assert [t.name.split("-")[0] for t in late.noise_threads] == [
        "kbuild", "kbuild",
    ]
    assert not noise_cores & set(late.reserved_cores())
    for category in ("load", "store"):
        seen = {
            event.data["core"] for event in late.recorder.select(category)
        }
        assert noise_cores <= seen, category
    assert late.recorder.dropped == early.recorder.dropped == 0
    assert late.recorder.digest() == early.recorder.digest()
    assert transmission_digest(late_result) == transmission_digest(
        early_result
    )
    assert (pickle.dumps(replace(late_result, manifest=None))
            == pickle.dumps(replace(early_result, manifest=None)))


def _transmission_cut_short(prepare, trace):
    """One transmission whose run pauses 40,000 cycles in, with every
    channel thread parked mid-program, and then finishes.  *prepare*
    changes the session before the cohort spawns, or at the pause when
    it is :func:`_obfuscate`.

    Returns the session, its result, the threads parked driven at the
    cut and what *prepare*'s observer saw.
    """
    parked, observers = [], []

    live = prepare is _obfuscate

    def before(session):
        sim = session.sim
        run = sim.run
        if not live:
            observers.append(prepare(session))

        def cut_then_changed(**kwargs):
            assert run(pause_at=sim.global_clock + 40_000.0)
            parked.extend(_parked(session))
            if live:
                observers.append(prepare(session))
            return run(**kwargs)

        sim.run = cut_then_changed

    session, result = transmit("mesi-es", trace=trace, before=before)
    return session, result, parked, observed(observers[0])


@pytest.mark.parametrize("trace, prepare", [
    pytest.param(False, _obfuscate, id="obfuscation"),
    pytest.param(False, _interpose, id="interposition"),
    pytest.param(True, _attach_monitor, id="traced-monitor"),
    pytest.param(True, _attach_second_tap, id="traced-second-tap"),
])
def test_cut_short_transmission_then_changed(trace, prepare):
    """The whole cohort driven — workers, controller and spy all parked
    mid-program by a pause — on a changed machine: obfuscation
    attached at the pause, the bindings before the spawn."""
    session, driven, parked, driven_seen = on_path(
        True, _transmission_cut_short, prepare, trace,
    )
    assert_driven(session, driven)
    # Names: trojan-<location><index>-<tag>, trojan-ctl-<tag>, spy-<tag>.
    roles = {name.rsplit("-", 1)[0].rstrip("0123456789") for name in parked}
    assert roles == {"trojan-L", "trojan-ctl", "spy"}, parked
    reference, generator, _, generator_seen = on_path(
        False, _transmission_cut_short, prepare, trace,
    )
    assert driven_seen == generator_seen
    assert_same_run(session, reference)
    assert_same(driven, generator)


def test_resync_stands_down_mid_session():
    """A lost handshake reaps the attempt's cohort and retries with a
    fresh one, spawned driven."""
    def lost_handshake():
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=11, calibration_samples=120,
            params=ProtocolParams(max_poll_slots=2), resync_attempts=1,
        ))
        with pytest.raises(SyncTimeoutError):
            session.transmit(list(PAYLOAD))
        return session

    driven = on_path(True, lost_handshake)
    assert_driven(driven)
    assert_same_run(driven, on_path(False, lost_handshake))


def test_recovering_resync_runs_driven():
    """A severed shared page starves the first handshake; the retry
    recovers on the drivers exactly as on the generator programs."""
    from tests.test_faults import PAYLOAD as FAULT_PAYLOAD
    from tests.test_faults import make_session, severed_page_plan

    def severed():
        session = make_session(faults=severed_page_plan(), resync_attempts=2)
        return session, session.transmit(FAULT_PAYLOAD)

    session, driven = on_path(True, severed)
    assert_driven(session, driven)
    reference, generator = on_path(False, severed)
    assert driven.resyncs == generator.resyncs == 1
    assert_same_run(session, reference)
    assert_same(driven, generator)


def _positions(sim):
    """Each live driven thread's stored position, by thread name."""
    return {
        thread.name: {
            name: getattr(thread.driver, name)
            for name in thread.driver.POSITION
        }
        for thread in sim.live_run_order() if thread.driver is not None
    }


def _checkpointed_mid_transmission():
    """A driven transmission paused 40,000 cycles into its run, captured,
    and finished; returns its result, the checkpoint blob, the driver
    positions at the pause and the trojan's final control state."""
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=11, calibration_samples=120,
    ))
    taken = []

    def pause_capture_finish(ctx):
        sim = session.sim
        assert sim.run(pause_at=sim.global_clock + 40_000.0)
        taken.append((capture(session, ctx).to_bytes(), _positions(sim)))
        sim.run()
        taken.append(dict(vars(ctx.control)))

    session._run_transmission = pause_capture_finish
    result = session.transmit(list(PAYLOAD))
    return (result, *taken[0], taken[1])


def test_stand_down_refuses_started_driver(monkeypatch):
    """A checkpoint of driven threads holds driver positions only; with
    the driver table emptied, restore refuses to rebuild them."""
    _, blob, _, _ = on_path(True, _checkpointed_mid_transmission)
    monkeypatch.setattr(drivers, "DRIVERS", {})
    with pytest.raises(CheckpointError, match="restores without a driver"):
        restore(blob)


def test_stand_down_is_idempotent():
    """Drivers restored from a mid-transmission checkpoint resume
    mid-FSM with the captured positions, and finish bit-identically to
    the run that never paused, the trojan's control state included."""
    original, blob, positions, control = on_path(
        True, _checkpointed_mid_transmission,
    )
    # Mid-FSM: the spy is receiving and the controller is mid-payload.
    spy = positions["spy-0"]
    assert spy["phase"] == 2 and spy["next_slot"] is not None
    assert 0 < positions["trojan-ctl-0"]["index"]
    session, ctx = restore(blob)
    assert _positions(session.sim) == positions
    resumed = session.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert_driven(session, resumed)
    assert vars(ctx.control) == control
    assert control["bits_sent"] == PAYLOAD
    _, generator = on_path(False, transmit, "mesi-es")
    for reference in (original, generator):
        assert_same(resumed, reference)
        assert resumed.manifest == replace(reference.manifest, engine="driven")


TRANSMIT_OPTS = "tests.runner_points:transmit_opts"


def runner_engine(point):
    """Run *point* alone through a serial runner; return its result."""
    clear_calibration_memo()
    spec = ExperimentSpec(experiment="engine-path", points=(point,))
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
    """A point carrying a simulation fault plan runs driven, as the
    generator path."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    point = Point(fn=TRANSMIT_OPTS, params={
        "cell": "mesi-es", "seed": 5, "bits": 3,
        "faults": _simulation_faults(),
    })
    result = runner_engine(point)
    assert len(result.received) == 3
    assert result.manifest.engine == "driven"
    monkeypatch.setattr(drivers, "DRIVERS", {})
    assert_same(result, runner_engine(point))


def test_runner_point_records_obfuscation_stand_down(monkeypatch):
    """An obfuscator attached after build leaves the session driven, as
    the generator path."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    point = Point(fn=TRANSMIT_OPTS, params={
        "cell": "mesi-es", "seed": 5, "bits": 3, "obfuscate": True,
    })
    result = runner_engine(point)
    # The obfuscator is a defense: the transmission completes but the
    # channel is degraded, so only the payload sent is pinned.
    assert result.sent == [1, 1, 1]
    assert result.manifest.engine == "driven"
    monkeypatch.setattr(drivers, "DRIVERS", {})
    assert_same(result, runner_engine(point))


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
