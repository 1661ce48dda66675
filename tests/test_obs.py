"""Tests for the structured tracing subsystem (``repro.obs``)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.channel.config import scenario_by_name
from repro.channel.decoder import Sample
from repro.channel.session import ChannelSession, SessionConfig
from repro.mem.cacheline import CoherenceState
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import check_transition_events
from repro.obs import (
    MachineTap,
    RunManifest,
    TraceEvent,
    TraceRecorder,
    clear_runner_recorder,
    text_timeline,
    to_chrome_trace,
    trace_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.recorder import runner_recorder
from repro.runner import ExperimentSpec, Point, ResultCache, Runner
from repro.sim.rng import RngStreams


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------

def test_recorder_appends_in_order():
    rec = TraceRecorder(capacity=8)
    for i in range(5):
        rec.emit(float(i), "load", "l1_hit", {"core": i})
    assert len(rec) == 5
    assert rec.emitted == 5
    assert rec.dropped == 0
    assert [e.ts for e in rec.events()] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_recorder_ring_wraps_and_counts_dropped():
    rec = TraceRecorder(capacity=4)
    for i in range(10):
        rec.emit(float(i), "load", "l1_hit", {"i": i})
    assert len(rec) == 4
    assert rec.emitted == 10
    assert rec.dropped == 6
    # Oldest-first order of the retained tail.
    assert [e.data["i"] for e in rec.events()] == [6, 7, 8, 9]


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_recorder_clear():
    rec = TraceRecorder(capacity=2)
    rec.emit(1.0, "a", "b")
    rec.emit(2.0, "a", "b")
    rec.emit(3.0, "a", "b")
    rec.clear()
    assert len(rec) == 0 and rec.emitted == 0 and rec.dropped == 0
    rec.emit(4.0, "a", "b")
    assert [e.ts for e in rec.events()] == [4.0]


def test_recorder_select_filters_categories():
    rec = TraceRecorder()
    rec.emit(0.0, "load", "l1_hit")
    rec.emit(1.0, "flush", "clflush")
    rec.emit(2.0, "load", "dram")
    assert [e.ts for e in rec.select("load")] == [0.0, 2.0]
    assert [e.ts for e in rec.select("load", "flush")] == [0.0, 1.0, 2.0]


def test_recorder_digest_stable_and_sensitive():
    def build(latency):
        rec = TraceRecorder()
        rec.emit(10.0, "load", "l1_hit", {"core": 0, "latency": latency})
        rec.emit(20.0, "flush", "clflush", {"core": 1})
        return rec

    assert build(4.0).digest() == build(4.0).digest()
    assert build(4.0).digest() != build(5.0).digest()
    # Dropping an event (smaller ring) moves the digest even when the
    # retained stream is identical.
    small = TraceRecorder(capacity=1)
    small.emit(10.0, "load", "l1_hit", {"core": 0, "latency": 4.0})
    small.emit(20.0, "flush", "clflush", {"core": 1})
    big = build(4.0)
    assert [e.name for e in small.events()] == ["clflush"]
    assert small.digest() != big.digest()


def _payload(i):
    return {"i": i}


def test_recorder_sink_shares_the_retained_object():
    rec = TraceRecorder()
    rec.record(0.0, "load", "l1_hit", _payload, (0,))
    seen = []
    rec.subscribe(seen.append)
    rec.record(1.0, "load", "dram", _payload, (1,))
    rec.emit(2.0, "flush", "clflush", {"i": 2})
    events = rec.events()
    assert [e.data["i"] for e in events] == [0, 1, 2]
    assert len(seen) == 2
    assert seen[0] is events[1] and seen[1] is events[2]
    # A read builds raw records once; later reads return the same objects.
    assert all(a is b for a, b in zip(events, rec.events()))


def test_recorder_ring_mixes_raw_and_built_entries():
    rec = TraceRecorder(capacity=4)
    for i in range(10):
        if i % 2:
            rec.emit(float(i), "load", "l1_hit", {"i": i})
        else:
            rec.record(float(i), "load", "l1_hit", _payload, (i,))
        if i == 5:
            # Build the ring mid-stream: later raw records overwrite
            # built entries in place.
            assert [e.data["i"] for e in rec.events()] == [2, 3, 4, 5]
    assert rec.emitted == 10
    assert rec.dropped == 6
    assert [e.data["i"] for e in rec.events()] == [6, 7, 8, 9]
    assert [e.ts for e in rec.select("load")] == [6.0, 7.0, 8.0, 9.0]


def test_recorder_digest_independent_of_read_timing():
    def fill(rec, read_every):
        for i in range(12):
            rec.record(float(i), "load", "l1_hit", _payload, (i,))
            rec.emit(float(i), "phase", "p", {"mark": "i"})
            if read_every and i % read_every == 0:
                rec.events()
                rec.digest()
        return rec.digest()

    assert fill(TraceRecorder(capacity=16), 0) == fill(
        TraceRecorder(capacity=16), 5)
    assert fill(TraceRecorder(), 0) == fill(TraceRecorder(), 3)
    # A raw record digests as the equivalent emitted event.
    raw, built = TraceRecorder(), TraceRecorder()
    raw.record(1.0, "load", "l1_hit", _payload, (7,))
    built.emit(1.0, "load", "l1_hit", {"i": 7})
    assert raw.digest() == built.digest()


def test_trace_event_to_json():
    event = TraceEvent(1.5, "phase", "calibrate", {"mark": "B"})
    assert event.to_json() == {
        "ts": 1.5, "category": "phase", "name": "calibrate",
        "data": {"mark": "B"},
    }


def test_trace_enabled_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert trace_enabled() is False
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert trace_enabled() is False
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled() is True


# ----------------------------------------------------------------------
# MachineTap
# ----------------------------------------------------------------------

def quiet_config(**kwargs) -> MachineConfig:
    from repro.mem.latency import NoiseModel

    return MachineConfig(noise=NoiseModel(enabled=False), **kwargs)


def test_tap_records_ops_and_transitions():
    machine = Machine(quiet_config(), RngStreams(3))
    rec = TraceRecorder()
    tap = MachineTap(machine, rec)
    tap.attach()
    addr = 64 * 1024
    machine.load(0, addr, now=10.0)
    machine.load(1, addr, now=20.0)
    machine.flush(0, addr, now=30.0)
    tap.detach()

    loads = rec.select("load")
    assert len(loads) == 2
    assert loads[0].data["core"] == 0
    assert loads[0].data["latency"] > 0
    flushes = rec.select("flush")
    assert len(flushes) == 1 and flushes[0].name == "clflush"
    transitions = rec.select("coherence")
    assert transitions, "state changes must be recorded"
    # First load takes core 0 to EXCLUSIVE, second demotes to SHARED.
    first = transitions[0].data
    assert ["0"] == list(first["states"])
    assert first["states"]["0"] == CoherenceState.EXCLUSIVE.value
    shared_event = next(
        e for e in transitions if len(e.data["states"]) == 2
    )
    assert set(shared_event.data["states"].values()) <= {
        CoherenceState.SHARED.value, CoherenceState.FORWARD.value
    }
    assert rec.select("hop"), "interconnect hops must be recorded"


def test_tap_events_replay_through_invariants():
    machine = Machine(quiet_config(), RngStreams(3))
    rec = TraceRecorder()
    MachineTap(machine, rec).attach()
    for i, addr in enumerate([0, 64, 4096, 0, 64]):
        machine.load(i % 4, addr, now=float(10 * i))
        if i % 3 == 2:
            machine.flush(0, addr, now=float(10 * i + 5))
    check_transition_events(rec.select("coherence"))


def test_check_transition_events_rejects_swmr_violation():
    from repro.errors import CoherenceError

    bad = [TraceEvent(0.0, "coherence", "transition", {
        "line": 64,
        "changed": [[1, "I", "M"]],
        "states": {"0": "E", "1": "M"},
    })]
    with pytest.raises(CoherenceError, match="multiple M/E|coexists"):
        check_transition_events(bad)


def test_check_transition_events_rejects_inconsistent_changed():
    from repro.errors import CoherenceError

    bad = [TraceEvent(0.0, "coherence", "transition", {
        "line": 64,
        "changed": [[0, "I", "M"]],
        "states": {"0": "E"},
    })]
    with pytest.raises(CoherenceError, match="snapshot shows"):
        check_transition_events(bad)


def test_check_transition_events_accepts_plain_mappings():
    check_transition_events([{"data": {
        "line": 0,
        "changed": [[0, "I", "E"]],
        "states": {"0": "E"},
    }}])


def test_tap_is_inert_on_quiet_machine():
    """Identical access sequence, identical latencies, tap or no tap."""
    def run(with_tap):
        machine = Machine(quiet_config(), RngStreams(11))
        rec = TraceRecorder()
        if with_tap:
            MachineTap(machine, rec).attach()
        out = []
        for i in range(40):
            core = i % 4
            addr = (i % 7) * 64
            value, latency, path = machine.load(core, addr, now=float(i * 50))
            out.append((value, latency, path))
            if i % 5 == 4:
                out.append(machine.flush(core, addr, now=float(i * 50 + 25)))
        return out

    assert run(False) == run(True)


def test_tap_detach_restores_bindings():
    machine = Machine(MachineConfig(), RngStreams(0))
    orig_ring = machine._ring_register
    orig_qpi = machine._qpi_register
    tap = MachineTap(machine, TraceRecorder())
    tap.attach()
    assert "load" in machine.__dict__
    assert machine._qpi_register is not orig_qpi
    assert machine._trace_tap is tap
    tap.detach()
    assert "load" not in machine.__dict__
    assert machine._ring_register is orig_ring
    assert machine._qpi_register is orig_qpi
    assert machine._trace_tap is None
    # Idempotent both ways.
    tap.detach()
    tap.attach()
    assert tap.attached
    tap.detach()


def test_tap_records_directory_events():
    machine = Machine(quiet_config(coherence="directory"), RngStreams(0))
    rec = TraceRecorder()
    tap = MachineTap(machine, rec)
    tap.attach()
    addr = 64 * 1024
    machine.load(0, addr, now=10.0)    # memory fill, E grant
    machine.load(4, addr, now=20.0)    # home forwards to the live owner
    machine.load(5, addr, now=30.0)    # memory-side (home) service
    machine.store(0, addr, 9, now=40.0)
    machine.flush(0, addr, now=50.0)
    kinds = [e.name for e in rec.select("directory")]
    assert kinds == [
        "memory_fill", "owner_forward", "home_service", "rfo", "flush",
    ]
    fill = rec.select("directory")[0]
    assert fill.data["state"] == "E"
    assert fill.data["owner"] == 0
    tap.detach()
    assert machine._dir_trace is None


def test_tap_chains_preexisting_dir_trace():
    machine = Machine(quiet_config(coherence="directory"), RngStreams(0))
    seen = []
    machine._dir_trace = lambda now, kind, base, entry: seen.append(kind)
    tap = MachineTap(machine, TraceRecorder())
    tap.attach()
    machine.load(0, 64 * 1024, now=1.0)
    assert seen == ["memory_fill"]     # the original hook still fires
    tap.detach()
    assert machine._dir_trace is not None  # restored, not cleared


def test_machine_reset_detaches_tap():
    machine = Machine(MachineConfig(), RngStreams(0))
    orig_qpi = machine._qpi_register
    tap = MachineTap(machine, TraceRecorder())
    tap.attach()
    machine.reset(RngStreams(1))
    assert not tap.attached
    assert machine._qpi_register is orig_qpi
    assert "load" not in machine.__dict__


def test_tap_detach_respects_outer_interposition():
    """A monitor wrapped on top of the tap survives tap.detach()."""
    machine = Machine(MachineConfig(), RngStreams(0))
    tap = MachineTap(machine, TraceRecorder())
    tap.attach()
    tapped_load = machine.load

    def outer(core_id, paddr, now=0.0):
        return tapped_load(core_id, paddr, now)

    machine.load = outer
    tap.detach()
    # load is left alone (outer wrapper still installed); the other two
    # op wrappers were the tap's own and are gone.
    assert machine.__dict__.get("load") is outer
    assert "store" not in machine.__dict__
    machine.reset()  # unconditional pop clears the leftover wrapper
    assert "load" not in machine.__dict__


# ----------------------------------------------------------------------
# Chrome export / text timeline
# ----------------------------------------------------------------------

def sample_recorder() -> TraceRecorder:
    rec = TraceRecorder()
    rec.emit(0.0, "phase", "calibrate", {"mark": "B"})
    rec.emit(5.0, "load", "l1_hit", {"core": 0, "line": 64, "latency": 4.0})
    rec.emit(9.0, "phase", "calibrate", {"mark": "E"})
    rec.emit(10.0, "fault", "preempt", {"index": 0, "start": 10.0,
                                        "end": 20.0, "magnitude": 1.0})
    return rec


def test_chrome_trace_schema_is_valid():
    trace = to_chrome_trace(sample_recorder())
    validate_chrome_trace(trace)
    # JSON-serializable end to end.
    json.loads(json.dumps(trace))
    phs = [e["ph"] for e in trace["traceEvents"]]
    assert "B" in phs and "E" in phs and "i" in phs and "M" in phs


def test_chrome_trace_carries_manifest():
    manifest = {"seed": 7, "scenario": "LExclc-LSharedb"}
    trace = to_chrome_trace(sample_recorder(), manifest=manifest)
    assert trace["otherData"]["manifest"] == manifest


def test_write_chrome_trace_roundtrip(tmp_path):
    out = write_chrome_trace(tmp_path / "trace.json", sample_recorder())
    loaded = json.loads(out.read_text())
    validate_chrome_trace(loaded)
    names = [e["name"] for e in loaded["traceEvents"]]
    assert "l1_hit" in names and "preempt" in names


@pytest.mark.parametrize("broken, message", [
    ([], "JSON object"),
    ({"traceEvents": "nope"}, "traceEvents"),
    ({"traceEvents": [{"ph": "i", "ts": 0.0, "pid": 1, "tid": 0}]},
     "name"),
    ({"traceEvents": [{"name": "x", "ph": "q", "ts": 0.0,
                       "pid": 1, "tid": 0}]}, "unknown ph"),
    ({"traceEvents": [{"name": "x", "ph": "i", "pid": 1, "tid": 0}]},
     "ts"),
    ({"traceEvents": [{"name": "x", "ph": "i", "ts": 0.0, "tid": 0}]},
     "pid"),
    ({"traceEvents": [{"name": "x", "ph": "E", "ts": 0.0,
                       "pid": 1, "tid": 0}]}, "without matching"),
    ({"traceEvents": [{"name": "x", "ph": "B", "ts": 0.0,
                       "pid": 1, "tid": 0}]}, "unbalanced"),
])
def test_validate_chrome_trace_rejects(broken, message):
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(broken)


def test_text_timeline_merges_samples_chronologically():
    from repro.channel.config import AccessPath

    rec = TraceRecorder()
    rec.emit(100.0, "flush", "clflush", {"core": 0, "line": 0,
                                         "latency": 40.0})
    rec.emit(300.0, "load", "local_excl", {"core": 0, "line": 0,
                                           "latency": 120.0})
    samples = [Sample(timestamp=200.0, latency=118.5, label="c",
                      path=AccessPath.LOCAL_EXCL)]
    lines = text_timeline(rec, samples=samples).splitlines()
    assert lines[0].lstrip().startswith("cycles")
    assert "clflush" in lines[1]
    assert "sample" in lines[2] and "local_excl" in lines[2]
    assert "load" in lines[3]


def test_text_timeline_max_rows():
    rec = sample_recorder()
    assert len(text_timeline(rec, max_rows=2).splitlines()) == 3


# ----------------------------------------------------------------------
# RunManifest
# ----------------------------------------------------------------------

def make_session(**kwargs) -> ChannelSession:
    return ChannelSession(SessionConfig(
        spec="LExclc-LSharedb",
        seed=7,
        calibration_samples=150,
        **kwargs,
    ))


@pytest.fixture(scope="module")
def traced_result():
    session = make_session(trace=True)
    result = session.transmit([1, 0, 1, 1, 0, 0, 1, 0])
    return session, result


def test_manifest_attached_to_every_result(traced_result):
    session, result = traced_result
    manifest = result.manifest
    assert isinstance(manifest, RunManifest)
    assert manifest.seed == 7
    assert manifest.scenario == "LExclc-LSharedb"
    assert manifest.sharing == "ksm"
    assert manifest.calibration_samples == 150
    assert manifest.fault_plan is None
    assert manifest.traced_events > 0
    assert manifest.stats.get("engine.events", 0) > 0
    import repro

    assert manifest.repro_version == repro.__version__
    assert len(manifest.machine_fingerprint) == 64


def test_manifest_attached_without_tracing():
    session = make_session(trace=False)
    result = session.transmit([1, 0, 1, 0])
    assert isinstance(result.manifest, RunManifest)
    assert result.manifest.traced_events == 0
    assert result.manifest.dropped_events == 0


def test_manifest_json_roundtrip(traced_result):
    _session, result = traced_result
    data = result.manifest.to_json()
    json.loads(json.dumps(data))  # JSON-plain
    assert RunManifest.from_json(data) == result.manifest


def test_manifest_records_fault_plan():
    from repro.faults import FaultPlan

    plan = FaultPlan.build_simulation(
        seed=3, rate_per_mcycle=8.0, window_cycles=200_000.0,
        kinds=("latency_spike",),
    )
    session = make_session(faults=plan.to_json())
    result = session.transmit([1, 0, 1, 0])
    assert result.manifest.fault_plan == plan.to_json()


def test_fault_installation_emits_trace_events():
    from repro.faults import FaultPlan

    plan = FaultPlan.build_simulation(
        seed=3, rate_per_mcycle=8.0, window_cycles=200_000.0,
        kinds=("latency_spike", "third_party_touch"),
    )
    assert plan.events, "plan must schedule at least one event"
    session = make_session(faults=plan.to_json(), trace=True)
    session.transmit([1, 0])
    faults = session.recorder.select("fault")
    assert len(faults) == len(plan.simulation_events)
    assert {e.name for e in faults} <= {"latency_spike",
                                        "third_party_touch"}
    assert all(e.data["end"] > e.data["start"] for e in faults)


def test_result_pickle_preserves_manifest(traced_result):
    _session, result = traced_result
    clone = pickle.loads(pickle.dumps(result))
    assert clone.manifest == result.manifest
    assert clone.sent == result.sent
    assert clone.samples == result.samples


def test_entry_under_previous_salt_is_a_miss(tmp_path):
    """Results stored by 1.5.0 carry the packed-sample layout: the
    version salt keeps them from ever being decoded as a result whose
    samples are a SampleTrace."""
    from repro.runner.cache import version_salt

    point = Point(fn="tests.runner_points:square", params={"x": 3})
    previous = ResultCache(tmp_path, salt="repro-1.5.0")
    previous.store(point, 9)
    assert previous.lookup(point) == (True, 9)
    current = ResultCache(tmp_path)
    assert current.salt == version_salt() != previous.salt
    assert current.lookup(point) == (False, None)
    assert previous.path_for(point).exists()  # left for `repro cache gc`


def test_manifest_excluded_from_equality(traced_result):
    _session, result = traced_result
    import dataclasses

    twin = dataclasses.replace(result, manifest=None)
    assert twin == result


def test_phase_events_bracket_the_transmission(traced_result):
    session, _result = traced_result
    marks = [(e.name, e.data["mark"]) for e in session.recorder.select("phase")]
    assert ("setup", "B") in marks and ("setup", "E") in marks
    assert ("calibrate", "B") in marks and ("calibrate", "E") in marks
    assert ("transmit", "B") in marks and ("transmit", "E") in marks
    assert ("attempt", "B") in marks and ("attempt", "E") in marks
    assert ("decode", "B") in marks and ("decode", "E") in marks
    # Balanced: chrome export must validate.
    validate_chrome_trace(to_chrome_trace(session.recorder))


def test_multibit_result_carries_manifest():
    from repro.channel.symbols import MultiBitSession

    session = MultiBitSession(seed=5, calibration_samples=150)
    result = session.transmit([1, 0, 1, 1])
    assert isinstance(result.manifest, RunManifest)
    assert result.manifest.seed == 5
    clone = pickle.loads(pickle.dumps(result))
    assert clone.manifest == result.manifest


# ----------------------------------------------------------------------
# Runner lifecycle events
# ----------------------------------------------------------------------

SQUARE = "tests.runner_points:square"


def square_spec(n=4):
    return ExperimentSpec(
        experiment="obs-test",
        points=tuple(Point(fn=SQUARE, params={"x": i}) for i in range(n)),
    )


def test_runner_emits_lifecycle_events(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE", "1")
    clear_runner_recorder()
    try:
        cache = ResultCache(tmp_path)
        report = Runner(jobs=1, cache=cache).run(square_spec())
        assert report.values == [0, 1, 4, 9]
        rec = runner_recorder()
        names = [e.name for e in rec.select("runner")]
        assert names.count("dispatch") == 4
        assert names.count("point-complete") == 4
        assert "run-start" in names and "run-end" in names
        assert "cache-hit" not in names

        # Second run: everything comes from the cache.
        Runner(jobs=1, cache=cache).run(square_spec())
        names = [e.name for e in rec.select("runner")]
        assert names.count("cache-hit") == 4
    finally:
        clear_runner_recorder()


def test_runner_emits_retry_events(monkeypatch, tmp_path):
    from repro.runner import FailurePolicy

    monkeypatch.setenv("REPRO_TRACE", "1")
    clear_runner_recorder()
    try:
        counter = tmp_path / "counter"
        spec = ExperimentSpec(
            experiment="obs-retry",
            points=(Point(fn="tests.runner_points:flaky",
                          params={"x": 1, "counter": str(counter),
                                  "fail_times": 1}),),
        )
        policy = FailurePolicy(retries=2, backoff_base=0.0, jitter=0.0)
        report = Runner(jobs=1, cache=None, policy=policy).run(spec)
        assert report.values == [100]
        names = [e.name for e in runner_recorder().select("runner")]
        assert "retry" in names
        assert names.count("dispatch") == 2
    finally:
        clear_runner_recorder()


def test_runner_untraced_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    clear_runner_recorder()
    runner = Runner(jobs=1, cache=None)
    assert runner._recorder is None
    assert runner.run(square_spec(2)).values == [0, 1]
    assert runner_recorder() is None
