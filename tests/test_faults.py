"""The fault-injection subsystem and the self-healing runner.

Covers, per plane:

* **plans** — bit-for-bit replay identity of generated fault plans and
  their JSON round-trip;
* **harness** — deterministic retry backoff, per-point timeouts, killed
  pool workers (real ``BrokenProcessPool`` recovery), keep-going partial
  reports, torn cache entries, resume-from-cache after an aborted sweep;
* **simulation** — a severed shared page recovered by bounded
  re-synchronization, and graceful degradation under third-party
  touches, forced preemption and latency spikes.
"""

import pickle
import threading
import time

import pytest

from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.session import ChannelSession, SessionConfig
from repro.errors import (
    FaultError,
    IncompleteRunError,
    InjectedFaultError,
    PointExecutionError,
    PointTimeoutError,
    SyncTimeoutError,
    WorkerCrashError,
)
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.mem.invariants import check_machine
from repro.runner import (
    ExperimentSpec,
    FailurePolicy,
    Point,
    ResultCache,
    Runner,
    RunReport,
)

SQUARE = "tests.runner_points:square"
RECORD = "tests.runner_points:record"
BOOM = "tests.runner_points:boom"
FLAKY = "tests.runner_points:flaky"
KILL = "tests.runner_points:kill_worker"
SLOW = "tests.runner_points:slow_point"

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0] * 4


def square_spec(n=4):
    return ExperimentSpec(
        experiment="toy",
        points=tuple(
            Point(fn=SQUARE, params={"x": i}, label=f"x={i}")
            for i in range(n)
        ),
    )


# -- fault plans ----------------------------------------------------------


def test_harness_plan_replays_bit_identically():
    a = FaultPlan.build_harness(seed=5, n_points=50, rate=0.3)
    b = FaultPlan.build_harness(seed=5, n_points=50, rate=0.3)
    assert a.events == b.events
    assert a.key() == b.key()
    assert len(a) > 0
    # A different seed yields a different plan.
    c = FaultPlan.build_harness(seed=6, n_points=50, rate=0.3)
    assert a.key() != c.key()


def test_simulation_plan_replays_bit_identically():
    a = FaultPlan.build_simulation(seed=9, rate_per_mcycle=8.0,
                                   window_cycles=500_000.0)
    b = FaultPlan.build_simulation(seed=9, rate_per_mcycle=8.0,
                                   window_cycles=500_000.0)
    assert a.events == b.events and a.key() == b.key()
    assert len(a) == 4  # round(8 * 0.5)
    # Events come back sorted by start time.
    starts = [e.at_cycles for e in a.events]
    assert starts == sorted(starts)


def test_plan_json_round_trip():
    plan = FaultPlan.build_harness(seed=3, n_points=20, rate=0.5)
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan and restored.key() == plan.key()
    assert FaultPlan.from_json(None) == FaultPlan()
    assert FaultPlan.from_json(plan) is plan


def test_plan_validation():
    with pytest.raises(FaultError):
        FaultEvent(plane="nope", kind="transient")
    with pytest.raises(FaultError):
        FaultEvent(plane="harness", kind="third_party_touch")
    with pytest.raises(FaultError):
        FaultEvent(plane="harness", kind="transient", attempts=0)
    with pytest.raises(FaultError):
        FaultPlan.build_harness(seed=0, n_points=5, rate=1.5)
    with pytest.raises(FaultError):
        FaultPlan.build_simulation(seed=0, rate_per_mcycle=1.0,
                                   window_cycles=1e6, kinds=("transient",))


def test_injector_rejects_duplicate_point_events():
    events = (
        FaultEvent(plane="harness", kind="transient", point=1),
        FaultEvent(plane="harness", kind="slow", point=1),
    )
    with pytest.raises(FaultError):
        FaultInjector(FaultPlan(seed=0, events=events))


def test_injector_fires_per_attempt_and_logs():
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="transient", point=2, attempts=2),
    ))
    injector = FaultInjector(plan)
    assert injector.event_for(0, 0) is None          # other point
    assert injector.event_for(2, 0).kind == "transient"
    assert injector.event_for(2, 1).kind == "transient"
    assert injector.event_for(2, 2) is None          # budget spent
    assert injector.fired == [(2, 0, "transient"), (2, 1, "transient")]


# -- deterministic backoff ------------------------------------------------


def test_backoff_deterministic_per_seed():
    a = FailurePolicy(retries=3, seed=11)
    b = FailurePolicy(retries=3, seed=11)
    schedule_a = [a.backoff_seconds("p", k) for k in (1, 2, 3)]
    schedule_b = [b.backoff_seconds("p", k) for k in (1, 2, 3)]
    assert schedule_a == schedule_b
    assert FailurePolicy(seed=12).backoff_seconds("p", 1) != schedule_a[0]
    # Jitter keeps the sleep within +/- jitter of the exponential base.
    plain = FailurePolicy(seed=11, jitter=0.0)
    for k, jittered in enumerate(schedule_a, start=1):
        base = plain.backoff_seconds("p", k)
        assert base * 0.5 <= jittered <= base * 1.5


def test_backoff_grows_and_caps():
    policy = FailurePolicy(jitter=0.0, backoff_base=1.0, backoff_factor=2.0,
                           backoff_max=3.0)
    assert policy.backoff_seconds("p", 1) == 1.0
    assert policy.backoff_seconds("p", 2) == 2.0
    assert policy.backoff_seconds("p", 3) == 3.0  # capped
    assert policy.backoff_seconds("p", 9) == 3.0


# -- serial retries and faults --------------------------------------------


def fast_policy(**kwargs):
    kwargs.setdefault("backoff_base", 0.001)
    kwargs.setdefault("backoff_max", 0.01)
    return FailurePolicy(**kwargs)


def test_serial_retry_recovers_flaky_point(tmp_path):
    spec = ExperimentSpec(experiment="toy", points=(
        Point(fn=FLAKY, params={"x": 3, "counter": str(tmp_path / "c"),
                                "fail_times": 2}),
    ))
    report = Runner(jobs=1, policy=fast_policy(retries=2)).run(spec)
    assert report.values == [300]
    assert report.outcomes[0].attempts == 3


def test_serial_retry_budget_exhausted_raises(tmp_path):
    spec = ExperimentSpec(experiment="toy", points=(
        Point(fn=FLAKY, params={"x": 3, "counter": str(tmp_path / "c"),
                                "fail_times": 5}, label="stubborn"),
    ))
    with pytest.raises(PointExecutionError, match="stubborn"):
        Runner(jobs=1, policy=fast_policy(retries=1)).run(spec)


def test_injected_transient_fault_consumed_by_retries():
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="transient", point=1, attempts=1),
    ))
    report = Runner(jobs=1, policy=fast_policy(retries=1),
                    injector=FaultInjector(plan)).run(square_spec(3))
    assert report.values == [0, 1, 4]
    assert report.outcomes[1].attempts == 2
    assert FaultInjector(plan).event_for(1, 0) is not None  # replays


def test_injected_fault_replay_identical_fired_log():
    plan = FaultPlan.build_harness(seed=4, n_points=6, rate=0.6,
                                   kinds=("transient",))
    logs = []
    for _ in range(2):
        injector = FaultInjector(plan)
        Runner(jobs=1, policy=fast_policy(retries=3),
               injector=injector).run(square_spec(6))
        logs.append(list(injector.fired))
    assert logs[0] == logs[1] and logs[0]


def test_serial_worker_kill_degrades_without_killing_parent(monkeypatch):
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="worker_kill", point=0, attempts=1),
    ))
    # retries=1: the injected kill (degraded to a transient error in
    # serial mode) consumes the first attempt, the retry succeeds.
    report = Runner(jobs=1, policy=fast_policy(retries=1),
                    injector=FaultInjector(plan)).run(square_spec(2))
    assert report.values == [0, 1]
    # With no retry budget the degraded kill surfaces as a typed error.
    with pytest.raises(PointExecutionError) as excinfo:
        Runner(jobs=1, injector=FaultInjector(plan)).run(square_spec(2))
    assert isinstance(excinfo.value.cause, InjectedFaultError)

    # A deferred kill (positive magnitude, segments on) would arm the
    # SIGKILL hook in whatever process applies it; in-process that is
    # the parent, so it must degrade too and leave nothing armed.
    from repro.checkpoint import segments

    monkeypatch.setattr(segments, "_kill_after", None)
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    deferred = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="worker_kill", point=0,
                   attempts=1, magnitude=3.0),
    ))
    report = Runner(jobs=1, policy=fast_policy(retries=1),
                    injector=FaultInjector(deferred)).run(square_spec(2))
    assert report.values == [0, 1]
    assert report.outcomes[0].attempts == 2
    assert segments._kill_after is None


def test_per_point_timeout_serial():
    spec = ExperimentSpec(experiment="toy", points=(
        Point(fn=SLOW, params={"x": 1, "seconds": 30.0}, label="wedged"),
    ))
    with pytest.raises(PointExecutionError, match="wedged") as excinfo:
        Runner(jobs=1, policy=FailurePolicy(timeout=0.2)).run(spec)
    assert isinstance(excinfo.value.cause, PointTimeoutError)


def test_per_point_timeout_parallel_keep_going():
    spec = ExperimentSpec(experiment="toy", points=(
        Point(fn=SQUARE, params={"x": 5}),
        Point(fn=SLOW, params={"x": 1, "seconds": 30.0}, label="wedged"),
    ))
    report = Runner(
        jobs=2, policy=FailurePolicy(timeout=0.2, keep_going=True)
    ).run(spec)
    assert report.padded_values() == [25, None]
    (error,) = report.errors
    assert "PointTimeoutError" in str(error.error)


# -- the portable deadline guard -------------------------------------------


def test_deadline_watchdog_fires_from_helper_thread():
    """SIGALRM only works on the main thread; elsewhere the watchdog
    injects PointTimeoutError at the next bytecode boundary."""
    from repro.runner import executor

    outcome = []

    def body():
        try:
            with executor._deadline(0.2):
                stop = time.time() + 10.0
                while time.time() < stop:
                    pass
            outcome.append("finished")
        except PointTimeoutError:
            outcome.append("timed-out")

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=10.0)
    assert outcome == ["timed-out"]


def test_deadline_watchdog_cancelled_when_body_finishes():
    from repro.runner import executor

    outcome = []

    def body():
        with executor._deadline(0.1):
            outcome.append("ran")
        time.sleep(0.3)  # a leaked timer would misfire in this window
        outcome.append("alive")

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=10.0)
    assert outcome == ["ran", "alive"]


def test_deadline_warns_when_no_mechanism_available(monkeypatch):
    from repro.runner import executor

    monkeypatch.delattr(executor.signal, "SIGALRM")
    monkeypatch.setattr(executor, "_async_exc_injector", lambda: None)
    ran = []
    with pytest.warns(RuntimeWarning, match="wall-clock limit"):
        with executor._deadline(0.05):
            ran.append(1)
    assert ran == [1]


# -- keep_going and report alignment --------------------------------------


def test_keep_going_reports_typed_errors_in_order():
    spec = ExperimentSpec(experiment="toy", points=(
        Point(fn=SQUARE, params={"x": 1}),
        Point(fn=BOOM, params={"x": 7}, label="seven"),
        Point(fn=SQUARE, params={"x": 3}),
    ))
    report = Runner(jobs=1,
                    policy=FailurePolicy(keep_going=True)).run(spec)
    assert len(report.outcomes) == 3
    (error,) = report.errors
    assert error.index == 1 and "seven" in str(error.error)
    assert report.padded_values(fill="gap") == [1, "gap", 9]
    with pytest.raises(IncompleteRunError, match="seven"):
        report.values


def test_values_raise_on_missing_slot_instead_of_misaligning():
    spec = square_spec(3)
    complete = Runner(jobs=1).run(spec)
    partial = RunReport(spec=spec, outcomes=complete.outcomes[:2])
    with pytest.raises(IncompleteRunError, match="x=2"):
        partial.values
    assert partial.padded_values() == [0, 1, None]


def test_spec_subset():
    spec = square_spec(5)
    sub = spec.subset([0, 3])
    assert [p.params["x"] for p in sub.points] == [0, 3]
    assert sub.experiment == spec.experiment


# -- killed workers (real BrokenProcessPool) ------------------------------


def test_pool_recovers_from_killed_worker(tmp_path):
    """A hard-killed worker breaks the pool; the runner respawns it."""
    points = [Point(fn=SQUARE, params={"x": i}, label=f"x={i}")
              for i in range(3)]
    points.append(Point(
        fn=KILL,
        params={"x": 4, "tripwire": str(tmp_path / "trip")},
        label="victim",
    ))
    spec = ExperimentSpec(experiment="toy", points=tuple(points))
    report = Runner(jobs=2, policy=fast_policy(retries=2)).run(spec)
    assert report.values == [0, 1, 4, 4000]
    assert report.pool_respawns >= 1


def test_killed_worker_keep_going_survivors_byte_identical(tmp_path):
    """Acceptance: injected worker-kill under retries + keep_going.

    The grid completes, the unkillable point surfaces as a typed
    WorkerCrashError outcome, and every surviving value is byte-identical
    to a clean serial run.
    """
    spec = square_spec(4)
    clean = Runner(jobs=1).run(spec).values

    # The kill fires on three consecutive attempts; retries=2 allows
    # exactly three, so the point's budget dies with the third worker.
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="worker_kill", point=2, attempts=3),
    ))
    cache = ResultCache(tmp_path, salt="s")
    report = Runner(
        jobs=2, cache=cache,
        policy=fast_policy(retries=2, keep_going=True),
        injector=FaultInjector(plan),
    ).run(spec)

    (error,) = report.errors
    assert error.index == 2 and error.attempts == 3
    assert isinstance(error.error.cause, WorkerCrashError)
    assert report.pool_respawns >= 3
    survivors = report.padded_values()
    for index in (0, 1, 3):
        assert pickle.dumps(survivors[index]) == pickle.dumps(clean[index])
    assert survivors[2] is None


# -- crash-resume from the cache ------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_aborted_sweep_resumes_from_cache(tmp_path, jobs):
    """Acceptance: completed values survive an aborting failure.

    Run 1 fails fast on a flaky point; every point that completed was
    flushed to the cache first.  Run 2 re-executes only the points run 1
    never finished — each RECORD point executes exactly once across both
    runs.  In-process (``jobs=1``) points run in spec order, so the
    point after the failing one never starts in run 1.
    """
    log = tmp_path / "log.txt"
    points = [
        Point(fn=RECORD, params={"x": i, "log": str(log)}, label=f"r{i}")
        for i in range(3)
    ]
    points.append(Point(
        fn=FLAKY,
        params={"x": 9, "counter": str(tmp_path / "c"), "fail_times": 1},
        label="flaky",
    ))
    points.append(
        Point(fn=RECORD, params={"x": 4, "log": str(log)}, label="r4")
    )
    spec = ExperimentSpec(experiment="toy", points=tuple(points))

    with pytest.raises(PointExecutionError, match="flaky"):
        Runner(jobs=jobs,
               cache=ResultCache(tmp_path / "cache", salt="s")).run(spec)
    if jobs == 1:
        assert sorted(log.read_text().split()) == ["0", "1", "2"]

    report = Runner(jobs=jobs,
                    cache=ResultCache(tmp_path / "cache", salt="s")).run(spec)
    assert report.values == [0, 10, 20, 900, 40]
    executed = sorted(log.read_text().split())
    assert executed == ["0", "1", "2", "4"], "a completed point was re-executed"


# -- cache robustness ------------------------------------------------------


def test_cache_sweeps_stale_tmp_files(tmp_path):
    import os
    import time as time_mod

    sub = tmp_path / "ab"
    sub.mkdir()
    stale = sub / "deadbeef.pkl.xyz.tmp"
    stale.write_bytes(b"half-written")
    old = time_mod.time() - 3600
    os.utime(stale, (old, old))
    fresh = sub / "cafef00d.pkl.abc.tmp"
    fresh.write_bytes(b"in-flight")

    cache = ResultCache(tmp_path, salt="s")
    assert cache.swept_tmp == 1
    assert not stale.exists()
    assert fresh.exists(), "young temp files must survive the sweep"


def test_cache_transient_oserror_does_not_delete_entry(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path, salt="s")
    point = Point(fn=SQUARE, params={"x": 2})
    cache.store(point, 4)

    def eio(*_args, **_kwargs):
        raise OSError("I/O error (transient)")

    monkeypatch.setattr("repro.runner.cache.decode_entry", eio)
    hit, _ = cache.lookup(point)
    assert not hit
    assert cache.path_for(point).exists(), "transient OSError deleted entry"
    monkeypatch.undo()
    hit, value = cache.lookup(point)
    assert hit and value == 4


def test_torn_cache_entry_recomputed_next_run(tmp_path):
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="torn_cache", point=0),
    ))
    spec = square_spec(2)
    injector = FaultInjector(plan)
    cache = ResultCache(tmp_path, salt="s")
    first = Runner(jobs=1, cache=cache, injector=injector).run(spec)
    assert first.values == [0, 1]
    assert (0, 0, "torn_cache") in injector.fired
    torn_path = cache.path_for(spec.points[0])
    assert torn_path.read_bytes() == b"torn by fault injection"

    second = Runner(jobs=1, cache=ResultCache(tmp_path, salt="s")).run(spec)
    assert second.values == [0, 1]
    assert second.cache_hits == 1 and second.cache_misses == 1


# -- simulation-plane faults ----------------------------------------------


def make_session(seed=31, **kwargs):
    params = kwargs.pop("params", ProtocolParams(max_poll_slots=300,
                                                 max_reception_slots=2_000))
    return ChannelSession(SessionConfig(
        spec=kwargs.pop("scenario", TABLE_I[0]).name,
        seed=seed, calibration_samples=200, params=params, **kwargs,
    ))


def severed_page_plan():
    """Unmerge the shared page early and hold it severed long enough to
    starve the whole first handshake; the re-merge scan lands during the
    resync backoff."""
    return FaultPlan(seed=0, events=(
        FaultEvent(plane="simulation", kind="ksm_unmerge",
                   at_cycles=5_000.0, duration_cycles=900_000.0),
    ))


def test_severed_page_recovered_by_resync():
    """Acceptance: >= 1 injected mid-transmission fault recovered via
    resync with accuracy > 0.6."""
    session = make_session(faults=severed_page_plan(), resync_attempts=2)
    result = session.transmit(PAYLOAD)
    assert result.resyncs == 1
    assert session.resyncs == 1
    assert result.accuracy > 0.6
    check_machine(session.machine)


def test_severed_page_without_resync_times_out():
    session = make_session(faults=severed_page_plan(), resync_attempts=0)
    with pytest.raises(SyncTimeoutError):
        session.transmit(PAYLOAD)
    check_machine(session.machine)


def test_touch_preempt_and_spike_degrade_gracefully():
    plan = FaultPlan.build_simulation(
        seed=7, rate_per_mcycle=16.0, window_cycles=500_000.0,
        kinds=("third_party_touch", "preempt", "latency_spike"),
    )
    assert len(plan) == 8
    session = make_session(faults=plan)
    result = session.transmit(PAYLOAD)
    assert 0.0 <= result.accuracy <= 1.0
    assert len(result.received) > 0
    check_machine(session.machine)


def test_fault_plan_rides_in_execute_point_params():
    from repro.channel.session import execute_point

    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="simulation", kind="latency_spike",
                   at_cycles=10_000.0, duration_cycles=50_000.0,
                   magnitude=1_500.0),
    ))
    result = execute_point(
        scenario=TABLE_I[0].name,
        payload=[1, 0, 1, 1],
        seed=3,
        calibration_samples=200,
        faults=plan.to_json(),
    )
    assert 0.0 <= result.accuracy <= 1.0


def test_clean_session_unaffected_by_fault_machinery():
    """No plan configured: transmit() behaves exactly as before."""
    session = make_session()
    result = session.transmit(PAYLOAD)
    assert result.resyncs == 0 and session.resyncs == 0
    assert result.accuracy >= 0.99
    assert session.fault_threads == []
