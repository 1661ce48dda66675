"""Equivalence and property locks for streaming detection + the arena.

The streaming path (:mod:`repro.detection.streaming`) must be a
behavior-preserving refactor of the offline one, with bounded state:

* **Live equivalence** — a :class:`StreamingDetector` subscribed to a
  traced session's recorder produces exactly the detections and raw
  scores an offline :class:`ChannelDetector` produces over an
  :class:`EventMonitor` folded in one batch over the recorded feed,
  across the MESI, MOESI O-state and directory-backend scenarios.
* **Replay equivalence** — feeding the recorded event stream back one
  event at a time (or in arbitrary chunks) reproduces the live
  detector's scans, scores and alarm log bit-for-bit.
* **ROC equivalence** — :class:`OnlineRoc` is invariant to sample order,
  chunking and merging, and matches the offline ``detection_roc``
  computation on the same scores.
* **Bounded memory** — property tests assert every retained per-line
  series stays inside the sliding window, and a feed 10x the window
  long keeps the monitor's footprint at the window scale (the
  regression the prune-on-append + idle-eviction rework fixes).
* **Arena determinism** — the detection-vs-evasion tournament is
  bit-deterministic for a fixed seed, on driven or generator channel
  threads and with segmented checkpointing toggled on or off.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.calibration import clear_calibration_memo
from repro.channel.session import (
    _MACHINE_POOL,
    ChannelSession,
    SessionConfig,
    _acquire_machine,
    clear_warm_state,
)
from repro.detection import (
    ChannelDetector,
    EventMonitor,
    OnlineRoc,
    StreamingDetector,
)
from repro.detection.events import _SWEEP_INTERVAL
from repro.detection.streaming import ROC_BINS, ROC_MAX_SCORE
from repro.experiments import REGISTRY, arena, detection_roc
from repro.mem.cacheline import LINE_SIZE
from repro.obs import TraceRecorder
from repro.obs.recorder import TraceEvent
from repro.runner import ExperimentSpec, Point, Runner
from repro.sim import drivers
from repro.sim.rng import RngStreams
from tests.test_detection import tapped_monitor

#: One scenario per distinct protocol path: flush-based MESI, the MOESI
#: O-state channel, and the home-node directory backend.
SCENARIOS = ("mesi-es", "moesi-ostate", "dir-es")

SCAN_INTERVAL = 100_000.0

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1]


def _monitor_state(monitor):
    """Comparable snapshot of every retained per-line series."""
    return {
        line: (
            list(activity.flushes),
            list(activity.downgrades),
            list(activity.loads),
            dict(activity.core_counts),
            activity.last_event,
        )
        for line, activity in monitor.lines.items()
    }


@pytest.fixture(scope="module", params=SCENARIOS)
def live_run(request):
    """One traced transmission scored live and offline.

    The recorder is cleared right after construction so the retained
    stream is exactly what the subscribed sink saw (calibration runs
    inside ``__init__``, before anyone observes).  The offline monitor
    is a batch scan over that recorded stream after the run.
    """
    session = ChannelSession(SessionConfig(
        spec=request.param, seed=11, trace=True,
    ))
    session.recorder.clear()
    streaming = StreamingDetector(scan_interval=SCAN_INTERVAL)
    session.recorder.subscribe(streaming)
    session.transmit(list(PAYLOAD))
    session.recorder.unsubscribe(streaming)
    assert session.recorder.dropped == 0
    offline = EventMonitor()
    for event in session.recorder.events():
        offline.consume(event)
    return session, streaming, offline


def test_live_stream_matches_offline_detections(live_run):
    session, streaming, offline = live_run
    now = session.sim.global_clock
    offline_scan = ChannelDetector(offline).scan(now)
    assert streaming.scan(now) == offline_scan
    # The covert line is among the detections on every scenario.
    covert_line = (
        session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    )
    assert covert_line in {d.line for d in offline_scan}


def test_live_stream_matches_offline_scores(live_run):
    session, streaming, offline = live_run
    now = session.sim.global_clock
    assert streaming.score_all(now) == ChannelDetector(offline).score_all(now)


def test_live_monitor_state_matches_offline(live_run):
    _session, streaming, offline = live_run
    assert _monitor_state(streaming.monitor) == _monitor_state(offline)


def test_interim_scans_raise_the_alarm_early(live_run):
    session, streaming, _offline = live_run
    covert_line = (
        session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    )
    first = streaming.first_alarm(covert_line)
    assert first is not None
    assert first <= session.sim.global_clock
    assert streaming.peak_tracked > 0


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_replaying_the_recorded_trace_reproduces_the_live_run(
    live_run, chunk
):
    session, streaming, _offline = live_run
    assert session.recorder.dropped == 0
    events = session.recorder.events()
    replayed = StreamingDetector(scan_interval=SCAN_INTERVAL)
    for start in range(0, len(events), chunk):
        replayed.consume_many(events[start:start + chunk])
    assert replayed.events == streaming.events
    assert replayed.clock == streaming.clock
    assert replayed.alarms == streaming.alarms
    now = session.sim.global_clock
    assert replayed.scan(now) == streaming.scan(now)
    assert replayed.score_all(now) == streaming.score_all(now)
    assert _monitor_state(replayed.monitor) == _monitor_state(
        streaming.monitor
    )


# -- OnlineRoc ---------------------------------------------------------


def _labeled_scores():
    rng = random.Random(42)
    samples = [(rng.uniform(0.0, 3.5), True) for _ in range(40)]
    samples += [(rng.uniform(0.0, 1.2), False) for _ in range(40)]
    # Out-of-range scores must clamp to the edge bins, not crash.
    samples += [(-0.5, False), (9.0, True)]
    return samples


def test_online_roc_is_order_and_chunk_invariant():
    samples = _labeled_scores()
    batch = OnlineRoc.from_samples(samples)

    shuffled = list(samples)
    random.Random(7).shuffle(shuffled)
    one_at_a_time = OnlineRoc()
    for score, positive in shuffled:
        one_at_a_time.add(score, positive)

    merged = OnlineRoc.from_samples(shuffled[:13])
    merged.merge(OnlineRoc.from_samples(shuffled[13:]))

    assert one_at_a_time.to_json() == batch.to_json() == merged.to_json()
    assert one_at_a_time.points() == batch.points()
    assert one_at_a_time.auc() == batch.auc() == merged.auc()


def test_online_roc_perfect_separation_and_degenerate_cases():
    perfect = OnlineRoc.from_samples(
        [(3.0, True)] * 5 + [(0.1, False)] * 5
    )
    assert perfect.auc() == 1.0
    assert perfect.points()[0] == (0.0, 0.0)
    assert perfect.points()[-1] == (1.0, 1.0)

    empty = OnlineRoc()
    assert empty.auc() == 0.0
    assert empty.positives == empty.negatives == 0

    only_pos = OnlineRoc.from_samples([(2.0, True)])
    assert all(fpr == 0.0 for fpr, _tpr in only_pos.points())

    with pytest.raises(ValueError):
        OnlineRoc(bins=0)
    with pytest.raises(ValueError):
        OnlineRoc().merge(OnlineRoc(bins=ROC_BINS * 2))


def test_online_roc_matches_offline_detection_roc():
    """The detect driver's offline ROC is the same computation."""
    rows = [
        {"workload": "attack:a", "detected": True, "score": 2.4,
         "reasons": ["flush-storm"]},
        {"workload": "attack:b", "detected": True, "score": 1.7,
         "reasons": ["ping-pong"]},
        {"workload": "attack:c", "detected": False, "score": 0.6,
         "reasons": []},
        {"workload": "benign:kb", "detected": False, "score": 0.0,
         "reasons": []},
        {"workload": "benign:pc", "detected": False, "score": 0.3,
         "reasons": []},
    ]
    spec = ExperimentSpec(
        experiment="detect",
        points=tuple(
            Point(fn=detection_roc.POINT_FN,
                  params={"workload": row["workload"], "seed": 0},
                  label=row["workload"])
            for row in rows
        ),
        meta={"attacks": 3, "benign": 2},
    )
    result = detection_roc.collect(spec, rows)

    online = OnlineRoc(bins=ROC_BINS, max_score=ROC_MAX_SCORE)
    shuffled = list(rows)
    random.Random(3).shuffle(shuffled)
    for row in shuffled:
        online.add(row["score"], row["workload"].startswith("attack"))
    assert result["roc_points"] == [list(p) for p in online.points()]
    assert result["auc"] == online.auc()


# -- property tests over synthetic event streams -----------------------


@st.composite
def trace_streams(draw):
    """Timestamp-ordered flush/load event streams over a few lines."""
    n = draw(st.integers(min_value=1, max_value=120))
    events = []
    ts = 0.0
    for _ in range(n):
        ts += draw(st.floats(
            min_value=1.0, max_value=4_000.0,
            allow_nan=False, allow_infinity=False,
        ))
        line = draw(st.integers(min_value=0, max_value=3)) * LINE_SIZE
        core = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            events.append(TraceEvent(ts, "flush", "clflush", {
                "core": core, "line": line, "latency": 60.0,
            }))
        else:
            name = draw(st.sampled_from(
                ["local_excl", "remote_excl", "l1_hit", "local_shared"]
            ))
            events.append(TraceEvent(ts, "load", name, {
                "core": core, "line": line, "latency": 100.0,
            }))
    return events


@settings(max_examples=40, deadline=None)
@given(events=trace_streams(), chunk=st.integers(min_value=1, max_value=13))
def test_streaming_is_chunking_invariant(events, chunk):
    kwargs = dict(window=6_000.0, scan_interval=2_500.0)
    single = StreamingDetector(**kwargs)
    for event in events:
        single(event)
    chunked = StreamingDetector(**kwargs)
    for start in range(0, len(events), chunk):
        chunked.consume_many(events[start:start + chunk])
    now = single.clock
    assert chunked.clock == now
    assert chunked.events == single.events == len(events)
    assert chunked.alarms == single.alarms
    assert single.scan(now) == chunked.scan(now)
    assert single.score_all(now) == chunked.score_all(now)
    assert _monitor_state(single.monitor) == _monitor_state(chunked.monitor)


@settings(max_examples=40, deadline=None)
@given(events=trace_streams())
def test_retained_state_never_exceeds_the_window(events):
    window = 3_000.0
    detector = StreamingDetector(window=window, idle_windows=2.0)
    for event in events:
        detector(event)
        for activity in detector.monitor.lines.values():
            cutoff = activity.last_event - window
            assert all(t >= cutoff for t in activity.flushes)
            assert all(t >= cutoff for t in activity.downgrades)
            assert all(t >= cutoff for t, _core in activity.loads)
            # Incremental core counts stay consistent with the deque.
            assert (sum(activity.core_counts.values())
                    == len(activity.loads))


# -- EventMonitor memory regression ------------------------------------


def test_monitor_memory_stays_bounded_on_a_long_feed(machine):
    """A feed 15x the window long must not grow the monitor's state.

    Before prune-on-append, every per-line deque grew with total feed
    length until someone queried a rate; this pins the fix.
    """
    window = 1_000.0
    monitor = tapped_monitor(machine, window=window, idle_windows=2.0)
    hot, cold = 0x10000, 0x20000
    # One early touch on the cold line, then it goes idle forever.
    machine.flush(1, cold, 0.0)
    machine.load(1, cold, 1.0)

    now = 0.0
    total = 0
    peak = 0
    while now < 15 * window:
        now += 5.0
        machine.flush(0, hot, now)
        now += 5.0
        machine.load(0, hot, now)
        total += 2
        peak = max(peak, monitor.tracked_events())

    assert total > _SWEEP_INTERVAL  # at least one idle sweep ran
    # The window holds ~2 events per 10 cycles -> ~200; allow slack but
    # stay an order of magnitude under the total fed.
    assert peak <= 1_000
    assert peak < total / 3
    # The idle line was evicted outright — including from the flushed
    # filter, so a later lone load does not resurrect it.
    assert cold not in monitor.lines
    machine.load(1, cold, now + 1.0)
    assert cold not in monitor.lines


def test_evict_idle_is_verdict_neutral(machine):
    monitor = tapped_monitor(machine, window=1_000.0, idle_windows=2.0)
    machine.flush(0, 0x30000, 10.0)
    machine.load(0, 0x30000, 20.0)
    now = 10_000.0
    before = ChannelDetector(monitor).scan(now)
    evicted = monitor.evict_idle(now)
    assert evicted == 1
    assert ChannelDetector(monitor).scan(now) == before == []


# -- TraceSink hook ----------------------------------------------------


def test_sink_subscription_is_idempotent_and_inert():
    recorder = TraceRecorder()
    seen = []

    def sink(event):
        seen.append(event)

    recorder.subscribe(sink)
    recorder.subscribe(sink)  # idempotent
    recorder.emit(1.0, "load", "l1_hit", {
        "core": 0, "line": 0, "latency": 1.0,
    })
    assert len(seen) == 1

    plain = TraceRecorder()
    plain.emit(1.0, "load", "l1_hit", {
        "core": 0, "line": 0, "latency": 1.0,
    })
    assert recorder.digest() == plain.digest(), (
        "sinks must never affect the recorded stream"
    )

    recorder.unsubscribe(sink)
    recorder.emit(2.0, "load", "l1_hit", {
        "core": 0, "line": 0, "latency": 1.0,
    })
    assert len(seen) == 1  # detached
    recorder.unsubscribe(sink)  # absent: no-op


# -- arena -------------------------------------------------------------


def test_arena_is_registered_with_the_driver_contract():
    assert "arena" in REGISTRY
    module = REGISTRY["arena"].load()
    for attr in ("point", "build_spec", "spec_from_args", "collect",
                 "render", "add_arguments"):
        assert callable(getattr(module, attr))


def test_live_cells_excludes_dead_and_undefined_cells():
    cells = arena.live_cells()
    assert len(cells) == 9
    assert "mesi-ostate" not in cells
    assert "mesif-ostate" not in cells
    assert "dir-lru" not in cells
    assert {"mesi-es", "moesi-ostate", "dir-es"} <= set(cells)


def test_arena_point_leaves_the_warm_pool_untouched():
    """An attack leg builds its own machine, calibrates through the memo
    and leaves nothing interposed on the next pooled machine."""
    clear_warm_state()
    arena.point(workload="attack:mesi-es", seed=5, bits=8)
    assert not _MACHINE_POOL
    config = SessionConfig(spec="mesi-es", seed=6)
    machine = _acquire_machine(config.machine, RngStreams(6))
    assert not {"load", "store", "flush"} & vars(machine).keys()
    assert clear_calibration_memo() == 1
    clear_warm_state()


def _tiny_arena_spec():
    return arena.build_spec(
        seed=3, bits=8, cells=["mesi-es"],
        attack_seeds=1, benign_seeds=1, generations=4,
    )


def _run_arena(driven=True):
    spec = _tiny_arena_spec()
    with pytest.MonkeyPatch.context() as mp:
        if not driven:
            # Empty driver table: every channel thread runs its
            # generator program.
            mp.setattr(drivers, "DRIVERS", {})
        values = Runner(jobs=1, cache=None).run(spec).values
    return arena.collect(spec, values)


def test_arena_is_deterministic_across_backends(monkeypatch):
    """Same seed -> identical frontier/tournament, driven or generator
    channel threads, segmented checkpointing on or off."""
    # Trim the evasion ladder: two settings are enough to exercise the
    # grouping/tournament arithmetic, and the obfuscation leg is slow.
    monkeypatch.setattr(arena, "EVASIONS", arena.EVASIONS[:2])
    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)

    baseline = _run_arena()
    assert _run_arena(driven=False) == baseline

    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "200000")
    assert _run_arena() == baseline

    cell = baseline["cells"]["mesi-es"]
    assert cell["frontier"][0]["evasion"] == "none"
    assert cell["frontier"][0]["auc"] == 1.0
    assert cell["tournament"], "tournament history must not be empty"
    assert cell["equilibrium"]["threshold"] in baseline["thresholds"]


def test_arena_smoke_spec_shape():
    spec = _tiny_arena_spec()
    # 1 cell x len(EVASIONS) x 1 seed attacks + 2 benign workloads.
    assert len(spec.points) == len(arena.EVASIONS) + 2
    labels = [p.label for p in spec.points]
    assert labels[0] == "mesi-es/none/s0"
    assert labels[-1] == "benign:producer-consumer/s0"
