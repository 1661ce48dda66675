"""Deterministic checkpoint/restore and segmented execution.

The contract under test: a segmented run — paused at every segment
boundary, captured, stored, and continued — is *bit-identical* to an
uninterrupted one, and a later process that resumes from the newest
stored segment finishes with the same result the original would have
produced.  Covered across the three coherence backends (snoop MESI,
MOESI, home-node directory), with noise workloads and a warmup prefix
riding along — one blob holds the noise workers' and the channel
threads' driver positions, and both runs stay on the drivers.  A
resumed result pickles to the same bytes as the uninterrupted one, and
a store attached to an already-built noisy session segments it.  Plus
the blob format's integrity checks, stale-version segments and the
``REPRO_SEGMENT_CYCLES`` parsing that switches segmentation on.
"""

import hashlib
import pickle
import struct
from dataclasses import replace

import pytest

from repro.channel.config import ProtocolParams
from repro.channel.session import (
    ChannelSession,
    SessionConfig,
    clear_warm_state,
    execute_point,
)
from repro.checkpoint import core
from repro.checkpoint.core import (
    BLOB_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    capture,
    inspect_blob,
    restore,
)
from repro.checkpoint.segments import (
    SegmentStore,
    point_identity,
    segment,
    segment_cycles,
    segments_enabled,
)
from repro.errors import CheckpointError
from repro.runner import ResultCache
from repro.sim import drivers

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

#: One representative scenario per coherence backend: snoop-MESI,
#: MOESI (O-state channel), and the home-node directory protocol.
BACKENDS = ("mesi-es", "moesi-ostate", "dir-es")

#: Noise threads + a warmup prefix exercise the hard parts of a
#: snapshot: kernel-build workload threads live at every boundary, and
#: the warmup-labelled resume path.
POINT = dict(seed=11, calibration_samples=120, noise_threads=1,
             warmup_bits=4)


def digest(result) -> str:
    """Everything observable about one transmission, hashed."""
    h = hashlib.sha256()
    h.update(",".join(map(str, result.sent)).encode())
    h.update(b"|")
    h.update(",".join(map(str, result.received)).encode())
    h.update(b"|")
    for sample in result.samples:
        h.update(struct.pack("<dd", sample.timestamp, sample.latency))
    h.update(struct.pack("<d", result.cycles))
    return h.hexdigest()


@pytest.fixture
def seg_cache(monkeypatch, tmp_path):
    """A private segment cache and a clean checkpoint environment."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    for var in ("REPRO_SEGMENT_CYCLES", "REPRO_KILL_AT_SEGMENT",
                "REPRO_CHECKPOINT_EXPORT", "REPRO_TRACE"):
        monkeypatch.delenv(var, raising=False)
    clear_warm_state()
    yield root
    clear_warm_state()


# -- round trip across backends ----------------------------------------


@pytest.mark.parametrize("spec", BACKENDS)
def test_segmented_and_resumed_runs_are_bit_identical(
    spec, seg_cache, monkeypatch
):
    baseline = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)

    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    clear_warm_state()
    segmented = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)
    assert digest(segmented) == digest(baseline)
    assert segmented.manifest.segment_cycles == 25000.0
    assert segmented.manifest.segments_stored > 0
    assert segmented.manifest.resumed_from is None
    assert segmented.manifest.engine == "driven"

    # A second invocation finds the newest stored segment and resumes
    # from it — as the crash-retry of a killed worker would — and still
    # lands on the identical result.
    clear_warm_state()
    resumed = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)
    assert digest(resumed) == digest(baseline)
    assert resumed.manifest.resumed_from is not None
    assert resumed.manifest.engine == "driven"


def unmanifested(result) -> bytes:
    """*result*'s pickle without its run manifest."""
    return pickle.dumps(replace(result, manifest=None))


def test_resumed_result_pickles_to_same_bytes(seg_cache, monkeypatch):
    """A result finished from a checkpoint is the same bytes as the
    uninterrupted one: labels of samples captured before the pause come
    back interned, as the decoder's literals are."""
    point = dict(spec="mesi-es", payload=list(PAYLOAD[:6]), **POINT)
    baseline = execute_point(**point)

    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", str(baseline.cycles / 3))
    clear_warm_state()
    assert execute_point(**point).manifest.segments_stored > 0
    clear_warm_state()
    resumed = execute_point(**point)
    assert resumed.manifest.resumed_from is not None
    assert unmanifested(resumed) == unmanifested(baseline)


def _noisy_session() -> ChannelSession:
    return ChannelSession(SessionConfig(
        spec="mesi-es", seed=11, calibration_samples=120, noise_threads=1,
    ))


def test_store_attached_after_build_segments_noisy_session(seg_cache):
    """A noisy session built with segmentation off and handed a store
    afterwards stores segments (its noise workers are driven from their
    spawn), and the newest one restores to the identical result and
    final machine and engine state."""
    reference = _noisy_session().transmit(list(PAYLOAD))

    session = _noisy_session()
    store = SegmentStore("late", cache=ResultCache(seg_cache),
                         cycles=25000.0)
    session.segments = store
    segmented = session.transmit(list(PAYLOAD))
    assert store.segments_stored > 0
    assert unmanifested(segmented) == unmanifested(reference)

    restored, ctx = restore(store.latest())
    assert restored.sim.thread_by_name("kbuild-0").driver is not None
    resumed = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert digest(resumed) == digest(reference)
    assert unmanifested(resumed) == unmanifested(reference)
    # The segmented session finished in memory; the restored one must
    # leave the engine and the machine exactly where it did.
    assert restored.sim.global_clock == session.sim.global_clock
    assert (restored.machine.stats.counters()
            == session.machine.stats.counters())


def test_noise_worker_restores_mid_think(seg_cache):
    """A checkpoint taken while a noise worker waits out its think time
    resumes that wait: the transmission, the engine clock and every
    machine counter end as in the run that never restored."""
    session = _noisy_session()
    blobs = []

    def pause_capture_finish(ctx):
        sim = session.sim
        noise = sim.thread_by_name("kbuild-0").driver
        while sim.run(pause_at=sim.global_clock + 5_000.0):
            if noise.state == 1:
                blobs.append(capture(session, ctx).to_bytes())
                break
        sim.run()

    session._run_transmission = pause_capture_finish
    reference = session.transmit(list(PAYLOAD))
    assert blobs, "the noise worker was never parked mid-think"

    restored, ctx = restore(blobs[0])
    noise = restored.sim.thread_by_name("kbuild-0").driver
    assert noise.state == 1 and noise.think > 0
    resumed = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert unmanifested(resumed) == unmanifested(reference)
    assert restored.sim.global_clock == session.sim.global_clock
    assert (restored.machine.stats.counters()
            == session.machine.stats.counters())


def test_noisy_capture_carries_no_untouched_frame_bytes(seg_cache):
    """Kernel-build workers map 1,536 pages each and never write them:
    those frames hold no bytes, so a two-worker noisy checkpoint stays
    near a clean one (it was ~13 MB when every frame pickled 4 KiB)."""
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=7, calibration_samples=120, noise_threads=2,
    ))
    checkpoints = []

    def pause_capture_finish(ctx):
        session.sim.run(pause_at=session.sim.global_clock + 20_000.0)
        checkpoints.append(capture(session, ctx))
        session.sim.run()

    session._run_transmission = pause_capture_finish
    reference = session.transmit(list(PAYLOAD))
    frames = session.kernel.phys._frames.values()
    assert len(frames) > 3_000
    assert sum(frame.touched for frame in frames) < 100
    assert len(checkpoints[0].state) < 1_000_000

    restored, ctx = restore(checkpoints[0])
    resumed = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert unmanifested(resumed) == unmanifested(reference)


def test_undriven_noise_session_is_not_segmented(seg_cache, monkeypatch):
    """With the driver table emptied nothing is driven: the session runs
    unsegmented, and a direct capture names the undriven thread."""
    monkeypatch.setattr(drivers, "DRIVERS", {})
    session = _noisy_session()
    store = SegmentStore("undriven", cache=ResultCache(seg_cache),
                         cycles=25000.0)
    session.segments = store
    session.transmit(list(PAYLOAD))
    assert store.segments_stored == 0
    with pytest.raises(CheckpointError, match="'kbuild-0' has no driver"):
        capture(session)


def test_stale_version_segment_is_ignored(seg_cache, monkeypatch, tmp_path):
    """A segment stored under another CHECKPOINT_VERSION is orphaned by
    the point identity: the point completes cold instead of failing to
    restore a blob this build cannot read."""
    point = dict(spec="mesi-es", payload=list(PAYLOAD), seed=7,
                 calibration_samples=120)
    baseline = execute_point(**point)

    exported = tmp_path / "stale.bin"
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    with monkeypatch.context() as old_build:
        old_build.setattr(core, "CHECKPOINT_VERSION", CHECKPOINT_VERSION - 1)
        old_build.setenv("REPRO_CHECKPOINT_EXPORT", str(exported))
        clear_warm_state()
        assert execute_point(**point).manifest.segments_stored > 0
        clear_warm_state()
        assert execute_point(**point).manifest.resumed_from is not None
    with pytest.raises(CheckpointError, match="version"):
        restore(exported.read_bytes())

    clear_warm_state()
    cold = execute_point(**point)
    assert cold.manifest.resumed_from is None
    assert cold.manifest.segments_stored > 0
    assert digest(cold) == digest(baseline)


# -- the blob format ----------------------------------------------------


def test_export_hook_writes_inspectable_blob(seg_cache, monkeypatch,
                                             tmp_path):
    blob_path = tmp_path / "ckpt.bin"
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    monkeypatch.setenv("REPRO_CHECKPOINT_EXPORT", str(blob_path))
    execute_point(spec="mesi-es", payload=list(PAYLOAD), seed=7,
                  calibration_samples=120)
    blob = blob_path.read_bytes()

    manifest = inspect_blob(blob)
    assert manifest["version"] == CHECKPOINT_VERSION
    assert manifest["state_bytes"] > 0
    assert manifest["segment"] >= 0
    assert manifest["label"] in ("warmup", "main")
    assert manifest["identity"]
    ckpt = Checkpoint.from_bytes(blob)
    assert ckpt.digest == manifest["digest"]


def test_blob_integrity_checks():
    ckpt = Checkpoint(manifest={"seed": 3}, state=pickle.dumps({"k": 1}))
    blob = ckpt.to_bytes()
    assert Checkpoint.from_bytes(blob).digest == ckpt.digest

    tampered = pickle.loads(blob[len(BLOB_MAGIC):])
    tampered["state"] = pickle.dumps({"k": 2})
    with pytest.raises(CheckpointError, match="digest mismatch"):
        Checkpoint.from_bytes(BLOB_MAGIC + pickle.dumps(tampered))

    with pytest.raises(CheckpointError, match="magic"):
        Checkpoint.from_bytes(b"NOPE" + blob[len(BLOB_MAGIC):])

    futuristic = pickle.loads(blob[len(BLOB_MAGIC):])
    futuristic["version"] = 99
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_bytes(BLOB_MAGIC + pickle.dumps(futuristic))


# -- warm-start adoption ------------------------------------------------


def test_adopt_prefix_warm_start(seg_cache, monkeypatch):
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    cache = ResultCache(seg_cache)
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=7, calibration_samples=120,
    ))
    session.segments = SegmentStore("donor", cache=cache, cycles=25000.0)
    warmup = session.transmit(list(PAYLOAD[:4]), _label="warmup")
    assert session.segments.segments_stored > 0

    adopter = SegmentStore("adopter", cache=cache, cycles=25000.0)
    assert adopter.adopt_prefix("donor")
    blob = adopter.latest()
    assert blob is not None

    # The adopted checkpoint restores and finishes the warmup
    # bit-identically to the donor's own uninterrupted warmup.
    restored, ctx = restore(blob)
    assert ctx.label == "warmup"
    replay = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert digest(replay) == digest(warmup)

    # After the donor's main transmission its newest checkpoint is
    # main-labelled — no longer a shared prefix, so not adoptable.
    session.transmit(list(PAYLOAD))
    late = SegmentStore("late", cache=cache, cycles=25000.0)
    assert late.adopt_prefix("donor") is False
    assert late.adopt_prefix("never-existed") is False


# -- identities, knobs, guards ------------------------------------------


def test_point_identity_is_stable_and_sensitive():
    base = {"spec": "mesi-es", "seed": 3, "payload": [1, 0, 1],
            "params": ProtocolParams()}
    assert point_identity(base) == point_identity(dict(base))
    assert point_identity(base) != point_identity({**base, "seed": 4})
    assert point_identity(base) != point_identity(
        {**base, "payload": [1, 0, 0]}
    )


def test_segment_cycles_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)
    assert segment_cycles() == 0.0
    assert not segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "2.5e5")
    assert segment_cycles() == 250000.0
    assert segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "banana")
    assert segment_cycles() == 0.0
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "-5")
    assert segment_cycles() == 0.0
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "0")
    assert not segments_enabled()


def test_segment_store_guards(monkeypatch):
    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)
    with pytest.raises(CheckpointError, match="positive segment length"):
        SegmentStore("x", cache=object(), cycles=-1.0)
    with pytest.raises(CheckpointError, match="artifact"):
        segment(identity="x")


def test_next_boundary_is_strictly_ahead():
    store = SegmentStore("x", cache=object(), cycles=100.0)
    assert store.next_boundary(0.0) == 100.0
    assert store.next_boundary(99.9) == 100.0
    assert store.next_boundary(100.0) == 200.0
