"""Grid-throughput optimizations stay bit-identical and compact.

PR 4 makes the grid the unit of optimization: memoized calibration,
warm-worker machine reuse, chunked pool dispatch, and compact sample
transport.  Every one of those is a pure speedup — these tests pin the
contract that none of them may change a single observable bit under
injected faults and mid-grid worker kills, and that the transport layer
actually shrinks what travels and what lands on disk.  Clean-run
identity across execution modes is the differential harness's job
(``tests/test_fast_paths.py``).
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import zlib
from dataclasses import replace

import pytest

from repro.channel.calibration import (
    DEFAULT_CALIBRATION_SAMPLES,
    PAPER_CALIBRATION_SAMPLES,
    clear_calibration_memo,
)
from repro.channel.decoder import Sample, SampleTrace
from repro.channel.session import (
    SessionConfig,
    clear_warm_state,
    execute_point,
)
from repro.experiments.common import payload_bits
from repro.faults import FaultInjector, FaultPlan
from repro.runner import (
    ExperimentSpec,
    FailurePolicy,
    Point,
    ResultCache,
    Runner,
    auto_chunk_size,
    chunk_pending,
)
from repro.runner.cache import ENTRY_MAGIC, decode_entry, encode_entry
from repro.sim.events import AccessPath

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0]


def result_digest(result) -> str:
    """Everything observable about one transmission, hashed."""
    return hashlib.sha256(pickle.dumps((
        result.sent,
        result.received,
        [(s.timestamp, s.latency, s.label, str(s.path))
         for s in result.samples],
        result.cycles,
    ))).hexdigest()


def values_digest(values) -> str:
    return hashlib.sha256(
        "".join(result_digest(v) for v in values).encode()
    ).hexdigest()


@pytest.fixture
def cold_process():
    """Fresh warm-pool/memo state."""
    clear_warm_state()
    yield
    clear_warm_state()


def channel_spec(n: int = 4, bits: int = 6) -> ExperimentSpec:
    points = tuple(
        Point(
            fn="repro.channel.session:execute_point",
            params={"scenario": "LExclc-LSharedb",
                    "payload": PAYLOAD[:bits],
                    "rate_kbps": 300.0 + 100.0 * i, "seed": 0},
        )
        for i in range(n)
    )
    return ExperimentSpec(experiment="grid-test", points=points)


# -- chunk planning ----------------------------------------------------


def test_auto_chunk_size_scales_with_grid():
    assert auto_chunk_size(64, 4) == 4
    assert auto_chunk_size(640, 4) == 8  # capped
    assert auto_chunk_size(4, 2) == 1  # small grids stay per-point
    assert auto_chunk_size(0, 4) == 1


def test_chunk_pending_covers_groups_and_preserves_singletons():
    points = tuple(
        Point(fn="tests.runner_points:square", params={"x": i, "seed": i % 2})
        for i in range(10)
    )
    chunks = chunk_pending(points, list(range(10)), 3)
    flat = sorted(i for chunk in chunks for i in chunk)
    assert flat == list(range(10))
    assert all(len(chunk) <= 3 for chunk in chunks)
    # seed-grouped: the first chunks hold only seed-0 points
    assert {points[i].params["seed"] for i in chunks[0]} == {0}
    # chunk_size=1 keeps the caller's order exactly
    assert chunk_pending(points, [7, 2, 5], 1) == [[7], [2], [5]]


def test_runner_chunk_size_default_and_validation():
    assert Runner(jobs=2).chunk_size is None
    assert Runner(jobs=2, chunk_size=5).chunk_size == 5
    with pytest.raises(ValueError):
        Runner(jobs=2, chunk_size=0)


def test_chunked_pool_matches_serial_cheap():
    points = tuple(
        Point(fn="tests.runner_points:square", params={"x": i})
        for i in range(13)
    )
    spec = ExperimentSpec(experiment="chunk-cheap", points=points)
    serial = Runner(jobs=1).run(spec).values
    for chunk_size in (1, 3, 13):
        assert Runner(jobs=3, chunk_size=chunk_size).run(spec).values == serial


# -- bit-identity across execution modes -------------------------------


def test_grid_bit_identical_under_injected_faults(cold_process):
    """Transient harness faults + retries never change the values."""
    spec = channel_spec(n=3)
    clean = values_digest(Runner(jobs=1).run(spec).values)

    plan = FaultPlan.build_harness(
        seed=7, n_points=len(spec.points), rate=0.9, kinds=("transient",)
    )
    assert plan.harness_events, "plan must actually inject something"
    clear_warm_state()
    report = Runner(
        jobs=2,
        chunk_size=2,
        policy=FailurePolicy(retries=2, keep_going=False),
        injector=FaultInjector(plan),
    ).run(spec)
    assert values_digest(report.values) == clean
    assert any(o.attempts > 1 for o in report.outcomes)


def test_grid_bit_identical_after_mid_grid_worker_kill(
    cold_process, tmp_path
):
    """A killed worker mid-chunk: respawn, retry, same bits."""
    spec = channel_spec(n=4)
    clean = values_digest(Runner(jobs=1).run(spec).values)

    plan = FaultPlan(events=(
        FaultPlan.from_json({
            "seed": 0,
            "events": [{"plane": "harness", "kind": "worker_kill",
                        "point": 2, "attempts": 1}],
        }).events[0],
    ))
    clear_warm_state()
    report = Runner(
        jobs=2,
        chunk_size=2,
        policy=FailurePolicy(retries=1),
        injector=FaultInjector(plan),
    ).run(spec)
    assert report.pool_respawns >= 1
    assert values_digest(report.values) == clean


# -- calibration memo --------------------------------------------------


def test_calibration_memo_transparent(cold_process):
    first = execute_point(
        scenario="LExclc-LSharedb", payload=PAYLOAD, seed=3
    )
    # second run hits both the machine pool and the calibration memo
    second = execute_point(
        scenario="LExclc-LSharedb", payload=PAYLOAD, seed=3
    )
    assert result_digest(first) == result_digest(second)
    assert clear_calibration_memo() >= 1


def test_calibration_memo_keyed_by_seed(cold_process):
    a = execute_point(scenario="LExclc-LSharedb", payload=PAYLOAD, seed=1)
    b = execute_point(scenario="LExclc-LSharedb", payload=PAYLOAD, seed=2)
    assert result_digest(a) != result_digest(b)


def test_calibration_memo_bypassed_for_simulation_faults(cold_process):
    faults = FaultPlan.build_simulation(
        seed=1, rate_per_mcycle=5.0, window_cycles=2_000_000.0,
        kinds=("latency_spike",),
    ).to_json()
    execute_point(
        scenario="LExclc-LSharedb", payload=PAYLOAD, seed=9, faults=faults
    )
    # a fault-injected session must not have populated the memo
    assert clear_calibration_memo() == 0


def test_session_config_defaults_documented_constants():
    assert PAPER_CALIBRATION_SAMPLES == 1000
    assert SessionConfig.__dataclass_fields__[
        "calibration_samples"
    ].default == DEFAULT_CALIBRATION_SAMPLES


# -- compact sample transport ------------------------------------------


def trace_samples(n: int = 50) -> list[Sample]:
    return [
        Sample(timestamp=float(i), latency=40.0 + i, label="cbx"[i % 3],
               path=(AccessPath.LOCAL_SHARED, None, AccessPath.DRAM)[i % 3])
        for i in range(n)
    ]


def test_sample_trace_sequence_protocol():
    samples = trace_samples()
    trace = SampleTrace(samples)
    assert len(trace) == 50 and len(SampleTrace()) == 0
    assert trace[0] == samples[0]
    assert trace[-1] == samples[-1] and trace[-50] == samples[0]
    with pytest.raises(IndexError):
        trace[50]
    assert trace[3:9] == samples[3:9]
    assert trace[::-7] == samples[::-7]
    assert trace[60:] == []
    assert list(trace) == samples
    assert [s.label for s in trace] == [s.label for s in samples]
    assert list(trace.timestamps) == [s.timestamp for s in samples]
    assert trace.labels == "".join(s.label for s in samples)


def test_sample_trace_equality():
    samples = trace_samples()
    trace = SampleTrace(samples)
    assert trace == SampleTrace(samples)
    assert trace == samples and samples == trace
    moved = samples[:-1] + [replace(samples[-1], latency=1.0)]
    assert trace != SampleTrace(moved) and trace != moved
    assert trace != SampleTrace(samples[:-1]) and trace != samples[:-1]
    repathed = samples[:-1] + [replace(samples[-1], path=AccessPath.L1_HIT)]
    assert trace != SampleTrace(repathed)
    assert trace != tuple(samples)  # only traces and lists compare


def test_sample_trace_pickle_roundtrip():
    trace = SampleTrace(trace_samples())
    blob = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
    clone = pickle.loads(blob)
    assert clone == trace and list(clone) == trace_samples()
    assert clone.paths == (None, AccessPath.LOCAL_SHARED, AccessPath.DRAM)
    # equal traces pickle to equal bytes, however they were built
    assert pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL) == blob
    assert pickle.dumps(SampleTrace(list(clone)),
                        protocol=pickle.HIGHEST_PROTOCOL) == blob
    # 18 bytes a slot (two doubles, a label, a path code) plus a header
    assert len(blob) < 200 + 18 * len(trace)


def test_sample_trace_refuses_exotic_payloads():
    with pytest.raises(ValueError, match="one character"):
        SampleTrace([Sample(timestamp=0.0, latency=1.0, label="long")])
    with pytest.raises(ValueError, match="not an AccessPath"):
        SampleTrace([Sample(timestamp=0.0, latency=1.0, label="c",
                            path="strange")])


def _live_samples() -> int:
    return sum(type(obj) is Sample for obj in gc.get_objects())


def test_cached_result_decodes_without_building_samples(cold_process):
    result = execute_point(
        scenario="LExclc-LSharedb", payload=PAYLOAD * 4, seed=0
    )
    assert isinstance(result.samples, SampleTrace)
    blob = encode_entry(result)
    gc.collect()
    before = _live_samples()
    decoded = decode_entry(blob)
    assert _live_samples() == before
    assert isinstance(decoded.samples, SampleTrace)
    assert decoded == result and decoded.samples == list(result.samples)


def test_transmission_result_pickles_compact(cold_process):
    result = execute_point(
        scenario="LExclc-LSharedb", payload=PAYLOAD * 4, seed=0
    )
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    objects = pickle.dumps(
        replace(result, samples=list(result.samples)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    assert pickle.loads(blob).samples == result.samples
    # the acceptance bar: at least 30% smaller than object-sample form
    assert len(blob) <= 0.7 * len(objects)


# -- cache entry format ------------------------------------------------


def test_entry_encoding_roundtrip_and_frame_check(tmp_path):
    small = {"accuracy": 0.25}
    blob = encode_entry(small)
    assert blob == ENTRY_MAGIC + pickle.dumps(
        small, protocol=pickle.HIGHEST_PROTOCOL
    )
    assert decode_entry(blob) == small
    big = list(range(4096))
    assert decode_entry(encode_entry(big)) == big
    # a bare pickle carries no entry frame: not a cache entry
    with pytest.raises(ValueError, match="not a framed cache entry"):
        decode_entry(pickle.dumps(big))
    # nor do the previous frames (RPC3: the same pickle of results that
    # still carried the decoders' run lists; RPC2: flags byte, zlib
    # payload); the cache drops such an entry and reports a miss
    cache = ResultCache(tmp_path)
    point = Point(fn="tests.runner_points:square", params={"x": 3})
    path = cache.path_for(point)
    path.parent.mkdir(parents=True)
    for old in (
        b"RPC3" + pickle.dumps(big, protocol=pickle.HIGHEST_PROTOCOL),
        b"RPC2\x01" + zlib.compress(pickle.dumps(big)),
    ):
        with pytest.raises(ValueError, match="not a framed cache entry"):
            decode_entry(old)
        path.write_bytes(old)
        assert cache.lookup(point) == (False, None)
        assert not path.exists()


#: Entry size of the pinned point below (13,564 B measured) plus 5%.  The
#: same point's entry read 14,799 B while DecodeReport kept its run list,
#: so a write-only list stored in every result fails this bound.
ENTRY_BYTES_BOUND = 14_242


def test_channel_entry_stays_under_byte_bound(cold_process):
    result = execute_point(
        scenario="LExclc-LSharedb", payload=payload_bits(100), seed=0
    )
    blob = encode_entry(result)
    assert len(blob) <= ENTRY_BYTES_BOUND
    decoded = decode_entry(blob)
    assert decoded == result
    assert not hasattr(decoded.decode, "runs")


def test_cache_drops_unframed_entry_and_recomputes(tmp_path):
    cache = ResultCache(tmp_path)
    point = Point(fn="tests.runner_points:square", params={"x": 2})
    path = cache.path_for(point)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(4))  # bare pickle, current generation
    assert cache.lookup(point) == (False, None)
    assert not path.exists()
    spec = ExperimentSpec(experiment="unframed", points=(point,))
    report = Runner(jobs=1, cache=cache).run(spec)
    assert report.values == [4] and report.cache_hits == 0
    assert path.read_bytes().startswith(ENTRY_MAGIC)
    assert cache.lookup(point) == (True, 4)


def test_cache_stats_and_gc(tmp_path):
    # a pre-salt flat-layout entry and a stale-salt generation
    legacy = tmp_path / "ab" / "ab00.pkl"
    legacy.parent.mkdir(parents=True)
    legacy.write_bytes(pickle.dumps(1.0))
    stale = tmp_path / "repro-0.9.0" / "cd" / "cd00.pkl"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(encode_entry(2.0))

    cache = ResultCache(tmp_path)
    point = Point(fn="tests.runner_points:square", params={"x": 3})
    cache.store(point, 9)

    stats = cache.stats()
    assert stats["entries"] == 3
    generations = stats["generations"]
    # the flat ``ab/`` directory is just another stale generation
    assert generations["ab"] == {
        "entries": 1, "bytes": legacy.stat().st_size, "current": False,
    }
    assert generations["repro-0.9.0"]["entries"] == 1
    assert not generations["repro-0.9.0"]["current"]
    current = [g for g in generations.values() if g["current"]]
    assert len(current) == 1 and current[0]["entries"] == 1

    removed, freed = cache.gc()
    assert removed == 2 and freed > 0
    assert cache.lookup(point) == (True, 9)  # current generation survives
    assert not legacy.exists() and not stale.exists()
    after = cache.stats()
    assert set(after["generations"]) == {
        name for name, info in after["generations"].items() if info["current"]
    }


def test_cache_cli_stats_and_gc(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stale = tmp_path / "repro-0.9.0" / "aa" / "aa00.pkl"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(encode_entry(1.0))

    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "repro-0.9.0" in out and "(stale)" in out

    assert main(["cache", "gc"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1" in out
    assert not stale.exists()


def test_grid_cache_entries_shrink_at_least_30_percent(
    cold_process, tmp_path
):
    """The acceptance criterion on disk: schema v2 ≥30% smaller."""
    spec = channel_spec(n=2)
    cache = ResultCache(tmp_path)
    values = Runner(jobs=1, cache=cache).run(spec).values
    v2_bytes = sum(
        cache.path_for(p).stat().st_size for p in spec.points
    )
    object_bytes = sum(
        len(pickle.dumps(replace(v, samples=list(v.samples)),
                         protocol=pickle.HIGHEST_PROTOCOL))
        for v in values
    )
    assert v2_bytes <= 0.7 * object_bytes
    # and the cached entries decode back bit-identically
    rerun = Runner(jobs=1, cache=cache).run(spec)
    assert rerun.cache_hits == len(spec.points)
    assert values_digest(rerun.values) == values_digest(values)
