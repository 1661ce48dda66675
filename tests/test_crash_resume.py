"""Crash-resume acceptance: a killed worker resumes from its segments.

The scenario the checkpoint subsystem exists for: a pool worker is
SIGKILLed *mid-transmission* (after durably storing some segments), the
parent survives the broken pool, and the retry attempt resumes the
point from its last good segment — finishing with a result bit-identical
to an uninterrupted run instead of recomputing from cycle zero.
"""

import hashlib
import struct

import pytest

from repro.channel.session import clear_warm_state
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.runner import ExperimentSpec, FailurePolicy, Point, Runner

EXECUTE = "repro.channel.session:execute_point"
PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]


def digest(result) -> str:
    h = hashlib.sha256()
    h.update(",".join(map(str, result.sent)).encode())
    h.update(b"|")
    h.update(",".join(map(str, result.received)).encode())
    h.update(b"|")
    for sample in result.samples:
        h.update(struct.pack("<dd", sample.timestamp, sample.latency))
    h.update(struct.pack("<d", result.cycles))
    return h.hexdigest()


def channel_spec():
    return ExperimentSpec(experiment="crash-resume", points=tuple(
        Point(
            fn=EXECUTE,
            params={"spec": "mesi-es", "payload": list(PAYLOAD),
                    "seed": seed, "calibration_samples": 120},
            label=label,
        )
        for seed, label in ((7, "victim"), (8, "bystander"))
    ))


@pytest.fixture
def seg_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_SEGMENT_CYCLES", "REPRO_KILL_AT_SEGMENT",
                "REPRO_CHECKPOINT_EXPORT", "REPRO_TRACE"):
        monkeypatch.delenv(var, raising=False)
    clear_warm_state()
    yield monkeypatch
    clear_warm_state()


def test_killed_worker_resumes_bit_identical(seg_env):
    spec = channel_spec()
    golden = Runner(jobs=1).run(spec).values

    # worker_kill with a positive magnitude defers the SIGKILL until the
    # worker has stored that many checkpoint segments, so the death is
    # genuinely mid-run; attempts=1 leaves the retry attempt clean.
    seg_env.setenv("REPRO_SEGMENT_CYCLES", "25000")
    clear_warm_state()
    plan = FaultPlan(seed=0, events=(
        FaultEvent(plane="harness", kind="worker_kill", point=0,
                   attempts=1, magnitude=2.0),
    ))
    report = Runner(
        jobs=2,
        policy=FailurePolicy(retries=1, backoff_base=0.001,
                             backoff_max=0.01),
        injector=FaultInjector(plan),
    ).run(spec)

    # the pool actually broke and was respawned
    assert report.pool_respawns >= 1
    assert report.outcomes[0].attempts >= 2

    # every value — the resumed victim included — is bit-identical to
    # the uninterrupted golden run
    for value, reference in zip(report.values, golden):
        assert digest(value) == digest(reference)

    # the victim's manifest records that it resumed from a segment
    assert report.values[0].manifest.resumed_from is not None
    assert report.values[0].manifest.segment_cycles == 25000.0
