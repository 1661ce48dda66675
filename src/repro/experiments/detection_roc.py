"""Detection extension: can a defender spot the channel in telemetry?

The paper motivates defenses against coherence-protocol exploits; this
driver evaluates the :mod:`repro.detection` subsystem: it runs (a) covert
transmissions on every Table I scenario and (b) benign workloads
(kernel-build noise, a producer/consumer app), and reports detection
and false-positive outcomes.  Both are observed the one way detection
observes a machine: a :class:`~repro.detection.StreamingDetector`
subscribed to the session's trace feed (tracing starts after
calibration, as in the arena's attack legs), scanned once at the end.
The benign programs are the arena's
(:func:`repro.experiments.arena.run_benign`).
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import ChannelSession, SessionConfig
from repro.detection import OnlineRoc, StreamingDetector
from repro.experiments.arena import run_benign
from repro.experiments.common import payload_bits
from repro.mem.cacheline import LINE_SIZE
from repro.runner import ExperimentSpec, Point

NAME = "detect"
POINT_FN = "repro.experiments.detection_roc:point"

#: Row label of each benign workload (:data:`arena.BENIGN_WORKLOADS`).
BENIGN_LABELS = {
    "kernel-build": "benign:kernel-build x6",
    "producer-consumer": "benign:producer/consumer",
}


def point(*, workload: str, seed: int, bits: int = 40) -> dict:
    """Run one monitored workload; returns its detection verdict row."""
    kind, _, detail = workload.partition(":")
    if kind == "attack":
        return _attack_point(detail, seed, bits)
    if kind == "benign" and detail in BENIGN_LABELS:
        detector, now = run_benign(detail, seed)
        detections = detector.scan(now)
        return _row(BENIGN_LABELS[detail], bool(detections), detections)
    raise ValueError(f"unknown workload {workload!r}")


def _attack_point(scenario: str, seed: int, bits: int) -> dict:
    session = ChannelSession(SessionConfig(
        spec=scenario, seed=seed,
        calibration_samples=200,
    ))
    detector = StreamingDetector()
    session.start_trace().subscribe(detector)
    session.transmit(payload_bits(bits))
    detections = detector.scan(session.sim.global_clock)
    covert_line = (
        session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    )
    hit = any(d.line == covert_line for d in detections)
    return _row(f"attack:{scenario}", hit, detections)


def _row(workload: str, detected: bool, detections: list) -> dict:
    top = detections[0] if detections else None
    return {
        "workload": workload,
        "detected": detected,
        "score": top.score if top else 0.0,
        "reasons": list(top.reasons) if top else [],
    }


def build_spec(seed: int = 0, bits: int = 40) -> ExperimentSpec:
    """Attack points (one per scenario) plus the benign workloads."""
    points = [
        Point(
            fn=POINT_FN,
            params={"workload": f"attack:{s.name}", "seed": seed,
                    "bits": bits},
            label=f"attack:{s.name}",
        )
        for s in TABLE_I
    ]
    points.append(Point(
        fn=POINT_FN,
        params={"workload": "benign:kernel-build", "seed": seed},
        label="benign:kernel-build",
    ))
    points.append(Point(
        fn=POINT_FN,
        params={"workload": "benign:producer-consumer", "seed": seed + 1},
        label="benign:producer-consumer",
    ))
    return ExperimentSpec(
        experiment=NAME,
        points=tuple(points),
        meta={"attacks": len(TABLE_I), "benign": 2},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    n_attacks = spec.meta["attacks"]
    attacks, benign = values[:n_attacks], values[n_attacks:]
    # The offline ROC over workload scores, via the same fixed-bin
    # histogram the streaming path accumulates online — the two are
    # identical by construction (asserted in
    # tests/test_streaming_detection.py).
    roc = OnlineRoc.from_samples(
        [(r["score"], True) for r in attacks]
        + [(r["score"], False) for r in benign]
    )
    return {
        "rows": attacks + benign,
        "true_positives": sum(1 for r in attacks if r["detected"]),
        "attacks": len(attacks),
        "false_positives": sum(1 for r in benign if r["detected"]),
        "benign": len(benign),
        "roc_points": [list(p) for p in roc.points()],
        "auc": roc.auc(),
    }


def render(result: dict) -> str:
    rows = [
        (r["workload"], "FLAGGED" if r["detected"] else "clear",
         f"{r['score']:.2f}", "; ".join(r["reasons"])[:60])
        for r in result["rows"]
    ]
    table = ascii_table(
        ("workload", "verdict", "score", "signatures"),
        rows,
        title="Coherence covert-channel detection (extension experiment)",
    )
    return (
        f"{table}\n\ndetected {result['true_positives']}/"
        f"{result['attacks']} attacks, {result['false_positives']}/"
        f"{result['benign']} false positives"
        f" (AUC {result['auc']:.2f})"
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=40)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits)


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
