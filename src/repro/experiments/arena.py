"""Detection-vs-evasion arena: a tournament on live traces.

The ``detect`` driver (:mod:`repro.experiments.detection_roc`) scores
each Table I scenario once, at the end of an unmodified transmission
and at one threshold; a deployed monitor classifies the coherence
stream as it happens, and an adaptive adversary tunes its transmission
against whatever threshold the monitor runs.  This driver stages that
fight across every live cell of the scenario matrix, on the same feed
and detectors as ``detect``:

* **Attack legs** run one covert transmission per (cell, evasion
  setting, seed) with a
  :class:`~repro.detection.streaming.StreamingDetector` subscribed to
  the session recorder — the live-feed path, no second interposition
  layer.  Tracing starts at the transmission
  (:meth:`~repro.channel.session.SessionBase.start_trace`): the
  detector reads nothing before it, so setup and calibration run
  untraced and through the calibration memo, and the row equals the
  one a session traced from construction gives
  (``tests/test_fast_paths.py``).  Evasion settings are the
  adversary's ladder: rate throttling (``ProtocolParams.at_rate``, the
  paper's knob 2 — fewer flushes and downgrades per window at the cost
  of rate) and timing obfuscation
  (:func:`~repro.mitigation.hardware.attach_obfuscator` at partial or
  full band-spread width over the channel's own cores).
* **Benign legs** run the kernel-build and producer/consumer workloads
  through a tap + recorder + streaming detector (:func:`run_benign`,
  which the ``detect`` driver shares), supplying the negative score
  samples.
* **collect** computes, per cell and evasion setting, the detector's
  AUC (:class:`~repro.detection.streaming.OnlineRoc` over attack vs
  benign scores) and the surviving channel capacity (the
  :func:`~repro.experiments.leaderboard.capacity_kbps` BSC bound,
  zeroed when the covert line scores at or above the monitor's
  threshold) — the per-cell **evasion frontier** — then co-evolves the
  two sides: each generation the adversary best-responds with the
  setting that maximizes surviving capacity under the current
  threshold, and the monitor best-responds with the threshold that
  maximizes Youden's J against that setting; the trajectory runs to a
  fixed point or the generation cap.

Everything downstream of the point results is pure arithmetic, so the
tournament trajectory and frontier are bit-deterministic for a fixed
seed (asserted by ``tests/test_streaming_detection.py``).
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.scenarios import MATRIX_COLS, MATRIX_ROWS, matrix_cell
from repro.channel.session import ChannelSession, SessionConfig
from repro.detection.streaming import OnlineRoc, StreamingDetector
from repro.errors import CalibrationError, ChannelError, SyncTimeoutError
from repro.experiments.common import payload_bits
from repro.experiments.leaderboard import capacity_kbps
from repro.kernel.syscalls import Kernel
from repro.kernel.workloads import spawn_kernel_build
from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mitigation.hardware import attach_obfuscator
from repro.obs import MachineTap, TraceRecorder
from repro.runner import ExperimentSpec, Point
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

NAME = "arena"
POINT_FN = "repro.experiments.arena:point"

#: The adversary's evasion ladder: (name, rate scale, obfuscation
#: width).  Rate throttling stretches the slot (fewer events per
#: detector window, lower rate); obfuscation randomizes the channel's
#: own load latencies across the band spread (width 1.0 = the full
#: defender-grade range).  ``none`` is the unmodified channel.
EVASIONS = (
    {"name": "none", "rate_scale": 1.0, "obf_width": 0.0},
    {"name": "half-rate", "rate_scale": 0.5, "obf_width": 0.0},
    {"name": "quarter-rate", "rate_scale": 0.25, "obf_width": 0.0},
    {"name": "obfuscate", "rate_scale": 1.0, "obf_width": 1.0},
)

#: The monitor's threshold ladder (combined-score flag threshold).
THRESHOLDS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

#: The monitor's opening threshold (the ChannelDetector default).
DEFAULT_THRESHOLD = 1.0

#: Benign workloads supplying the negative score samples.
BENIGN_WORKLOADS = ("kernel-build", "producer-consumer")

#: Interim-scan cadence for detection latency (cycles).
SCAN_INTERVAL = 100_000.0

#: Seed offset separating benign RNG streams from attack streams.
_BENIGN_SEED_BASE = 9700


def live_cells() -> list[str]:
    """Matrix cells where the channel can exist at all.

    Excludes undefined cells (directory x lru) and the deterministically
    dead ones (mesi/mesif x ostate: no O state, calibration refuses the
    overlapping bands — see the leaderboard driver).  A tournament
    against a channel that cannot transmit is not a result.
    """
    cells = []
    for row in MATRIX_ROWS:
        for channel in MATRIX_COLS:
            spec = matrix_cell(row, channel)
            if spec is None:
                continue
            if spec.channel == "ostate" and spec.protocol in ("mesi", "mesif"):
                continue
            cells.append(spec.name)
    return cells


def point(
    *,
    workload: str,
    seed: int,
    bits: int = 32,
    rate_scale: float = 1.0,
    obf_width: float = 0.0,
) -> dict:
    """Run one monitored workload; returns its score/capacity row."""
    kind, _, detail = workload.partition(":")
    if kind == "attack":
        return _attack_point(detail, seed, bits, rate_scale, obf_width)
    if kind == "benign" and detail in BENIGN_WORKLOADS:
        return _benign_point(detail, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _attack_point(
    cell: str, seed: int, bits: int, rate_scale: float, obf_width: float
) -> dict:
    config = SessionConfig(spec=cell, seed=seed, trace=False)
    if rate_scale != 1.0:
        config.params = config.params.at_rate(
            config.params.nominal_rate_kbps * rate_scale
        )
    row = {
        "kind": "attack",
        "cell": cell,
        "seed": seed,
        "rate_scale": rate_scale,
        "obf_width": obf_width,
    }
    try:
        session = ChannelSession(config)
    except CalibrationError as exc:
        row.update(status="dead", detail=str(exc), max_score=0.0,
                   covert_score=0.0, accuracy=0.0, rate_kbps=0.0,
                   capacity_kbps=0.0, first_alarm=None)
        return row
    # Tracing starts here, after calibration: the detector reads only
    # the transmission, so nothing before it is recorded.
    detector = StreamingDetector(scan_interval=SCAN_INTERVAL)
    session.start_trace().subscribe(detector)
    if obf_width > 0.0:
        _attach_partial_obfuscator(session, obf_width)
    status, result = "ok", None
    try:
        result = session.transmit(payload_bits(bits))
    except SyncTimeoutError:
        status = "no-sync"
    except ChannelError:
        status = "error"
    finally:
        session.recorder.unsubscribe(detector)
    now = session.sim.global_clock
    scores = detector.score_all(now)
    covert_line = (
        session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    )
    accuracy = result.accuracy if result is not None else 0.0
    rate = result.achieved_rate_kbps if result is not None else 0.0
    row.update(
        status=status,
        accuracy=accuracy,
        rate_kbps=rate,
        capacity_kbps=capacity_kbps(accuracy, rate),
        covert_score=scores.get(covert_line, (0.0,))[0],
        max_score=max((s for s, _r in scores.values()), default=0.0),
        first_alarm=detector.first_alarm(covert_line),
        events=detector.events,
        peak_tracked=detector.peak_tracked,
    )
    return row


def _attach_partial_obfuscator(session: ChannelSession, width: float) -> None:
    """Obfuscate the channel's own cores at *width* of the full spread.

    The adversary's gamble: randomized load latencies make its traffic
    look less band-structured, at the price of the spy decoding through
    the same noise.  Width interpolates between no obfuscation (0) and
    the full defender range (1) around the band midpoint.
    """
    profile = session.machine.config.latency
    lo_full = profile.local_shared - 10.0
    hi_full = profile.remote_excl + 20.0
    mid = (lo_full + hi_full) / 2.0
    attach_obfuscator(
        session.machine,
        set(session.reserved_cores()),
        lo=mid - width * (mid - lo_full),
        hi=mid + width * (hi_full - mid),
    )


def run_benign(workload: str, seed: int) -> tuple[StreamingDetector, float]:
    """Run one benign workload under a streaming detector.

    *workload* is one of :data:`BENIGN_WORKLOADS`: six kernel-build
    noise workers beside an idle core, or a producer/consumer pair
    sharing one page.  Returns the detector, fed the whole run through
    a tap, and the final clock; the arena and the ``detect`` driver
    each build their own row from the two.
    """
    rng = RngStreams(seed)
    machine = Machine(MachineConfig(), rng)
    sim = Simulator(machine.stats)
    recorder = TraceRecorder()
    MachineTap(machine, recorder).attach()
    detector = StreamingDetector(scan_interval=SCAN_INTERVAL)
    recorder.subscribe(detector)
    kernel = Kernel(machine, sim, rng)
    if workload == "kernel-build":
        spawn_kernel_build(kernel, 6, avoid_cores={0})
        process = kernel.create_process("w")

        def waiter(cpu):
            yield from cpu.delay(800_000)

        kernel.spawn(process, "w", waiter, core_id=0)
    else:
        app = kernel.create_process("app")
        buf = app.mmap(1)

        def producer(cpu):
            for i in range(400):
                yield from cpu.store(buf, i)
                yield from cpu.delay(700)

        def consumer(cpu):
            for _ in range(400):
                yield from cpu.load(buf)
                yield from cpu.delay(700)

        kernel.spawn(app, "prod", producer, core_id=1)
        kernel.spawn(app, "cons", consumer, core_id=2)
    sim.run()
    return detector, sim.global_clock


def _benign_point(workload: str, seed: int) -> dict:
    detector, now = run_benign(workload, seed)
    scores = detector.score_all(now)
    return {
        "kind": "benign",
        "workload": workload,
        "seed": seed,
        "status": "ok",
        "max_score": max((s for s, _r in scores.values()), default=0.0),
        "lines": len(scores),
        "events": detector.events,
        "peak_tracked": detector.peak_tracked,
    }


def build_spec(
    seed: int = 0,
    bits: int = 32,
    cells: list[str] | None = None,
    attack_seeds: int = 2,
    benign_seeds: int = 3,
    generations: int = 6,
) -> ExperimentSpec:
    """Attack points per (cell, evasion, seed) plus the benign pool."""
    cells = list(cells) if cells is not None else live_cells()
    points = []
    for cell in cells:
        for evasion in EVASIONS:
            for offset in range(attack_seeds):
                points.append(Point(
                    fn=POINT_FN,
                    params={
                        "workload": f"attack:{cell}",
                        "seed": seed + offset,
                        "bits": bits,
                        "rate_scale": evasion["rate_scale"],
                        "obf_width": evasion["obf_width"],
                    },
                    label=f"{cell}/{evasion['name']}/s{offset}",
                ))
    for workload in BENIGN_WORKLOADS:
        for offset in range(benign_seeds):
            points.append(Point(
                fn=POINT_FN,
                params={
                    "workload": f"benign:{workload}",
                    "seed": seed + _BENIGN_SEED_BASE + offset,
                },
                label=f"benign:{workload}/s{offset}",
            ))
    return ExperimentSpec(
        experiment=NAME,
        points=tuple(points),
        meta={
            "cells": cells,
            "evasions": [dict(e) for e in EVASIONS],
            "attack_seeds": attack_seeds,
            "benign_seeds": benign_seeds,
            "bits": bits,
            "generations": generations,
        },
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _surviving_kbps(rows: list[dict], threshold: float) -> float:
    """Mean capacity across seeds, zeroing runs the monitor flags."""
    return _mean([
        row["capacity_kbps"] if row["max_score"] < threshold else 0.0
        for row in rows
    ])


def _rates(scores: list[float], threshold: float) -> float:
    """Fraction of samples at or above *threshold*."""
    if not scores:
        return 0.0
    return sum(1 for s in scores if s >= threshold) / len(scores)


def _tournament(
    by_evasion: dict[str, list[dict]],
    benign_scores: list[float],
    evasions: list[dict],
    generations: int,
) -> list[dict]:
    """Alternating best responses; deterministic, first-wins ties."""
    threshold = DEFAULT_THRESHOLD
    history: list[dict] = []
    for generation in range(generations):
        best = None
        best_surviving = -1.0
        for evasion in evasions:
            surviving = _surviving_kbps(by_evasion[evasion["name"]], threshold)
            if surviving > best_surviving:
                best, best_surviving = evasion, surviving
        attack_scores = [r["max_score"] for r in by_evasion[best["name"]]]
        best_threshold = threshold
        best_j = None
        for candidate in THRESHOLDS:
            j = (_rates(attack_scores, candidate)
                 - _rates(benign_scores, candidate))
            if best_j is None or j > best_j:
                best_threshold, best_j = candidate, j
        entry = {
            "generation": generation,
            "evasion": best["name"],
            "surviving_kbps": best_surviving,
            "threshold": best_threshold,
            "tpr": _rates(attack_scores, best_threshold),
            "fpr": _rates(benign_scores, best_threshold),
        }
        history.append(entry)
        converged = (
            len(history) >= 2
            and history[-2]["evasion"] == entry["evasion"]
            and history[-2]["threshold"] == entry["threshold"]
        )
        threshold = best_threshold
        if converged:
            break
    return history


def collect(spec: ExperimentSpec, values: list) -> dict:
    meta = spec.meta
    benign = [row for row in values if row["kind"] == "benign"]
    attacks = [row for row in values if row["kind"] == "attack"]
    benign_scores = [row["max_score"] for row in benign]
    evasions = meta["evasions"]
    cells: dict[str, dict] = {}
    for cell in meta["cells"]:
        by_evasion: dict[str, list[dict]] = {
            e["name"]: [] for e in evasions
        }
        for row in attacks:
            if row["cell"] != cell:
                continue
            for evasion in evasions:
                if (row["rate_scale"] == evasion["rate_scale"]
                        and row["obf_width"] == evasion["obf_width"]):
                    by_evasion[evasion["name"]].append(row)
                    break
        frontier = []
        for evasion in evasions:
            rows = by_evasion[evasion["name"]]
            attack_scores = [r["max_score"] for r in rows]
            roc = OnlineRoc.from_samples(
                [(s, True) for s in attack_scores]
                + [(s, False) for s in benign_scores]
            )
            alarms = [r["first_alarm"] for r in rows
                      if r.get("first_alarm") is not None]
            frontier.append({
                "evasion": evasion["name"],
                "rate_scale": evasion["rate_scale"],
                "obf_width": evasion["obf_width"],
                "status": rows[0]["status"] if rows else "missing",
                "auc": roc.auc(),
                "capacity_kbps": _mean([r["capacity_kbps"] for r in rows]),
                "mean_score": _mean(attack_scores),
                "surviving_kbps": _surviving_kbps(rows, DEFAULT_THRESHOLD),
                "mean_alarm_cycles": _mean(alarms) if alarms else None,
            })
        tournament = _tournament(
            by_evasion, benign_scores, evasions, meta["generations"]
        )
        final = tournament[-1]
        equilibrium = {
            "evasion": final["evasion"],
            "threshold": final["threshold"],
            "surviving_kbps": _surviving_kbps(
                by_evasion[final["evasion"]], final["threshold"]
            ),
            "converged": len(tournament) < meta["generations"],
        }
        cells[cell] = {
            "frontier": frontier,
            "tournament": tournament,
            "equilibrium": equilibrium,
        }
    return {
        "cells": cells,
        "benign_scores": benign_scores,
        "thresholds": list(THRESHOLDS),
        "bits": meta["bits"],
        "generations": meta["generations"],
    }


def render(result: dict) -> str:
    summary_rows = []
    for cell, data in result["cells"].items():
        eq = data["equilibrium"]
        none_row = data["frontier"][0]
        summary_rows.append((
            cell,
            f"{none_row['capacity_kbps']:.0f}K",
            f"{none_row['auc']:.2f}",
            eq["evasion"],
            f"{eq['threshold']:.2f}",
            f"{eq['surviving_kbps']:.0f}K",
            "yes" if eq["converged"] else "no",
        ))
    parts = [ascii_table(
        ("cell", "open capacity", "AUC", "equilibrium evasion",
         "threshold", "surviving", "converged"),
        summary_rows,
        title=(f"Detection-vs-evasion arena "
               f"({result['bits']}-bit payloads, "
               f"{len(result['benign_scores'])} benign samples)"),
    )]
    frontier_rows = []
    for cell, data in result["cells"].items():
        for row in data["frontier"]:
            alarm = row["mean_alarm_cycles"]
            frontier_rows.append((
                cell,
                row["evasion"],
                row["status"],
                f"{row['auc']:.2f}",
                f"{row['mean_score']:.2f}",
                f"{row['capacity_kbps']:.0f}",
                f"{row['surviving_kbps']:.0f}",
                "-" if alarm is None else f"{alarm / 1e6:.2f}M",
            ))
    parts.append("")
    parts.append(ascii_table(
        ("cell", "evasion", "status", "AUC", "score",
         "capacity (Kbps)", "surviving (Kbps)", "first alarm"),
        frontier_rows,
        title="Per-cell evasion frontier (detector AUC vs surviving capacity)",
    ))
    parts.append("")
    parts.append(
        "surviving = BSC capacity zeroed when the monitor flags the run "
        f"(threshold {DEFAULT_THRESHOLD}); equilibrium = fixed point of "
        "alternating best responses"
    )
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=32)
    parser.add_argument(
        "--cells", nargs="*", default=None,
        help="restrict to these matrix cells (default: every live cell)",
    )
    parser.add_argument("--attack-seeds", type=int, default=2)
    parser.add_argument("--benign-seeds", type=int, default=3)
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: 12-bit payloads, one seed per leg",
    )


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.smoke:
        return build_spec(
            seed=args.seed, bits=12, cells=args.cells,
            attack_seeds=1, benign_seeds=1,
            generations=args.generations,
        )
    return build_spec(
        seed=args.seed, bits=args.bits, cells=args.cells,
        attack_seeds=args.attack_seeds, benign_seeds=args.benign_seeds,
        generations=args.generations,
    )


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
