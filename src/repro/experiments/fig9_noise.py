"""Figure 9: raw-bit accuracy with co-located kernel-build noise.

Runs each scenario alongside 0-8 kernel-build worker threads (the
paper's kcbench stress test).  The shape to reproduce: accuracy stays
high through ~6 background threads and degrades visibly at 8, with the
remote-exclusive scenarios hit hardest (the paper notes E-state loads
from remote caches vary most under bus saturation).
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import execute_point
from repro.experiments.common import (
    FIG9_NOISE_LEVELS,
    common_arguments,
    payload_bits,
    scenario_argument,
    selected_scenarios,
)
from repro.runner import ExperimentSpec, Point

NAME = "fig9"
POINT_FN = "repro.experiments.fig9_noise:point"

#: Figure 9 is measured at a moderate transmission rate.
FIG9_RATE_KBPS = 500

#: Warm-up prefix transmitted before the measured payload so the noise
#: workload's cache footprint reaches steady state (Figure 9's regime).
WARMUP_BITS = 24


def point(*, scenario: str, level: int, seed: int, rate: float,
          bits: int, protocol: str | None = None) -> float:
    """One (scenario, noise level, trial): steady-state accuracy."""
    result = execute_point(
        scenario=scenario,
        payload=payload_bits(bits),
        rate_kbps=rate,
        seed=seed,
        noise_threads=level,
        warmup_bits=WARMUP_BITS,
        protocol=protocol,
    )
    return result.accuracy


def build_spec(
    seed: int = 0,
    bits: int = 100,
    noise_levels=FIG9_NOISE_LEVELS,
    scenarios=None,
    rate_kbps: float = FIG9_RATE_KBPS,
    trials: int = 2,
    protocol: str | None = None,
) -> ExperimentSpec:
    """The scenario × noise-level × trial grid of Figure 9.

    Per-trial seeds stay on the historical ``seed + 101 * trial``
    derivation so results are bit-compatible with the serial driver.
    """
    names = [
        s if isinstance(s, str) else s.name
        for s in (scenarios if scenarios is not None else TABLE_I)
    ]
    trials = max(1, trials)
    extra = {"protocol": protocol} if protocol else {}
    points = tuple(
        Point(
            fn=POINT_FN,
            params={
                "scenario": name,
                "level": int(level),
                "seed": seed + 101 * trial,
                "rate": float(rate_kbps),
                "bits": bits,
                **extra,
            },
            label=f"{name} x{level}kbuild t{trial}",
        )
        for name in names
        for level in noise_levels
        for trial in range(trials)
    )
    return ExperimentSpec(
        experiment=NAME,
        points=points,
        meta={
            "scenarios": names,
            "noise_levels": [int(n) for n in noise_levels],
            "trials": trials,
        },
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    """Average the trials back into per-scenario noise curves."""
    trials = spec.meta["trials"]
    levels = spec.meta["noise_levels"]
    it = iter(values)
    curves: dict[str, list[tuple[int, float]]] = {}
    for name in spec.meta["scenarios"]:
        points = []
        for level in levels:
            accs = [next(it) for _ in range(trials)]
            points.append((int(level), sum(accs) / len(accs)))
        curves[name] = points
    return {"curves": curves, "noise_levels": list(levels)}


def render(result: dict) -> str:
    headers = ["scenario"] + [
        f"{n} kbuild" for n in result["noise_levels"]
    ]
    rows = []
    for name, points in result["curves"].items():
        rows.append([name] + [f"{acc * 100:.0f}%" for _n, acc in points])
    return ascii_table(
        headers, rows,
        title="Figure 9: raw-bit accuracy under kernel-build noise",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    common_arguments(parser)
    scenario_argument(parser)
    parser.add_argument("--rate", type=float, default=FIG9_RATE_KBPS)
    parser.add_argument("--trials", type=int, default=2)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(
        seed=args.seed,
        bits=args.bits,
        scenarios=selected_scenarios(args.scenario),
        rate_kbps=args.rate,
        trials=args.trials,
        protocol=args.protocol,
    )


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
