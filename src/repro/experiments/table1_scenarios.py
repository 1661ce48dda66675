"""Table I: the six covert-channel scenarios and trojan thread placement.

Verifies, by construction and by live transmission, that each scenario
uses exactly the thread complement the paper's Table I lists, and that
the spy's observed service paths match the intended (location, state)
combinations.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import execute_point, resolve_spec
from repro.experiments.common import (
    payload_bits,
    protocol_argument,
)
from repro.runner import ExperimentSpec, Point

NAME = "table1"
POINT_FN = "repro.experiments.table1_scenarios:point"

#: The paper's Table I thread columns, for cross-checking.
PAPER_TABLE_I = {
    "LExclc-LSharedb": (2, 2, 0),
    "RExclc-RSharedb": (2, 0, 2),
    "RExclc-LExclb": (2, 1, 1),
    "RExclc-LSharedb": (3, 2, 1),
    "RSharedc-LExclb": (3, 1, 2),
    "RSharedc-LSharedb": (4, 2, 2),
}


def point(*, scenario: str, seed: int, bits: int,
          protocol: str | None = None) -> dict:
    """Short transmission on one scenario: placement + live accuracy."""
    spec = resolve_spec(scenario, protocol=protocol)
    obj = spec.scenario
    result = execute_point(
        spec=spec, payload=payload_bits(bits), seed=seed
    )
    label_counts = Counter(s.label for s in result.samples)
    return {
        "scenario": obj.name,
        "total_threads": obj.total_threads,
        "local_threads": obj.local_threads,
        "remote_threads": obj.remote_threads,
        "accuracy": result.accuracy,
        "labels": dict(label_counts),
    }


def build_spec(seed: int = 0, bits: int = 24,
               protocol: str | None = None) -> ExperimentSpec:
    """One point per Table I scenario."""
    extra = {"protocol": protocol} if protocol else {}
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"scenario": s.name, "seed": seed, "bits": bits, **extra},
            label=s.name,
        )
        for s in TABLE_I
    )
    return ExperimentSpec(experiment=NAME, points=points)


def collect(spec: ExperimentSpec, values: list) -> dict:
    return {"rows": list(values)}


def render(result: dict) -> str:
    rows = []
    for row in result["rows"]:
        paper = PAPER_TABLE_I[row["scenario"]]
        ours = (row["total_threads"], row["local_threads"],
                row["remote_threads"])
        rows.append((
            row["scenario"],
            f"{ours[0]} ({ours[1]} local, {ours[2]} remote)",
            f"{paper[0]} ({paper[1]} local, {paper[2]} remote)",
            "OK" if ours == paper else "MISMATCH",
            f"{row['accuracy'] * 100:.0f}%",
        ))
    return ascii_table(
        ("scenario", "our trojan threads", "paper Table I", "check",
         "live accuracy"),
        rows,
        title="Table I: scenarios and trojan thread placement",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=24)
    protocol_argument(parser)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits,
                      protocol=args.protocol)


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
