"""Section VII-A: trojan/spy pre-transmission synchronization.

Measures the timing handshake that precedes the first bit (and follows
any context switch involving either party).  The paper reports ~90 ms
on average; the driver reports the measured handshake duration and the
latency sequences both parties observed.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import ChannelSession, SessionConfig
from repro.channel.sync import SyncParams, run_synchronization
from repro.runner import ExperimentSpec, Point

NAME = "sync"
POINT_FN = "repro.experiments.sync_handshake:point"


def point(*, seed: int, params: dict | None = None) -> dict:
    """Run the handshake on a fresh session; returns durations."""
    session = ChannelSession(SessionConfig(spec=TABLE_I[0].name, seed=seed))
    result = run_synchronization(
        session.kernel,
        session.bands,
        session.trojan_proc,
        session.spy_proc,
        session.trojan_va,
        session.spy_va,
        trojan_core=session.local_cores[0],
        spy_core=session.config.spy_core,
        params=SyncParams(**params) if params is not None else None,
    )
    return {
        "synced": result.synced,
        "duration_ms": result.duration_ms,
        "trojan_ms": result.trojan_cycles / 2.67e6,
        "spy_ms": result.spy_cycles / 2.67e6,
        "spy_latencies": result.spy_latencies,
        "trojan_latencies": result.trojan_latencies,
    }


def build_spec(
    seed: int = 0, params: SyncParams | dict | None = None
) -> ExperimentSpec:
    """A single-point grid: one handshake measurement."""
    if isinstance(params, SyncParams):
        params = asdict(params)
    return ExperimentSpec(
        experiment=NAME,
        points=(Point(
            fn=POINT_FN,
            params={"seed": seed, "params": params},
            label="handshake",
        ),),
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    return values[0]


def render(result: dict) -> str:
    return ascii_table(
        ("metric", "value"),
        [
            ("synchronized", result["synced"]),
            ("handshake duration", f"{result['duration_ms']:.1f} ms"),
            ("trojan side", f"{result['trojan_ms']:.1f} ms"),
            ("spy side", f"{result['spy_ms']:.1f} ms"),
            ("paper reference", "~90 ms average"),
        ],
        title="Section VII-A: pre-transmission synchronization",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed)


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
