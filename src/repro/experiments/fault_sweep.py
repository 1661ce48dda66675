"""Fault sweep: channel accuracy under injected hostile conditions.

The robustness companion to Figure 9: instead of co-located cache noise,
the disturbances are the discrete events the paper's Section VII/VIII
protocol must survive — a third party touching the shared line, forced
preemption of the spy, and interconnect latency spikes — injected as a
deterministic :class:`~repro.faults.FaultPlan` at increasing rates.  The
shape to reproduce: accuracy (after bounded re-synchronization) degrades
gracefully with the fault rate rather than collapsing at the first
disturbance.

This driver doubles as the CI smoke test for the self-healing runner:
``python -m repro faults --jobs 2 --retries 2 --inject-faults`` layers
*harness*-plane faults (worker kills, transient errors) on top, so the
grid completes only if retry, pool-respawn, and resync all work.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.session import execute_point
from repro.experiments.common import (
    common_arguments,
    payload_bits,
    scenario_argument,
    selected_scenarios,
)
from repro.faults import FaultPlan
from repro.runner import ExperimentSpec, Point
from repro.sim.rng import derive_seed

NAME = "faults"
POINT_FN = "repro.experiments.fault_sweep:point"

#: Expected simulation faults per million cycles (the swept axis).  A
#: 100-bit transmission at the sweep rate spans ~0.3 Mcycles, so these
#: realize 0 / ~1 / ~2-3 / ~5 fault events per transmission.
FAULT_RATES = (0.0, 4.0, 8.0, 16.0)

#: Simulation fault kinds injected by the sweep.  ``ksm_unmerge`` is
#: excluded: it severs the page outright, which tests re-sync rather
#: than graceful degradation (tests/test_faults.py covers it).
FAULT_KINDS = ("third_party_touch", "preempt", "latency_spike")

#: Measured at a moderate rate so slots are wide enough that a fault
#: perturbs bits instead of destroying the handshake every time.
SWEEP_RATE_KBPS = 500

#: Slack slots past the nominal payload length when sizing the fault
#: window (handshake + inter-bit transitions).
WINDOW_SLACK_SLOTS = 40


def point(*, scenario: str, fault_rate: float, seed: int, rate: float,
          bits: int, protocol: str | None = None) -> dict:
    """One (scenario, fault rate, trial): accuracy + resyncs used."""
    window = ProtocolParams().at_rate(rate).slot_cycles * (
        bits + WINDOW_SLACK_SLOTS
    )
    plan = FaultPlan.build_simulation(
        seed=derive_seed(seed, "fault-sweep", scenario, fault_rate),
        rate_per_mcycle=fault_rate,
        window_cycles=window,
        kinds=FAULT_KINDS,
    )
    result = execute_point(
        scenario=scenario,
        payload=payload_bits(bits),
        rate_kbps=rate,
        seed=seed,
        faults=plan.to_json(),
        protocol=protocol,
    )
    return {
        "accuracy": result.accuracy,
        "resyncs": result.resyncs,
        "faults": len(plan),
    }


def build_spec(
    seed: int = 0,
    bits: int = 100,
    fault_rates=FAULT_RATES,
    scenarios=None,
    rate_kbps: float = SWEEP_RATE_KBPS,
    trials: int = 2,
    protocol: str | None = None,
) -> ExperimentSpec:
    """The scenario × fault-rate × trial grid."""
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
                "fault_rate": float(fault_rate),
                "seed": seed + 101 * trial,
                "rate": float(rate_kbps),
                "bits": bits,
                **extra,
            },
            label=f"{name} f{fault_rate:g} t{trial}",
        )
        for name in names
        for fault_rate in fault_rates
        for trial in range(trials)
    )
    return ExperimentSpec(
        experiment=NAME,
        points=points,
        meta={
            "scenarios": names,
            "fault_rates": [float(r) for r in fault_rates],
            "trials": trials,
        },
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    """Average trials into per-scenario accuracy/resync curves."""
    trials = spec.meta["trials"]
    rates = spec.meta["fault_rates"]
    it = iter(values)
    curves: dict[str, list[dict]] = {}
    for name in spec.meta["scenarios"]:
        row = []
        for fault_rate in rates:
            cells = [next(it) for _ in range(trials)]
            row.append({
                "fault_rate": float(fault_rate),
                "accuracy": sum(c["accuracy"] for c in cells) / trials,
                "resyncs": sum(c["resyncs"] for c in cells) / trials,
            })
        curves[name] = row
    return {"curves": curves, "fault_rates": list(rates)}


def render(result: dict) -> str:
    headers = ["scenario"] + [
        f"{r:g}/Mcyc" for r in result["fault_rates"]
    ]
    rows = []
    for name, row in result["curves"].items():
        cells = []
        for cell in row:
            text = f"{cell['accuracy'] * 100:.0f}%"
            if cell["resyncs"]:
                text += f" ({cell['resyncs']:.1f} rs)"
            cells.append(text)
        rows.append([name] + cells)
    return ascii_table(
        headers, rows,
        title="Fault sweep: accuracy vs injected fault rate "
              "(rs = resyncs/transmission)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    common_arguments(parser)
    scenario_argument(parser)
    parser.add_argument("--rate", type=float, default=SWEEP_RATE_KBPS)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument(
        "--fault-rates", type=float, nargs="+", default=list(FAULT_RATES),
        metavar="R", help="fault rates per million cycles to sweep",
    )


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(
        seed=args.seed,
        bits=args.bits,
        fault_rates=args.fault_rates,
        scenarios=selected_scenarios(args.scenario),
        rate_kbps=args.rate,
        trials=args.trials,
        protocol=args.protocol,
    )


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
