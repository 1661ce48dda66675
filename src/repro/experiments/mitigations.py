"""Section VIII-E: the proposed mitigations, evaluated as ablations.

Runs the same transmission four ways — undefended, with the targeted
noise injector, with the LLC-direct-E-response hardware fix, and with
per-core timing obfuscation — plus the KSM-timeout watchdog, and
reports how far each defense drives the channel's accuracy down.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.session import ChannelSession, SessionConfig
from repro.errors import CalibrationError, ChannelError, SyncTimeoutError
from repro.experiments.common import payload_bits
from repro.mitigation.hardware import attach_obfuscator, hardened_machine_config
from repro.mitigation.ksm_policy import deploy_ksm_timeout
from repro.mitigation.noise_injector import deploy_noise_injector
from repro.runner import ExperimentSpec, Point

NAME = "mitigations"
POINT_FN = "repro.experiments.mitigations:point"

#: Grid order of the defense points; collect() preserves it.
DEFENSES = (
    "undefended",
    "noise-injector",
    "ksm-timeout",
    "llc-direct-e",
    "timing-obfuscation",
)


def _safe_transmit(session: ChannelSession, payload: list[int]) -> float:
    try:
        return session.transmit(payload).accuracy
    except (SyncTimeoutError, ChannelError):
        # The defense prevented the spy from ever locking on: the channel
        # is fully closed.
        return 0.0


def point(*, defense: str, scenario: str, seed: int, bits: int):
    """Channel quality under one defense, on a fresh session."""
    payload = payload_bits(bits)
    # Bound reception so defenses that keep the block permanently cached
    # cannot hang the spy.
    params = ProtocolParams(max_reception_slots=3_000)

    def fresh_session(**kwargs) -> ChannelSession:
        return ChannelSession(SessionConfig(
            spec=scenario, seed=seed, params=params, **kwargs
        ))

    if defense == "undefended":
        return _safe_transmit(fresh_session(), payload)

    if defense == "noise-injector":
        session = fresh_session()
        paddr = session.spy_proc.translate(session.spy_va)
        monitor_core = session.local_cores[-1] + 1 \
            if session.local_cores[-1] + 1 \
            < session.config.machine.cores_per_socket else 3
        deploy_noise_injector(
            session.kernel, paddr, core_id=monitor_core,
            period=session.config.params.slot_cycles / 4,
        )
        return _safe_transmit(session, payload)

    if defense == "ksm-timeout":
        session = fresh_session()
        _thread, policy = deploy_ksm_timeout(session.kernel)
        accuracy = _safe_transmit(session, payload)
        return {"accuracy": accuracy, "triggered": policy.triggered}

    if defense == "llc-direct-e":
        try:
            session = fresh_session(machine=hardened_machine_config())
            return _safe_transmit(session, payload)
        except CalibrationError:
            # The E and S bands merged: the channel cannot even calibrate.
            return 0.0

    if defense == "timing-obfuscation":
        try:
            session = fresh_session()
            attach_obfuscator(session.machine, {session.config.spy_core})
            # Re-calibrate under obfuscation, as the spy would.
            session.bands = session._calibrate()
            return _safe_transmit(session, payload)
        except CalibrationError:
            return 0.0

    raise ValueError(f"unknown defense {defense!r}")


def build_spec(
    seed: int = 0, bits: int = 60, scenario=None
) -> ExperimentSpec:
    """One point per defense configuration."""
    name = (
        TABLE_I[0].name if scenario is None
        else scenario if isinstance(scenario, str)
        else scenario.name
    )
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"defense": defense, "scenario": name,
                    "seed": seed, "bits": bits},
            label=defense,
        )
        for defense in DEFENSES
    )
    return ExperimentSpec(
        experiment=NAME, points=points, meta={"scenario": name},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    """Reassemble the per-defense values into the legacy outcome dict."""
    by_defense = dict(zip(DEFENSES, values))
    ksm = by_defense["ksm-timeout"]
    outcomes = {
        "undefended": by_defense["undefended"],
        "noise injector": by_defense["noise-injector"],
        "ksm timeout": ksm["accuracy"],
        "ksm timeout triggered": ksm["triggered"],
        "llc direct E response": by_defense["llc-direct-e"],
        "timing obfuscation": by_defense["timing-obfuscation"],
    }
    return {"scenario": spec.meta["scenario"], "outcomes": outcomes}


def render(result: dict) -> str:
    rows = []
    for name, value in result["outcomes"].items():
        if isinstance(value, bool):
            rows.append((name, str(value)))
        else:
            rows.append((name, f"{value * 100:.1f}% accuracy"))
    return ascii_table(
        ("configuration", "channel quality"),
        rows,
        title=f"Section VIII-E mitigations ({result['scenario']})",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=60)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits)


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
