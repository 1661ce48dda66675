"""Figure 11 / Section VIII-D: 2-bit symbols over four latency bands.

The trojan encodes two bits per symbol using all four (location, state)
combinations; the spy distinguishes four latency bands per timed load.
The paper's headline: ~1.1 Mbps peak versus ~700 Kbps for the best
binary configuration.  The driver transmits a pattern whose first nine
symbols exercise all four symbol values (as the paper's magnified view
does) and sweeps the symbol rate to find the peak accurate rate.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table, bitstring
from repro.channel.symbols import MultiBitSession, SymbolParams
from repro.experiments.common import payload_bits
from repro.runner import ExperimentSpec, Point

NAME = "fig11"
POINT_FN = "repro.experiments.fig11_multibit:point"

#: The 18-bit prefix of Figure 11's magnified view: all four symbols.
FIG11_PREFIX = [1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1]

#: Symbol rates swept by default (Kbits/s).
FIG11_RATES = (700, 900, 1100, 1300)


def _payload(bits: int) -> list[int]:
    payload = FIG11_PREFIX + payload_bits(bits - len(FIG11_PREFIX))
    if len(payload) % 2:
        payload.append(0)
    return payload


def point(*, rate: float, seed: int, bits: int) -> dict:
    """One symbol-rate point; keeps the full trace for the first rate."""
    session = MultiBitSession(
        symbol_params=SymbolParams().at_rate(rate), seed=seed
    )
    result = session.transmit(_payload(bits))
    return {
        "rate_kbps": float(rate),
        "achieved_kbps": result.achieved_rate_kbps,
        "accuracy": result.accuracy,
        "result": result,
    }


def build_spec(
    seed: int = 0, bits: int = 120, rates=FIG11_RATES
) -> ExperimentSpec:
    """One point per swept symbol rate."""
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"rate": float(rate), "seed": seed, "bits": bits},
            label=f"{rate:g}K",
        )
        for rate in rates
    )
    return ExperimentSpec(
        experiment=NAME, points=points, meta={"bits": bits},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    points = [
        {k: v for k, v in value.items() if k != "result"} for value in values
    ]
    trace = values[0]["result"] if values else None
    return {
        "points": points,
        "payload": _payload(spec.meta["bits"]),
        "trace": trace,
    }


def render(result: dict) -> str:
    rows = [
        (f"{p['rate_kbps']:.0f}", f"{p['achieved_kbps']:.0f}",
         f"{p['accuracy'] * 100:.1f}%")
        for p in result["points"]
    ]
    parts = [ascii_table(
        ("nominal rate (Kbps)", "achieved (Kbps)", "bit accuracy"),
        rows,
        title=(
            "Figure 11 / Sec VIII-D: 2-bit symbol channel "
            "(paper peak ~1100 Kbps vs ~700 Kbps binary)"
        ),
    )]
    trace = result["trace"]
    parts.append("")
    parts.append("Magnified view: first 9 symbols (18 bits "
                 + bitstring(result["payload"][:18], group=2) + ")")
    for sample in trace.samples[:30]:
        parts.append(
            f"  t={sample.timestamp:12.0f}  latency={sample.latency:7.1f}"
            f"  symbol={sample.label}"
        )
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=120)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits)


if __name__ == "__main__":
    from repro.experiments.common import main
    main(NAME)
