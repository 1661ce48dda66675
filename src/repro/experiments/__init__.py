"""Experiment drivers: one runnable module per paper figure/table.

Run any driver as a module, e.g.::

    python -m repro.experiments.fig2_latency_cdf
    python -m repro.experiments.fig8_bandwidth --scenario RExclc-LSharedb

or through the unified CLI (``python -m repro <name>``), which adds the
shared runner options (``--jobs``, ``--no-cache``, ``--cache-dir``).

Every driver self-describes through :data:`REGISTRY`, which also owns
its one-line summary.  A driver module exposes ``build_spec(...)`` /
``spec_from_args(args)`` returning an
:class:`~repro.runner.ExperimentSpec`, ``collect(spec, values)`` and
``render(result)``; the entry points ``run(spec)`` and ``main(name,
argv)`` are written once in :mod:`repro.experiments.common`, which
also documents the contract.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass
from types import ModuleType

# Drivers are imported lazily (``python -m`` would otherwise warn about
# the module being pre-imported through the package, and ``repro list``
# should not pay for importing every driver).
__all__ = [
    "REGISTRY",
    "ExperimentInfo",
    "ablations",
    "arena",
    "capacity_analysis",
    "common",
    "detection_roc",
    "fault_sweep",
    "fig2_latency_cdf",
    "fig7_reception",
    "fig8_bandwidth",
    "fig9_noise",
    "fig10_ecc",
    "fig11_multibit",
    "leaderboard",
    "mitigations",
    "sync_handshake",
    "table1_scenarios",
]


@dataclass(frozen=True)
class ExperimentInfo:
    """One registry row: a driver described without importing it."""

    name: str
    module: str
    summary: str

    def load(self) -> ModuleType:
        """Import and return the driver module."""
        return importlib.import_module(f"repro.experiments.{self.module}")

    def build_spec(self, args: argparse.Namespace | None = None, **kwargs):
        """The driver's grid: from parsed CLI args or from kwargs."""
        module = self.load()
        if args is not None:
            return module.spec_from_args(args)
        return module.build_spec(**kwargs)

    def run(self, spec) -> dict:
        from repro.experiments.common import run

        return run(spec)

    def collect(self, spec, values: list) -> dict:
        return self.load().collect(spec, values)

    def render(self, result: dict) -> str:
        return self.load().render(result)

    def main(self, argv: list[str] | None = None) -> None:
        from repro.experiments.common import main

        main(self.name, argv)


#: Short CLI name -> self-describing driver entry (paper order).
REGISTRY: dict[str, ExperimentInfo] = {
    info.name: info
    for info in (
        ExperimentInfo(
            "fig2", "fig2_latency_cdf",
            "Figure 2 + Section V latency reference points",
        ),
        ExperimentInfo(
            "table1", "table1_scenarios",
            "Table I scenario/thread-placement check",
        ),
        ExperimentInfo(
            "fig7", "fig7_reception",
            "Figures 6-7 transmission + reception traces",
        ),
        ExperimentInfo(
            "fig8", "fig8_bandwidth",
            "Figure 8 accuracy-vs-rate sweep",
        ),
        ExperimentInfo(
            "fig9", "fig9_noise",
            "Figure 9 kernel-build noise sweep",
        ),
        ExperimentInfo(
            "fig10", "fig10_ecc",
            "Figure 10 parity+NACK effective rates",
        ),
        ExperimentInfo(
            "fig11", "fig11_multibit",
            "Figure 11 2-bit symbol channel",
        ),
        ExperimentInfo(
            "sync", "sync_handshake",
            "Section VII-A synchronization timing",
        ),
        ExperimentInfo(
            "mitigations", "mitigations",
            "Section VIII-E defenses",
        ),
        ExperimentInfo(
            "ablations", "ablations",
            "DESIGN.md design-choice ablations",
        ),
        ExperimentInfo(
            "detect", "detection_roc",
            "extension: covert-channel detection",
        ),
        ExperimentInfo(
            "capacity", "capacity_analysis",
            "extension: information-theoretic capacity",
        ),
        ExperimentInfo(
            "faults", "fault_sweep",
            "robustness: accuracy vs injected fault rate",
        ),
        ExperimentInfo(
            "leaderboard", "leaderboard",
            "scenario-matrix leaderboard: every (protocol x channel) cell",
        ),
        ExperimentInfo(
            "arena", "arena",
            "extension: detection-vs-evasion arena on live traces",
        ),
    )
}
