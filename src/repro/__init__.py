"""repro: a coherence-state covert-channel laboratory.

A from-scratch reproduction of Yao, Doroslovacki and Venkataramani,
*"Are Coherence Protocol States Vulnerable to Information Leakage?"*
(HPCA 2018), on a simulated dual-socket machine:

* :mod:`repro.sim` — deterministic discrete-event engine.
* :mod:`repro.mem` — caches, MESI/MESIF/MOESI coherence, latency model.
* :mod:`repro.kernel` — processes, paging, KSM dedup, scheduler, noise.
* :mod:`repro.channel` — the paper's trojan/spy channels (the core).
* :mod:`repro.mitigation` — the Section VIII-E defenses.
* :mod:`repro.analysis` — CDFs, band discovery, channel capacity.
* :mod:`repro.obs` — structured tracing and run manifests.
* :mod:`repro.experiments` — one runnable driver per paper figure/table.

Quickstart::

    from repro import run_transmission
    result = run_transmission("LExclc-LSharedb", [1, 0, 1, 1, 0])
    print(result.received, result.accuracy, result.achieved_rate_kbps)

Beyond the paper's snoop-MESI cells, :data:`repro.channel.SCENARIOS`
registers the whole (protocol x channel x topology) matrix — e.g.
``run_transmission("moesi-ostate", ...)`` for the MOESI dirty-sharer
channel or ``"dir-es"`` for the home-node directory backend; the
``leaderboard`` driver reports every cell.
"""

from repro.channel import (
    TABLE_I,
    ChannelSession,
    LatencyBands,
    MultiBitSession,
    ProtocolParams,
    ReliableChannel,
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    SessionConfig,
    SymbolParams,
    TransmissionResult,
    calibrate,
    matrix_cell,
    run_transmission,
    scenario_by_name,
    scenario_spec_by_name,
)
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.mem import (
    CLOCK_HZ,
    CoherenceState,
    LatencyProfile,
    Machine,
    MachineConfig,
    NoiseModel,
    check_machine,
)
from repro.obs import RunManifest, TraceRecorder
from repro.sim import RngStreams, Simulator

# 1.6.0: results carry their latency trace as a column-stored
# SampleTrace, which pickles in another layout than the packed sample
# tuple it replaces — the bump salts the result cache, so no entry of
# the old layout is ever decoded into the new class.
__version__ = "1.6.0"

__all__ = [
    "CLOCK_HZ",
    "ChannelSession",
    "CoherenceState",
    "Kernel",
    "LatencyBands",
    "LatencyProfile",
    "Machine",
    "MachineConfig",
    "MultiBitSession",
    "NoiseModel",
    "ProtocolParams",
    "ReliableChannel",
    "ReproError",
    "RngStreams",
    "RunManifest",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "SessionConfig",
    "Simulator",
    "SymbolParams",
    "TABLE_I",
    "TraceRecorder",
    "TransmissionResult",
    "calibrate",
    "check_machine",
    "matrix_cell",
    "run_transmission",
    "scenario_by_name",
    "scenario_spec_by_name",
]
