"""The paper's core contribution: coherence-state covert channels.

Public surface:

* :data:`~repro.channel.config.TABLE_I` and
  :class:`~repro.channel.config.Scenario` — the six attack scenarios.
* :class:`~repro.channel.scenarios.ScenarioSpec` /
  :data:`~repro.channel.scenarios.SCENARIOS` — the typed scenario
  registry spanning (protocol x channel family x topology).
* :class:`~repro.channel.session.ChannelSession` /
  :func:`~repro.channel.session.run_transmission` — end-to-end binary
  transmission (Algorithms 1 and 2).
* :class:`~repro.channel.symbols.MultiBitSession` — 2-bit symbol channel.
* :class:`~repro.channel.ecc.ReliableChannel` — parity + NACK transfer.
* :func:`~repro.channel.calibration.calibrate` — latency-band
  measurement (Figure 2).
* :func:`~repro.channel.sync.run_synchronization` — the pre-transmission
  handshake.
"""

from repro.channel.calibration import (
    Band,
    LatencyBands,
    calibrate,
    measure_dram,
    measure_pair,
)
from repro.channel.config import (
    ALL_PAIRS,
    LCOLD,
    LEXCL,
    LMRU,
    LOWNED,
    LSHARED,
    REXCL,
    RSHARED,
    TABLE_I,
    LineState,
    Location,
    ProtocolParams,
    Scenario,
    StatePair,
    scenario_by_name,
)
from repro.channel.scenarios import (
    CHANNEL_FAMILIES,
    MATRIX_COLS,
    MATRIX_ROWS,
    SCENARIOS,
    TOPOLOGIES,
    ScenarioSpec,
    matrix_cell,
    scenario_spec_by_name,
)
from repro.channel.decoder import BitDecoder, DecodeReport, Sample, SampleTrace
from repro.channel.eviction import (
    EvictionSetDiscovery,
)
from repro.channel.ecc import (
    PACKET_DATA_BYTES,
    ReliableChannel,
    ReliableTransferResult,
    check_packet,
    encode_packet,
)
from repro.channel.metrics import (
    Alignment,
    align_bits,
    goodput_kbps,
    raw_bit_accuracy,
    transmission_rate_kbps,
)
from repro.channel.session import (
    ChannelSession,
    SessionBase,
    SessionConfig,
    TransmissionResult,
    execute_point,
    resolve_spec,
    run_transmission,
)
from repro.channel.spy import SpyResult, eviction_flusher, spy_program
from repro.channel.symbols import (
    BITS_PER_SYMBOL,
    SYMBOL_PAIRS,
    MultiBitSession,
    SymbolDecoder,
    SymbolParams,
    SymbolTransmissionResult,
    bits_to_symbols,
    symbols_to_bits,
)
from repro.channel.sync import SyncParams, SyncResult, run_synchronization
from repro.channel.trojan import (
    TrojanControl,
    WorkerRole,
    controller_program,
    worker_program,
    worker_roles,
)

__all__ = [
    "ALL_PAIRS",
    "Alignment",
    "BITS_PER_SYMBOL",
    "Band",
    "BitDecoder",
    "ChannelSession",
    "DecodeReport",
    "EvictionSetDiscovery",
    "LEXCL",
    "LSHARED",
    "LatencyBands",
    "LineState",
    "Location",
    "MultiBitSession",
    "CHANNEL_FAMILIES",
    "LCOLD",
    "LMRU",
    "LOWNED",
    "MATRIX_COLS",
    "MATRIX_ROWS",
    "PACKET_DATA_BYTES",
    "ProtocolParams",
    "REXCL",
    "RSHARED",
    "ReliableChannel",
    "ReliableTransferResult",
    "SCENARIOS",
    "SYMBOL_PAIRS",
    "Sample",
    "SampleTrace",
    "Scenario",
    "ScenarioSpec",
    "SessionBase",
    "SessionConfig",
    "SpyResult",
    "StatePair",
    "SymbolDecoder",
    "SymbolParams",
    "SymbolTransmissionResult",
    "SyncParams",
    "SyncResult",
    "TABLE_I",
    "TOPOLOGIES",
    "TransmissionResult",
    "TrojanControl",
    "WorkerRole",
    "align_bits",
    "bits_to_symbols",
    "calibrate",
    "check_packet",
    "eviction_flusher",
    "controller_program",
    "encode_packet",
    "goodput_kbps",
    "matrix_cell",
    "measure_dram",
    "measure_pair",
    "raw_bit_accuracy",
    "resolve_spec",
    "run_synchronization",
    "execute_point",
    "run_transmission",
    "scenario_by_name",
    "scenario_spec_by_name",
    "spy_program",
    "symbols_to_bits",
    "transmission_rate_kbps",
    "worker_program",
    "worker_roles",
]
