"""Multi-bit symbol transmission (Section VIII-D / Figure 11).

Instead of one (location, state) pair for data and one for boundaries,
the trojan uses *all four* pairs — LShared, LExcl, RShared, RExcl — to
encode a 2-bit symbol per transmission slot group, with an idle (no
cached copy -> DRAM band) gap delimiting symbols.  The paper measures a
peak of ~1.1 Mbps against ~700 Kbps for the best binary channel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.channel.calibration import DEFAULT_CALIBRATION_SAMPLES, DRAM_LABEL
from repro.channel.config import ALL_PAIRS, ProtocolParams, Scenario, StatePair
from repro.channel.decoder import Sample, SampleTrace
from repro.channel.metrics import Alignment, align_bits, transmission_rate_kbps
from repro.channel.session import SessionBase, SessionConfig, resolve_spec
from repro.channel.trojan import TrojanControl, worker_roles
from repro.errors import ConfigError
from repro.mem.latency import CLOCK_HZ
from repro.obs import RunManifest
from repro.sim.thread import Cpu

#: Symbol alphabet: index -> state pair.  Two bits per symbol:
#: 00=LShared, 01=LExcl, 10=RShared, 11=RExcl.
SYMBOL_PAIRS: tuple[StatePair, ...] = ALL_PAIRS

BITS_PER_SYMBOL = 2

#: The multi-bit trojan needs the full worker complement: two readers on
#: each socket.  This equals the RSharedc-LSharedb placement of Table I.
_PLACEMENT_SCENARIO = Scenario(csc=SYMBOL_PAIRS[2], csb=SYMBOL_PAIRS[0])


@dataclass(frozen=True)
class SymbolParams:
    """Knobs of the 2-bit symbol protocol."""

    #: Slots the trojan holds each symbol's state pair.
    symbol_slots: int = 4
    #: Idle slots (no cached copy) delimiting symbols.
    gap_slots: int = 2
    #: Spy sampling slot duration and overhead (as in ProtocolParams).
    slot_cycles: float = 1_100.0
    spy_overhead_cycles: float = 430.0
    reload_divisor: float = 4.0
    worker_spin_cycles: float = 24.0
    #: Consecutive idle samples ending reception (must exceed gap_slots
    #: by a comfortable margin).
    end_run: int = 9
    max_poll_slots: int = 4_000

    def __post_init__(self) -> None:
        if self.end_run <= self.gap_slots + 2:
            raise ConfigError("end_run must clearly exceed gap_slots")

    @property
    def spy_wait_cycles(self) -> float:
        """Spy wait between flush and timed load."""
        return self.slot_cycles - self.spy_overhead_cycles

    @property
    def slots_per_symbol(self) -> float:
        """Total slots consumed per symbol including the gap."""
        return self.symbol_slots + self.gap_slots

    @property
    def nominal_rate_kbps(self) -> float:
        """Design bit rate (2 bits per symbol group)."""
        cycles_per_symbol = self.slots_per_symbol * self.slot_cycles
        return BITS_PER_SYMBOL * CLOCK_HZ / cycles_per_symbol / 1e3

    def at_rate(self, kbps: float) -> "SymbolParams":
        """Retune the slot duration for a target bit rate."""
        if kbps <= 0:
            raise ConfigError("rate must be positive")
        cycles_per_symbol = BITS_PER_SYMBOL * CLOCK_HZ / (kbps * 1e3)
        slot = cycles_per_symbol / self.slots_per_symbol
        overhead = min(self.spy_overhead_cycles, slot * 0.6)
        return replace(self, slot_cycles=slot, spy_overhead_cycles=overhead)

    def as_protocol_params(self) -> ProtocolParams:
        """Worker-compatible view (workers only read reload knobs)."""
        return ProtocolParams(
            slot_cycles=self.slot_cycles,
            spy_overhead_cycles=self.spy_overhead_cycles,
            reload_divisor=self.reload_divisor,
            worker_spin_cycles=self.worker_spin_cycles,
            end_run=self.end_run,
            max_poll_slots=self.max_poll_slots,
        )


def bits_to_symbols(bits: list[int]) -> list[int]:
    """Pack a bit list (MSB first per pair) into 2-bit symbol values."""
    if len(bits) % BITS_PER_SYMBOL:
        raise ConfigError("payload length must be a multiple of 2 bits")
    return [
        (bits[i] << 1) | bits[i + 1] for i in range(0, len(bits), 2)
    ]


def symbols_to_bits(symbols: list[int]) -> list[int]:
    """Unpack 2-bit symbol values back into bits."""
    out: list[int] = []
    for value in symbols:
        out.extend(((value >> 1) & 1, value & 1))
    return out


@dataclass
class SymbolDecodeReport:
    """Decoded symbols and their bits; the segment bounds are not kept."""

    symbols: list[int]
    bits: list[int]


class SymbolDecoder:
    """Classify spy samples into the 4-symbol alphabet and segment them."""

    def __init__(self, bands, params: SymbolParams):
        self._bands = bands
        self._params = params
        for i, first in enumerate(SYMBOL_PAIRS):
            for second in SYMBOL_PAIRS[i + 1:]:
                bands.check_separation(first, second)

    def label(self, latency: float) -> int | None:
        """Symbol value for a latency, or None for idle/unknown."""
        result = self._bands.classify(latency)
        if result is None or result == DRAM_LABEL:
            return None
        return SYMBOL_PAIRS.index(result)

    def decode(self, samples: list[Sample]) -> SymbolDecodeReport:
        """Segment samples at idle gaps; majority-vote each segment."""
        labels = [self.label(s.latency) for s in samples]
        # Repair isolated one-sample dropouts inside a segment.
        for i in range(1, len(labels) - 1):
            if labels[i] is None and labels[i - 1] == labels[i + 1] is not None:
                labels[i] = labels[i - 1]
        symbols: list[int] = []
        start = None
        for i, label in enumerate([*labels, None]):
            if label is not None and start is None:
                start = i
            elif label is None and start is not None:
                votes = Counter(
                    lab for lab in labels[start:i] if lab is not None
                )
                symbols.append(votes.most_common(1)[0][0])
                start = None
        return SymbolDecodeReport(
            symbols=symbols, bits=symbols_to_bits(symbols)
        )


def symbol_controller_program(
    control: TrojanControl,
    params: SymbolParams,
    block_va: int,
    symbols: list[int],
    lead_in_slots: int = 3,
):
    """Trojan controller: hold each symbol's pair, idle between symbols."""

    def program(cpu: Cpu):
        yield from cpu.delay(lead_in_slots * params.slot_cycles)
        for value in symbols:
            control.set_pair(SYMBOL_PAIRS[value])
            yield from cpu.flush(block_va)
            yield from cpu.delay(params.symbol_slots * params.slot_cycles)
            control.set_pair(None)
            yield from cpu.flush(block_va)
            yield from cpu.delay(params.gap_slots * params.slot_cycles)
        control.stop()
        yield from cpu.delay(2 * params.slot_cycles)

    return program


@dataclass
class SymbolSpyState:
    """Samples collected by the multi-bit spy."""

    samples: list[Sample] = field(default_factory=list)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def reception_cycles(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


def symbol_spy_program(
    state: SymbolSpyState,
    decoder: SymbolDecoder,
    params: SymbolParams,
    block_va: int,
):
    """Spy: sample every slot; start on first in-band load, stop on quiet."""

    pacing = {"next_slot": None}

    def sample_once(cpu: Cpu):
        now = yield from cpu.rdtsc()
        target = pacing["next_slot"]
        if target is None or target <= now:
            target = now
        else:
            yield from cpu.delay(target - now)
        pacing["next_slot"] = target + params.slot_cycles
        yield from cpu.flush(block_va)
        yield from cpu.delay(params.spy_wait_cycles)
        load = yield from cpu.timed_load(block_va)
        label = decoder.label(load.latency)
        return Sample(
            timestamp=load.timestamp,
            latency=load.latency,
            label="x" if label is None else str(label),
            path=load.path,
        )

    def program(cpu: Cpu):
        polls = 0
        while True:
            sample = yield from sample_once(cpu)
            if sample.label != "x":
                state.started_at = sample.timestamp
                state.samples.append(sample)
                break
            polls += 1
            if polls >= params.max_poll_slots:
                return
        quiet = 0
        while quiet < params.end_run:
            sample = yield from sample_once(cpu)
            state.samples.append(sample)
            quiet = quiet + 1 if sample.label == "x" else 0
            if len(state.samples) >= params.max_poll_slots:
                state.finished_at = sample.timestamp
                return
        del state.samples[-params.end_run:]
        state.finished_at = (
            state.samples[-1].timestamp if state.samples else None
        )

    return program


@dataclass
class SymbolTransmissionResult:
    """Outcome of one multi-bit transmission."""

    sent_bits: list[int]
    received_bits: list[int]
    sent_symbols: list[int]
    received_symbols: list[int]
    alignment: Alignment
    #: The spy's trace as columns (see TransmissionResult); symbol
    #: labels ("0".."3", "x") are single characters.
    samples: SampleTrace
    cycles: float
    nominal_rate_kbps: float
    #: :class:`~repro.obs.RunManifest` snapshot (see TransmissionResult).
    manifest: object = field(default=None, compare=False)

    @property
    def accuracy(self) -> float:
        """Raw-bit accuracy of the 2-bit-symbol channel."""
        return self.alignment.accuracy

    @property
    def achieved_rate_kbps(self) -> float:
        """Measured raw bit rate over the reception window."""
        return transmission_rate_kbps(len(self.sent_bits), self.cycles)


class MultiBitSession(SessionBase):
    """A 2-bit-per-symbol covert channel session (Section VIII-D)."""

    def __init__(
        self,
        symbol_params: SymbolParams | None = None,
        seed: int = 0,
        sharing: str = "ksm",
        noise_threads: int = 0,
        machine=None,
        calibration_samples: int = DEFAULT_CALIBRATION_SAMPLES,
    ):
        self.symbol_params = (
            symbol_params if symbol_params is not None else SymbolParams()
        )
        from repro.mem.hierarchy import MachineConfig

        config = SessionConfig(
            spec=resolve_spec(_PLACEMENT_SCENARIO),
            params=self.symbol_params.as_protocol_params(),
            seed=seed,
            sharing=sharing,
            noise_threads=noise_threads,
            machine=machine if machine is not None else MachineConfig(),
            calibration_samples=calibration_samples,
        )
        super().__init__(config)

    def _worker_demand(self) -> tuple[int, int]:
        return 2, 2  # two readers on each socket

    def transmit(self, bits: list[int]) -> SymbolTransmissionResult:
        """Send *bits* (even count) as 2-bit symbols; decode and score."""
        symbols = bits_to_symbols(list(bits))
        tag = self.next_tag()
        control = TrojanControl()
        decoder = SymbolDecoder(self.bands, self.symbol_params)
        state = SymbolSpyState()

        self.spawn_workers(worker_roles(_PLACEMENT_SCENARIO), control, tag)
        self.spawn_controller(
            symbol_controller_program(
                control, self.symbol_params, self.trojan_va, symbols
            ),
            tag,
        )
        self.kernel.spawn(
            self.spy_proc,
            f"spy-mb-{tag}",
            symbol_spy_program(state, decoder, self.symbol_params, self.spy_va),
            core_id=self.config.spy_core,
            daemon=False,
        )
        self.sim.run()

        report = decoder.decode(state.samples)
        alignment = align_bits(list(bits), report.bits)
        return SymbolTransmissionResult(
            manifest=RunManifest.capture(self),
            sent_bits=list(bits),
            received_bits=report.bits,
            sent_symbols=symbols,
            received_symbols=report.symbols,
            alignment=alignment,
            samples=SampleTrace(state.samples),
            cycles=state.reception_cycles,
            nominal_rate_kbps=self.symbol_params.nominal_rate_kbps,
        )
