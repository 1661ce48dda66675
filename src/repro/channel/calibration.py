"""Latency-band calibration (Section V / Figure 2).

Before transmitting, the trojan and spy learn the latency bands Tc/Tb by
self-measurement: place the shared block in each (location, state)
combination and time loads.  :func:`calibrate` mirrors the paper's
micro-benchmark loop; the paper times :data:`PAPER_CALIBRATION_SAMPLES`
(1,000) loads per combination, while sessions default to
:data:`DEFAULT_CALIBRATION_SAMPLES` (400) — on the simulated machine the
band percentiles converge well before 400 samples, and the smaller count
keeps grid sweeps tractable (see the note on the constants below).
:func:`calibrate` returns :class:`LatencyBands`, the classifier the
spy-side decoder uses.

Calibration is the dominant *fixed* cost of an experiment point (about
2,000 simulated flush/place/load rounds before the first payload bit
moves), and it is a pure function of the machine configuration, the root
seed, and the sampling parameters — every point of a Figure 8/9 grid
that shares those re-derives the exact same bands.
:func:`calibrate_memoized` exploits that with a process-local memo: the
first point pays for calibration, later points restore the bands *and*
the post-calibration RNG stream states, so their transmissions remain
bit-identical to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.config import ALL_PAIRS, LineState, Location, StatePair
from repro.errors import CalibrationError
from repro.mem.hierarchy import Machine

#: Timed loads per (location, state) combination in the paper's Figure 2
#: micro-benchmark (Section V).
PAPER_CALIBRATION_SAMPLES = 1000

#: Default timed loads per combination for simulated sessions.  The
#: substitution is deliberate: the simulator's latency distributions are
#: stationary, so the 2nd/98th percentile band edges are stable to well
#: under a cycle by 400 samples, and a grid point spends ~2.5x less time
#: calibrating.  Pass ``calibration_samples=PAPER_CALIBRATION_SAMPLES``
#: to reproduce the paper's exact measurement count.
DEFAULT_CALIBRATION_SAMPLES = 400

#: Extra padding (cycles) added around the measured percentile range.
BAND_PAD = 5.0

#: Label used for the no-cached-copy band.
DRAM_LABEL = "dram"


@dataclass(frozen=True)
class Band:
    """A closed latency interval believed to identify one service path."""

    label: str
    lo: float
    hi: float

    def contains(self, latency: float) -> bool:
        """Whether *latency* falls inside the band."""
        return self.lo <= latency <= self.hi

    @property
    def center(self) -> float:
        """Band midpoint."""
        return (self.lo + self.hi) / 2.0

    def __str__(self) -> str:
        return f"{self.label}[{self.lo:.0f},{self.hi:.0f}]"


@dataclass
class LatencyBands:
    """The calibrated band set: one per (location, state) pair plus DRAM."""

    bands: dict[StatePair, Band] = field(default_factory=dict)
    dram: Band | None = None

    def band_for(self, pair: StatePair) -> Band:
        """The band calibrated for *pair* (KeyError if not calibrated).

        A COLD pair has no placement of its own — an evicted block
        reloads from memory — so the DRAM band is its signature.
        """
        if pair.state is LineState.COLD:
            if self.dram is None:
                raise KeyError(pair)
            return self.dram
        return self.bands[pair]

    def classify(self, latency: float) -> StatePair | str | None:
        """Map a latency to its state pair, ``"dram"``, or None.

        Bands are checked narrowest-first so overlap resolves to the
        tighter (more specific) band.
        """
        candidates: list[tuple[float, StatePair | str]] = []
        for pair, band in self.bands.items():
            if band.contains(latency):
                candidates.append((band.hi - band.lo, pair))
        if self.dram is not None and self.dram.contains(latency):
            candidates.append((self.dram.hi - self.dram.lo, DRAM_LABEL))
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[0])
        return candidates[0][1]

    def check_separation(self, first: StatePair, second: StatePair) -> None:
        """Raise CalibrationError if two bands overlap (unusable pair)."""
        a = self.band_for(first)
        b = self.band_for(second)
        if a.lo <= b.hi and b.lo <= a.hi:
            raise CalibrationError(
                f"bands overlap: {a} vs {b}; cannot build a channel on them"
            )


def _place_pair(
    machine: Machine,
    pair: StatePair,
    paddr: int,
    now: float,
    local_cores: tuple[int, int],
    remote_cores: tuple[int, int],
) -> float:
    """Drive the machine so the line sits in *pair*'s location and state.

    Returns the cycles the placement loads took (the measurement clock
    must advance realistically or the contention model sees an
    impossible burst at a single instant).
    """
    cores = local_cores if pair.location is Location.LOCAL else remote_cores
    if pair.state is LineState.COLD:
        # COLD is the absence of placement: leave the line flushed.
        return 0.0
    if pair.state is LineState.OWNED:
        # Dirty the line, then have a second core's read pull the owner
        # into O (on MOESI; MESI-family machines write back and demote
        # to S instead, which is exactly the divergence the O-state
        # channel's calibration detects as an unusable band overlap).
        store_latency, _p = machine.store(cores[0], paddr, 1, now)
        elapsed = store_latency
        _v, latency, _p = machine.load(cores[1], paddr, now + elapsed)
        return elapsed + latency
    _v, latency, _p = machine.load(cores[0], paddr, now)
    elapsed = latency
    if pair.state is LineState.SHARED:
        _v, latency, _p = machine.load(cores[1], paddr, now + elapsed)
        elapsed += latency
    return elapsed


def measure_pair(
    machine: Machine,
    pair: StatePair,
    paddr: int,
    samples: int,
    spy_core: int = 0,
    local_cores: tuple[int, int] = (1, 2),
    remote_cores: tuple[int, int] | None = None,
) -> np.ndarray:
    """Timed-load latencies for one (location, state) pair.

    Each sample is a full flush / place-state / timed-load round, exactly
    the measurement loop of Section V.
    """
    if remote_cores is None:
        remote_cores = _default_remote_cores(machine)
    out = np.empty(samples, dtype=float)
    now = 0.0
    for i in range(samples):
        now += machine.flush(spy_core, paddr, now)
        now += _place_pair(machine, pair, paddr, now, local_cores, remote_cores)
        _value, latency, _path = machine.load(spy_core, paddr, now)
        now += latency
        out[i] = latency
    return out


def measure_dram(
    machine: Machine, paddr: int, samples: int, spy_core: int = 0
) -> np.ndarray:
    """Timed-load latencies with no cached copy anywhere."""
    out = np.empty(samples, dtype=float)
    now = 0.0
    for i in range(samples):
        now += machine.flush(spy_core, paddr, now)
        _value, latency, _path = machine.load(spy_core, paddr, now)
        now += latency
        out[i] = latency
    return out


def _default_remote_cores(machine: Machine) -> tuple[int, int]:
    cfg = machine.config
    if cfg.n_sockets < 2:
        # Single-socket machine: remote pairs are not measurable; callers
        # should restrict themselves to local pairs.
        return (1, 2)
    base = cfg.cores_per_socket
    return (base, base + 1)


#: How far a band's upper edge is stretched toward the next band.
#: Queuing delay only ever *adds* latency, so a sample pushed slightly
#: past its quiet-machine band must still belong to it; the paper's own
#: calibration runs under a representative ambient workload and gets
#: this headroom for free.
BAND_STRETCH = 14.0


def _stretch_upward(bands: LatencyBands, stretch: float = BAND_STRETCH) -> None:
    ordered = sorted(bands.bands.items(), key=lambda kv: kv[1].lo)
    for i, (pair, band) in enumerate(ordered):
        hi = band.hi + stretch
        if i + 1 < len(ordered):
            hi = min(hi, ordered[i + 1][1].lo - 2.0)
        hi = max(hi, band.hi)
        bands.bands[pair] = Band(label=band.label, lo=band.lo, hi=hi)


def calibrate(
    machine: Machine,
    paddr: int = 0x40_0000,
    samples: int = PAPER_CALIBRATION_SAMPLES,
    spy_core: int = 0,
    percentiles: tuple[float, float] = (2.0, 98.0),
    pad: float = BAND_PAD,
    include_dram: bool = True,
    extra_pairs: tuple[StatePair, ...] = (),
) -> tuple[LatencyBands, dict[str, np.ndarray]]:
    """Calibrate every measurable band; returns (bands, raw samples).

    The raw sample arrays (keyed by pair notation and ``"dram"``) are what
    Figure 2's CDFs are drawn from.

    *extra_pairs* are non-standard pairs (O-state, MRU) a scenario needs
    beyond :data:`ALL_PAIRS`.  They are measured strictly *after* the
    four standard pairs: the RNG draw order of a session with no extras
    must stay bit-identical to the pre-extras code (golden digests).
    """
    bands = LatencyBands()
    raw: dict[str, np.ndarray] = {}
    multi_socket = machine.config.n_sockets >= 2
    for pair in ALL_PAIRS:
        if pair.location is Location.REMOTE and not multi_socket:
            continue
        machine.interconnect.reset()
        data = measure_pair(machine, pair, paddr, samples, spy_core)
        raw[pair.notation] = data
        lo = float(np.percentile(data, percentiles[0])) - pad
        hi = float(np.percentile(data, percentiles[1])) + pad
        bands.bands[pair] = Band(label=pair.notation, lo=lo, hi=hi)
    for pair in extra_pairs:
        if pair in bands.bands:
            continue
        if pair.location is Location.REMOTE and not multi_socket:
            continue
        machine.interconnect.reset()
        data = measure_pair(machine, pair, paddr, samples, spy_core)
        raw[pair.notation] = data
        lo = float(np.percentile(data, percentiles[0])) - pad
        hi = float(np.percentile(data, percentiles[1])) + pad
        bands.bands[pair] = Band(label=pair.notation, lo=lo, hi=hi)
    _stretch_upward(bands)
    if include_dram:
        machine.interconnect.reset()
        data = measure_dram(machine, paddr, samples, spy_core)
        raw[DRAM_LABEL] = data
        lo = float(np.percentile(data, percentiles[0])) - pad
        hi = float(np.percentile(data, percentiles[1])) + pad * 8
        bands.dram = Band(label=DRAM_LABEL, lo=lo, hi=hi)
    machine.flush(spy_core, paddr)
    machine.interconnect.reset()
    return bands, raw


# ----------------------------------------------------------------------
# process-local calibration memo
# ----------------------------------------------------------------------

#: memo key -> (bands, post-calibration RNG snapshot).  Process-local by
#: construction: pool workers each grow their own copy, and forked
#: children inherit a bit-identical one.
_MEMO: dict[tuple, tuple[LatencyBands, dict[str, dict]]] = {}


def clear_calibration_memo() -> int:
    """Drop every memoized calibration; returns how many were held."""
    count = len(_MEMO)
    _MEMO.clear()
    return count


def _clone_bands(bands: LatencyBands) -> LatencyBands:
    """An independent copy (Band records are frozen, the dict is not)."""
    return LatencyBands(bands=dict(bands.bands), dram=bands.dram)


def calibrate_memoized(
    machine: Machine,
    key: tuple,
    paddr: int,
    samples: int,
    spy_core: int,
    extra_pairs: tuple[StatePair, ...] = (),
) -> LatencyBands:
    """Calibrate *machine*, reusing a memoized pass when *key* matches.

    *key* must capture everything that determines both the calibration
    measurements and the machine's RNG state at the moment of the call —
    in practice (machine-config fingerprint, root seed, sharing mode,
    samples, spy core, physical address); sessions build it via
    :meth:`repro.channel.session.SessionBase._calibration_key`.

    On a miss the real :func:`calibrate` runs and the resulting bands are
    stored together with a snapshot of every RNG stream.  On a hit the
    stored stream states are restored onto the machine's registry — the
    generators end up exactly where running calibration would have left
    them — so everything the session simulates afterwards is
    bit-identical to a cold calibration (locked by the golden-determinism
    digests).  Sessions whose calibration is *perturbed* (an installed
    obfuscation policy, fault plans that touch the calibration window)
    must bypass the memo entirely: a perturbed pass would poison the memo
    for clean sessions and vice versa.
    """
    hit = _MEMO.get(key)
    if hit is not None:
        bands, states = hit
        machine.rng.restore(states)
        return _clone_bands(bands)
    bands, _raw = calibrate(
        machine, paddr=paddr, samples=samples, spy_core=spy_core,
        extra_pairs=extra_pairs,
    )
    _MEMO[key] = (_clone_bands(bands), machine.rng.snapshot())
    return bands
