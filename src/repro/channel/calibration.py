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
moves).  Two things make it cheap, both bit-identical to running every
round through the ``Machine`` API:

* Within a pair, every round opens with a clflush and its coherence
  outcome depends on neither the clock nor an RNG draw, so from the
  first round that starts where the previous one started (usually the
  second or third), the rounds repeat one state transition.
  :func:`_measure` runs rounds for real until then, and afterwards
  :func:`_replay` runs the recorded round's timing model alone, in one
  flat loop: the same interconnect registrations, queueing and jitter
  draws, and stats counters.  A machine something interposes on (a
  trace tap, an op wrapper, an obfuscation policy, a directory hook, a
  home-agent hop) runs every round for real; :func:`_per_op_reason`
  names why, and the bands' ``provenance`` records it.
* Calibration is a pure function of the machine configuration, the root
  seed, and the sampling parameters — every point of a Figure 8/9 grid
  that shares those re-derives the exact same bands.
  :func:`calibrate_memoized` exploits that with a process-local memo:
  the first point pays for calibration, later points restore the bands
  *and* the post-calibration RNG stream states, so their transmissions
  remain bit-identical to a cold run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.channel.config import ALL_PAIRS, LineState, Location, StatePair
from repro.errors import CalibrationError
from repro.mem.hierarchy import Machine
from repro.sim.events import AccessPath

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
    #: How the bands were measured: ``"memo"`` (restored by
    #: :func:`calibrate_memoized`), ``"replayed:<real rounds>"`` or
    #: ``"per-op:<reason>"`` (see :func:`calibrate`).
    provenance: str = field(default="", compare=False)

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


def _round_ops(
    pair: StatePair | None,
    spy_core: int,
    local_cores: tuple[int, int],
    remote_cores: tuple[int, int],
) -> tuple[tuple[str, int], ...]:
    """One round's ``(op, core)`` list: flush, placement, timed load.

    The placement drives the line into *pair*'s location and state;
    *pair* ``None`` (or a COLD pair) places nothing, which is the DRAM
    round.  OWNED dirties the line, then has a second core's read pull
    the owner into O (on MOESI; MESI-family machines write back and
    demote to S instead, which is exactly the divergence the O-state
    channel's calibration detects as an unusable band overlap).
    """
    place: tuple[tuple[str, int], ...] = ()
    if pair is not None and pair.state is not LineState.COLD:
        cores = local_cores if pair.location is Location.LOCAL else remote_cores
        if pair.state is LineState.OWNED:
            place = (("store", cores[0]), ("load", cores[1]))
        elif pair.state is LineState.SHARED:
            place = (("load", cores[0]), ("load", cores[1]))
        else:
            place = (("load", cores[0]),)
    return (("flush", spy_core), *place, ("load", spy_core))


def _run_op(
    machine: Machine, op: str, core: int, paddr: int, now: float
) -> tuple[float, AccessPath | None]:
    """Run one round op through the ``Machine`` API; returns (latency,
    service path), the path ``None`` for a flush."""
    if op == "load":
        _value, latency, path = machine.load(core, paddr, now)
        return latency, path
    if op == "store":
        return machine.store(core, paddr, 1, now)
    return machine.flush(core, paddr, now), None


def _round(step, last: int, now: float) -> tuple[float, float]:
    """Run one round of ``last + 1`` ops; returns (clock, timed latency).

    ``step(j, now)`` runs op *j* at *now* and returns its latency.
    The placement ops advance the clock as they go (the contention model
    must not see an impossible burst at a single instant).
    """
    now += step(0, now)
    elapsed = 0.0
    for j in range(1, last):
        elapsed += step(j, now + elapsed)
    now += elapsed
    latency = step(last, now)
    return now + latency, latency


def _per_op_reason(machine: Machine) -> str | None:
    """Why every round must go through the ``Machine`` API, or None.

    A replayed round calls no ``load``/``store``/``flush``, so anything
    that observes or perturbs those ops, their interconnect hops or the
    home directory's choices must see each round run for real.  So does
    a home-agent machine: a queued load there makes one registration
    (the home hop) that adds nothing to its contention, which a replay
    plan does not model.
    """
    ic = machine.interconnect
    if machine.obfuscation is not None:
        return "obfuscated"
    if (getattr(machine, "_trace_tap", None) is not None
            or machine._qpi_register != ic.qpi.register
            or machine._ring_register != [r.register for r in ic.rings]
            or machine._mem_register != [r.register for r in ic.mems]):
        return "traced"
    if any(op in machine.__dict__ for op in ("load", "store", "flush")):
        return "faulted"
    if machine._dir_trace is not None:
        return "dir-trace"
    if machine._home_agent:
        return "home-agent"
    return None


def _fields(record) -> tuple | None:
    return None if record is None else tuple(
        getattr(record, name) for name in record.__slots__)


def _round_state(machine: Machine, base: int) -> list:
    """Everything a round on line *base* reads, by value.

    Every cache set the line maps to, at every level of every core and
    socket, in LRU order; the line's snoop-directory and home-directory
    entries; and its DRAM value.  A round's ops read nothing else: a
    victim's own entry is touched only on an eviction, and a round that
    evicts ends in a different state than it began in.
    """
    state = [machine.dram.get(base), _fields(machine.home_directory.get(base))]
    state += [_fields(d.directory.get(base)) for d in machine.sockets]
    caches = [cache for core in machine.cores for cache in (core.l1, core.l2)]
    for cache in (*caches, *(d.data_array for d in machine.sockets)):
        bucket = cache._sets[cache.set_index(base)]
        state.append([_fields(line) for line in bucket.values()])
    return state


@contextmanager
def _logged_registers(machine: Machine, log: list):
    """Swap the bound interconnect registers for wrappers that append
    the register they wrap to *log*, as :class:`~repro.obs.MachineTap`
    swaps them for hop records."""
    def logged(register):
        def wrapped(now: float) -> float:
            log.append(register)
            return register(now)
        return wrapped

    bindings = (machine._ring_register, machine._qpi_register,
                machine._mem_register)
    machine._ring_register = [logged(r) for r in bindings[0]]
    machine._qpi_register = logged(bindings[1])
    machine._mem_register = [logged(r) for r in bindings[2]]
    try:
        yield
    finally:
        (machine._ring_register, machine._qpi_register,
         machine._mem_register) = bindings


def _measure(
    machine: Machine, ops: tuple[tuple[str, int], ...], paddr: int,
    samples: int,
) -> tuple[np.ndarray, int]:
    """Timed latencies of *samples* rounds of *ops*, and how many rounds
    went through the ``Machine`` API.

    Once a round starts in the state the round before it started in
    (:func:`_round_state`), every later round repeats that round's
    coherence transitions, so only its timing model runs
    (:func:`_replay`), and its stats-counter deltas are added once at
    the end.  Each real round records that plan — per op, whether it
    queues, :meth:`Machine.base_latency` and the registers it called —
    unless :func:`_per_op_reason` names a reason to run every round
    real.
    """
    out = np.empty(samples, dtype=float)
    last = len(ops) - 1
    base = paddr & ~63
    replayable = _per_op_reason(machine) is None
    stats = machine.stats
    log: list = []
    steps: list = []
    deltas: dict[str, int] = {}
    state = None

    def real_step(j: int, now: float) -> float:
        op, core = ops[j]
        log.clear()
        latency, path = _run_op(machine, op, core, paddr, now)
        if replayable:
            queued, base_latency = machine.base_latency(
                op, core, paddr, path, bool(log))
            steps.append((queued, base_latency, tuple(log)))
        return latency

    now = 0.0
    for i in range(samples):
        if not replayable:
            now, out[i] = _round(real_step, last, now)
            continue
        previous, state = state, _round_state(machine, base)
        if state == previous:
            # The last real round started where this one does.
            _replay(machine, tuple(steps), now, out, i)
            for name, delta in deltas.items():
                stats.counter_handle(name).value += delta * (samples - i)
            return out, i
        steps.clear()
        before = stats.counters()
        with _logged_registers(machine, log):
            now, out[i] = _round(real_step, last, now)
        deltas = {name: value - before.get(name, 0)
                  for name, value in stats.counters().items()}
    return out, samples


def _replay(
    machine: Machine, plan: tuple[tuple[bool, float, tuple], ...],
    now: float, out: np.ndarray, start: int,
) -> None:
    """Fill ``out[start:]`` with rounds of *plan* run by timing alone.

    Per op of the plan, ``(queued, base, registers)``: the same
    interconnect registrations at the same clock as :func:`_round`
    places them, then the queueing and jitter draws of
    :meth:`Machine._queueing` and :meth:`Machine._jitter` in the same
    order, on the same values.  One flat loop with the draws hoisted,
    as the worker driver's inline L1 hit does: a replayed pair runs a
    few hundred rounds, and the per-op calls cost about as much as the
    registrations they wrapped.
    """
    noise = machine._noise
    rng = machine._jitter_rng
    gamma, normal, uniform, exponential = (
        rng.gamma, rng.standard_normal, rng.random, rng.exponential)
    noisy, sigma = noise.enabled, noise.sigma
    tail_p, tail_s = noise.tail_probability, noise.tail_scale
    last = len(plan) - 1
    for i in range(start, len(out)):
        elapsed = 0.0
        for j, (queued, latency, registers) in enumerate(plan):
            if j == last:
                now += elapsed
                elapsed = 0.0
            t = now + elapsed
            contention = 0.0
            for register in registers:
                contention += register(t)
            if queued and contention > 0:
                latency += gamma(2.0, contention / 2.0)
            if noisy:
                latency = latency + sigma * normal()
                if uniform() < tail_p:
                    latency += exponential(tail_s)
            latency = latency if latency > 1.0 else 1.0
            if j == 0:
                now += latency
            elif j < last:
                elapsed += latency
            else:
                now += latency
                out[i] = latency


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
    ops = _round_ops(pair, spy_core, local_cores, remote_cores)
    return _measure(machine, ops, paddr, samples)[0]


def measure_dram(
    machine: Machine, paddr: int, samples: int, spy_core: int = 0
) -> np.ndarray:
    """Timed-load latencies with no cached copy anywhere."""
    return _measure(machine, _round_ops(None, spy_core, (), ()), paddr,
                    samples)[0]


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
    The DRAM band is measured last.  ``bands.provenance`` says how the
    rounds ran (:func:`_measure`): ``"replayed:<real rounds>"``, or
    ``"per-op:<reason>"`` when :func:`_per_op_reason` names one.
    """
    bands = LatencyBands()
    raw: dict[str, np.ndarray] = {}
    multi_socket = machine.config.n_sockets >= 2
    pairs = [
        pair for pair in dict.fromkeys((*ALL_PAIRS, *extra_pairs))
        if multi_socket or pair.location is not Location.REMOTE
    ]
    if include_dram:
        pairs.append(None)
    remote_cores = _default_remote_cores(machine)
    reason = _per_op_reason(machine)
    real = 0
    for pair in pairs:
        machine.interconnect.reset()
        ops = _round_ops(pair, spy_core, (1, 2), remote_cores)
        data, rounds = _measure(machine, ops, paddr, samples)
        real += rounds
        lo = float(np.percentile(data, percentiles[0])) - pad
        if pair is None:
            raw[DRAM_LABEL] = data
            hi = float(np.percentile(data, percentiles[1])) + pad * 8
            bands.dram = Band(label=DRAM_LABEL, lo=lo, hi=hi)
        else:
            raw[pair.notation] = data
            hi = float(np.percentile(data, percentiles[1])) + pad
            bands.bands[pair] = Band(label=pair.notation, lo=lo, hi=hi)
    _stretch_upward(bands)
    bands.provenance = f"per-op:{reason}" if reason else f"replayed:{real}"
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
    return LatencyBands(bands=dict(bands.bands), dram=bands.dram,
                        provenance="memo")


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
