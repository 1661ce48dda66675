"""Latency model: per-path base latencies plus stochastic jitter.

The base numbers are calibrated to Section V of the paper (Intel Xeon
X5650, 2.67 GHz): a local S-state block is served by the inclusive LLC in
about 98 cycles, a local E-state block requires an owner-forward and takes
about 124 cycles, and the remote-socket variants add QPI hops.  Figure 2
shows the four bands are narrow and well separated; the jitter model
reproduces that (small Gaussian core, rare heavy-tail outliers from OS
interference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.events import AccessPath
from repro.sim.rng import RngStream

#: Clock frequency of the modeled Xeon X5650, used to convert cycles to
#: seconds when reporting bandwidths the way the paper does.
CLOCK_HZ = 2.67e9


@dataclass(frozen=True)
class LatencyProfile:
    """Base (noise-free) latency in cycles for every service path.

    The defaults reproduce the latency bands of Figure 2 / Section V.
    """

    l1_hit: float = 4.0
    l2_hit: float = 12.0
    local_shared: float = 98.0      # LLC hit (S state / clean, popcount != 1)
    local_excl: float = 124.0       # LLC -> local owner forward (E/M state)
    remote_shared: float = 170.0    # remote socket LLC hit over QPI
    remote_excl: float = 232.0      # remote LLC -> remote owner forward
    dram: float = 320.0             # no cached copy anywhere
    flush: float = 44.0             # clflush issue cost
    flush_writeback: float = 36.0   # extra when a dirty copy must be written
    store_upgrade: float = 30.0     # extra cycles for RFO/invalidation
    fence: float = 6.0              # serializing instruction cost

    def __post_init__(self) -> None:
        ordered = (
            self.l1_hit, self.l2_hit, self.local_shared, self.local_excl,
            self.remote_shared, self.remote_excl, self.dram,
        )
        if any(lat <= 0 for lat in ordered):
            raise ConfigError("all latencies must be positive")
        if list(ordered) != sorted(ordered):
            raise ConfigError(
                "latency profile must be ordered "
                "l1 < l2 < local_shared < local_excl < remote_shared "
                "< remote_excl < dram"
            )
        # The profile is frozen after validation, so the per-path table
        # can be built once here instead of per for_path() call (which
        # sits on the machine's per-load hot path).
        object.__setattr__(self, "_table", {
            AccessPath.L1_HIT: self.l1_hit,
            AccessPath.L2_HIT: self.l2_hit,
            AccessPath.LOCAL_SHARED: self.local_shared,
            AccessPath.LOCAL_EXCL: self.local_excl,
            AccessPath.REMOTE_SHARED: self.remote_shared,
            AccessPath.REMOTE_EXCL: self.remote_excl,
            AccessPath.DRAM: self.dram,
        })

    def for_path(self, path: AccessPath) -> float:
        """Base latency of a load serviced by *path*."""
        try:
            return self._table[path]
        except KeyError:
            raise ConfigError(f"path {path} has no base latency") from None


@dataclass
class NoiseModel:
    """Stochastic jitter added to every memory operation.

    ``sigma`` is the standard deviation of the Gaussian core of each band;
    ``tail_probability``/``tail_scale`` model rare long delays (SMIs,
    interrupts) visible as the slow tails in Figure 2's CDFs.
    """

    sigma: float = 2.5
    tail_probability: float = 0.004
    tail_scale: float = 60.0
    enabled: bool = True

    def sample(self, base: float, rng: RngStream) -> float:
        """Return *base* perturbed by jitter (never below 1 cycle): the
        draw sequence of :meth:`RngStream.jitter`."""
        if not self.enabled:
            return base if base > 1.0 else 1.0
        return rng.jitter(base, self.sigma, self.tail_probability,
                          self.tail_scale)


@dataclass
class ObfuscationPolicy:
    """Optional timing-obfuscation mitigation (Section VIII-E).

    When attached to a machine's latency stage, loads by cores in
    ``suspicious_cores`` have their latency replaced by a draw that makes
    local/remote and E/S bands indistinguishable: a uniform draw over the
    full [lo, hi] coherence-band range.
    """

    suspicious_cores: set[int] = field(default_factory=set)
    lo: float = 90.0
    hi: float = 250.0

    def applies_to(self, core_id: int) -> bool:
        """Whether this core's timing is being obfuscated."""
        return core_id in self.suspicious_cores

    def obfuscate(self, rng: RngStream) -> float:
        """Draw an obfuscated latency."""
        return float(rng.uniform(self.lo, self.hi))


def cycles_to_seconds(cycles: float) -> float:
    """Convert simulated cycles to seconds at the modeled clock rate."""
    return cycles / CLOCK_HZ


def kbps(bits: float, cycles: float) -> float:
    """Bandwidth in Kbits/s for *bits* transferred over *cycles* cycles."""
    seconds = cycles_to_seconds(cycles)
    if seconds <= 0:
        return 0.0
    return bits / seconds / 1e3
