"""The machine model: sockets, cores, caches and the access API.

:class:`Machine` wires the per-socket coherence domains together and
implements the three operations thread programs use — ``load``, ``store``
and ``flush`` — returning both the access latency (base path latency +
interconnect contention + jitter) and the service path, which maps
one-to-one onto the paper's latency bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import (
    CoherenceState,
    LlcLine,
    PrivateLine,
    bit_ids,
    line_addr,
)
from repro.mem.coherence import Core, SocketDomain
from repro.mem.directory import DirectoryEntry, DirectoryState
from repro.mem.interconnect import Interconnect
from repro.mem.latency import LatencyProfile, NoiseModel, ObfuscationPolicy
from repro.mem.protocols import make_policy
from repro.sim.events import AccessPath
from repro.sim.rng import RngStreams
from repro.sim.stats import StatsRegistry

_MODIFIED = CoherenceState.MODIFIED
_OWNED = CoherenceState.OWNED
_SHARED = CoherenceState.SHARED
_EXCLUSIVE = CoherenceState.EXCLUSIVE


@dataclass(frozen=True)
class MachineConfig:
    """Geometry and behaviour of the simulated machine.

    Defaults model the paper's dual-socket Xeon X5650 (2 sockets x 6
    cores, 32 KB L1, 256 KB L2, shared inclusive LLC).  The LLC is scaled
    down from 12 MB to 2 MB per socket to keep simulations tractable;
    only capacity-eviction *rates* under noise depend on this, and the
    noise workload working-set is scaled with it (see DESIGN.md).
    """

    n_sockets: int = 2
    cores_per_socket: int = 6
    l1_sets: int = 64
    l1_assoc: int = 8
    l2_sets: int = 512
    l2_assoc: int = 8
    llc_sets: int = 2048
    llc_assoc: int = 16
    protocol: str = "mesi"
    #: Coherence backend: "snoop" (per-socket LLC directories resolved by
    #: walking sockets, the default) or "directory" (a global home-node
    #: directory of :class:`repro.mem.directory.DirectoryEntry` records —
    #: every LLC miss consults the address's home socket first, changing
    #: which service paths exist and therefore the latency-band shape).
    coherence: str = "snoop"
    inclusive: bool = True
    #: Section VIII-E mitigation: LLC is notified of E->M transitions and
    #: can answer E-state read misses directly, merging the E and S bands.
    llc_direct_e_response: bool = False
    #: Section VIII-E discussion: on home-agent directory systems, an
    #: LLC miss first consults the address's *home* socket directory, so
    #: service latency additionally depends on whether the requester is
    #: the home node — creating extra latency profiles an adversary can
    #: exploit.  Homes are page-interleaved across sockets.
    home_agent: bool = False
    home_hop_cycles: float = 34.0
    latency: LatencyProfile = field(default_factory=LatencyProfile)
    noise: NoiseModel = field(default_factory=NoiseModel)
    #: Interconnect contention: window width, per-window no-delay
    #: capacities and the added delay per excess access.
    contention_window: float = 2_000.0
    ring_capacity: float = 50.0
    qpi_capacity: float = 35.0
    mem_capacity: float = 38.0
    delay_per_excess: float = 3.5

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ConfigError("need at least one socket")
        if self.cores_per_socket < 1:
            raise ConfigError("need at least one core per socket")
        if self.coherence not in ("snoop", "directory"):
            raise ConfigError(
                f"unknown coherence backend {self.coherence!r}; "
                "expected 'snoop' or 'directory'"
            )
        if self.coherence == "directory" and self.home_agent:
            raise ConfigError(
                "home_agent is a snoop-mode refinement; the directory "
                "backend already routes every miss through the home node"
            )

    @property
    def n_cores(self) -> int:
        """Total core count across sockets."""
        return self.n_sockets * self.cores_per_socket

    def with_updates(self, **changes) -> "MachineConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def fingerprint(self) -> str:
        """Canonical JSON identity of this config (nested profiles too).

        Two configs with equal fingerprints build behaviorally identical
        machines; the warm-worker pool and the calibration memo key on
        this.
        """
        import json
        from dataclasses import asdict

        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"), default=str)


class Machine:
    """A coherent multi-socket, multi-core machine.

    Parameters
    ----------
    config:
        Machine geometry and behaviour flags.
    rng:
        Deterministic RNG registry (jitter draws come from the
        ``"machine.jitter"`` stream).
    stats:
        Optional shared statistics registry.
    """

    def __init__(
        self,
        config: MachineConfig | None = None,
        rng: RngStreams | None = None,
        stats: StatsRegistry | None = None,
    ):
        self.config = config if config is not None else MachineConfig()
        self.rng = rng if rng is not None else RngStreams(0)
        self.stats = stats if stats is not None else StatsRegistry()
        self.dram: dict[int, int] = {}
        self.obfuscation: ObfuscationPolicy | None = None
        self._jitter_rng = self.rng.get("machine.jitter")
        # -- bound hot-path state ---------------------------------------
        # Each service path reads one bound (path, base latency, stats
        # counter) tuple: no enum hashing or string formatting per access.
        # The four coherence bands are indexed [excl] within a location;
        # on Section VIII-E mitigated hardware the LLC answers E-state
        # reads itself, collapsing each E band onto its S band.
        profile = self.config.latency
        mitigated = self.config.llc_direct_e_response
        counters = {
            path: self.stats.counter_handle(f"machine.load.{path.value}")
            for path in AccessPath
            if path is not AccessPath.UNCACHED
        }

        def info(path: AccessPath, latency: float | None = None) -> tuple:
            base = profile.for_path(path) if latency is None else latency
            return path, base, counters[path]

        self._l1_hit = info(AccessPath.L1_HIT)
        self._l2_hit = info(AccessPath.L2_HIT)
        self._dram_fill = info(AccessPath.DRAM)
        self._local_bands = (
            info(AccessPath.LOCAL_SHARED),
            info(AccessPath.LOCAL_EXCL,
                 profile.local_shared if mitigated else None),
        )
        self._remote_bands = (
            info(AccessPath.REMOTE_SHARED),
            info(AccessPath.REMOTE_EXCL,
                 profile.remote_shared if mitigated else None),
        )
        # A store's latency is its data source's unmitigated base latency
        # plus the upgrade cost: (path, latency) per source, same layout.
        upgrade = profile.store_upgrade

        def rfo(path: AccessPath) -> tuple[AccessPath, float]:
            return path, profile.for_path(path) + upgrade

        self._rfo_dram = rfo(AccessPath.DRAM)
        self._rfo_local = (rfo(AccessPath.LOCAL_SHARED),
                           rfo(AccessPath.LOCAL_EXCL))
        self._rfo_remote = (rfo(AccessPath.REMOTE_SHARED),
                            rfo(AccessPath.REMOTE_EXCL))
        self._store_hit_latency = profile.l1_hit
        self._flush_latency = profile.flush
        self._flush_writeback = profile.flush_writeback
        self._home_agent = (
            self.config.home_agent and self.config.n_sockets >= 2
        )
        self._store_hit_counter = self.stats.counter_handle("machine.store.hit_m")
        self._store_rfo_counter = self.stats.counter_handle("machine.store.rfo")
        self._flush_counter = self.stats.counter_handle("machine.flush")
        self._noise = self.config.noise
        self.interconnect = Interconnect(
            self.config.n_sockets,
            window=self.config.contention_window,
            ring_capacity=self.config.ring_capacity,
            qpi_capacity=self.config.qpi_capacity,
            mem_capacity=self.config.mem_capacity,
            delay_per_excess=self.config.delay_per_excess,
        )
        policy = make_policy(self.config.protocol)
        self.policy = policy
        # -- directory (home-node) backend state ------------------------
        # One global directory keyed by line address; each entry's home
        # socket is derived from the address (page-interleaved).  In
        # snoop mode the dict stays empty and the flag short-circuits.
        self._dir_mode = self.config.coherence == "directory"
        self.home_directory: dict[int, DirectoryEntry] = {}
        self._dir_trace = None
        if self._dir_mode:
            self._dir_owner_fwd_counter = self.stats.counter_handle(
                "machine.dir.owner_forward")
            self._dir_home_counter = self.stats.counter_handle(
                "machine.dir.home_service")
            self._dir_fill_counter = self.stats.counter_handle(
                "machine.dir.memory_fill")
        self.cores: list[Core] = []
        self.sockets: list[SocketDomain] = []
        cfg = self.config
        for sid in range(cfg.n_sockets):
            socket_cores = []
            for c in range(cfg.cores_per_socket):
                core_id = sid * cfg.cores_per_socket + c
                core = Core(
                    core_id=core_id,
                    socket_id=sid,
                    l1=SetAssocCache(f"l1.{core_id}", cfg.l1_sets, cfg.l1_assoc),
                    l2=SetAssocCache(f"l2.{core_id}", cfg.l2_sets, cfg.l2_assoc),
                )
                socket_cores.append(core)
                self.cores.append(core)
            domain = SocketDomain(
                socket_id=sid,
                cores=socket_cores,
                data_array=SetAssocCache(f"llc.{sid}", cfg.llc_sets, cfg.llc_assoc),
                policy=policy,
                dram=self.dram,
                inclusive=cfg.inclusive,
            )
            self.sockets.append(domain)
        # Per-core direct indexes for the access hot paths (socket_of
        # keeps its range validation for external callers; internal
        # calls always carry a valid pinned core id).  Interconnect
        # resources are stable for the machine's lifetime (reset()
        # mutates in place), so their register methods can be bound.
        self._socket_by_core = [
            self.sockets[cid // cfg.cores_per_socket] for cid in range(cfg.n_cores)
        ]
        # Per socket, the other sockets' directories: the SWMR probe of a
        # local grant walks these.
        self._other_directories = [
            [other.directory for other in self.sockets if other is not domain]
            for domain in self.sockets
        ]
        ic = self.interconnect
        self._ring_register = [r.register for r in ic.rings]
        self._qpi_register = ic.qpi.register
        self._mem_register = [r.register for r in ic.mems]

    def reset(self, rng: RngStreams | None = None) -> None:
        """Restore pristine post-construction state, keeping the topology.

        The warm-worker path reuses one constructed machine across grid
        points whose structural parameters match.  Since cache sets are
        allocated on first fill (:mod:`repro.mem.cache`), building the
        object graph costs about what wiping it does (0.14 vs 0.12 ms on
        the default machine).  After ``reset`` the machine must be
        observationally identical to ``Machine(self.config, rng)`` — the
        golden determinism digests and the warm-vs-fresh equality tests
        hold it to that.  Resets, in order:

        * any instance-level interposition on ``load``/``store``/``flush``
          (a trace tap, or a wrapper installed on top of one) is
          unwrapped;
        * every private cache and LLC data array points each set back at
          the shared empty bucket, and every directory is emptied;
        * DRAM contents are dropped (cleared in place — sockets hold a
          reference to the same dict);
        * the interconnect windows and the stats registry are cleared in
          place, so bound handles stay valid;
        * the RNG registry is replaced by *rng* (fresh streams for the
          next point's seed) and the jitter stream is re-bound.
        """
        tap = getattr(self, "_trace_tap", None)
        if tap is not None:
            # A trace tap also swapped the interconnect register
            # bindings; its detach restores them before the generic
            # unwrap below clears any remaining op interposition.
            tap.detach()
        for name in ("load", "store", "flush"):
            self.__dict__.pop(name, None)
        for core in self.cores:
            core.l1.clear()
            core.l2.clear()
        for domain in self.sockets:
            domain.data_array.clear()
            domain.directory.clear()
        self.home_directory.clear()
        self._dir_trace = None
        self.dram.clear()
        self.obfuscation = None
        self.interconnect.reset()
        self.stats.reset()
        if rng is not None:
            self.rng = rng
        self._jitter_rng = self.rng.get("machine.jitter")

    # ------------------------------------------------------------------
    # checkpoint support (see repro.checkpoint)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Every piece of mutable machine state, as plain containers.

        The returned dict references the *live* line records (pickling
        the checkpoint immediately serializes their current state, and a
        single pickle graph preserves the identity sharing between L1/L2
        — inclusive by object sharing — and between each socket's
        directory dict and LLC data array).  Cache sets are captured as
        (addr, line) pair lists in insertion order, which *is* the LRU
        order.  An interconnect resource is its retained events in
        insertion order and its traffic total: the sorted index is
        rebuilt from them on restore (its evicted head is garbage
        awaiting compaction), so contention delays resume bit-identically
        and two machines with equal windows snapshot equal.

        Only valid on an uninstrumented machine: obfuscation policies and
        trace taps interpose unpicklable closures, so sessions running
        either fall back to unsegmented execution.
        """
        if self.obfuscation is not None:
            raise ConfigError(
                "cannot snapshot a machine with an obfuscation policy "
                "installed (live policy state is not checkpointable)"
            )
        cores = [
            (
                [list(bucket.items()) for bucket in core.l1._sets],
                [list(bucket.items()) for bucket in core.l2._sets],
            )
            for core in self.cores
        ]
        sockets = [
            (
                [list(bucket.items()) for bucket in d.data_array._sets],
                dict(d.directory),
            )
            for d in self.sockets
        ]
        ic = self.interconnect
        resources = {}
        for res in (*ic.rings, ic.qpi, *ic.mems):
            resources[res.name] = (list(res._events), res.total_traffic)
        return {
            "dram": dict(self.dram),
            "cores": cores,
            "sockets": sockets,
            "home_directory": dict(self.home_directory),
            "resources": resources,
            "counters": self.stats.counters(),
            "histograms": {
                name: list(h.samples)
                for name, h in self.stats._histograms.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite all mutable state with a :meth:`snapshot_state`.

        Everything is restored *in place* (the containers themselves
        survive, like :meth:`reset`; a cache set gets a fresh bucket, or
        the shared empty one), so bound counter handles, the
        sockets' shared reference to ``dram`` and the bound interconnect
        register methods all stay valid.  RNG streams are restored
        separately through :class:`~repro.sim.rng.RngStreams` — the
        jitter binding keeps pointing at the same generator object.
        """
        self.dram.clear()
        self.dram.update(state["dram"])
        for core, (l1_sets, l2_sets) in zip(self.cores, state["cores"]):
            core.l1.restore(l1_sets)
            core.l2.restore(l2_sets)
        for domain, (llc_sets, directory) in zip(self.sockets, state["sockets"]):
            domain.data_array.restore(llc_sets)
            domain.directory.clear()
            domain.directory.update(directory)
        self.home_directory.clear()
        self.home_directory.update(state["home_directory"])
        ic = self.interconnect
        for res in (*ic.rings, ic.qpi, *ic.mems):
            events, total = state["resources"][res.name]
            res._events.clear()
            res._events.extend(events)
            res._times = sorted(events)
            res._tpos = 0
            res.total_traffic = total
        self.stats.reset()
        for name, value in state["counters"].items():
            self.stats.counter_handle(name).value = value
        for name, samples in state["histograms"].items():
            hist = self.stats.histogram(name)
            hist.samples.extend(samples)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------

    def socket_of(self, core_id: int) -> SocketDomain:
        """The socket domain that owns *core_id*."""
        if core_id < 0 or core_id >= self.config.n_cores:
            raise ConfigError(f"core {core_id} out of range")
        return self.sockets[core_id // self.config.cores_per_socket]

    def core(self, core_id: int) -> Core:
        """The core object for a global core id."""
        return self.cores[core_id]

    # ------------------------------------------------------------------
    # access API
    # ------------------------------------------------------------------

    def load(
        self, core_id: int, paddr: int, now: float = 0.0
    ) -> tuple[int, float, AccessPath]:
        """Service a load; returns (value, latency_cycles, path)."""
        base = paddr & ~63
        core = self.cores[core_id]
        line = core.l1.lookup(base)
        if line is not None:
            path, base_lat, counter = self._l1_hit
            counter.value += 1
            return line.value, self._jitter(base_lat), path
        home = self._socket_by_core[core_id]
        line = home.l2_lookup(core, base)
        if line is not None:
            path, base_lat, counter = self._l2_hit
            counter.value += 1
            return line.value, self._jitter(base_lat), path
        if self._dir_mode:
            return self._directory_load(core_id, core, home, base, now)

        home_sid = home.socket_id
        ring_register = self._ring_register[home_sid]
        contention = ring_register(now)
        home_hop = (
            self._home_agent_hop(home_sid, base, now)
            if self._home_agent else 0.0
        )
        service = home.read(base, core_id)
        if service is not None:
            value, excl, entry = service
            if excl:
                # Owner-forwarded data crosses the ring a second time
                # (LLC -> owner -> requester), so E-state services are
                # twice as sensitive to ring congestion — the asymmetry
                # the paper observes under kernel-build noise.
                contention += ring_register(now)
            # With no local holder left, this LLC copy may still be one
            # of two: a cross-socket fill leaves a copy in each socket.
            # Probe the other directories before the grant can hand out
            # E, or the requester would hold E beside a remote S (SWMR).
            shared = False
            if not entry.core_valid:
                for directory in self._other_directories[home_sid]:
                    if base in directory:
                        shared = True
                        break
            home.grant_to_local(entry, core, value, shared)
            path, base_lat, counter = self._local_bands[excl]
            latency = base_lat + home_hop + self._queueing(contention)
            counter.value += 1
            return value, self._finish(core_id, latency), path

        # Probe the other sockets over QPI before falling back to DRAM
        # (Section VI-B).
        for remote in self.sockets:
            if remote is home:
                continue
            service = remote.read(base, None)
            if service is None:
                continue
            value, excl, _entry = service
            remote_ring = self._ring_register[remote.socket_id]
            contention += self._qpi_register(now)
            contention += remote_ring(now)
            if excl:
                # Remote owner-forward: a second remote-ring crossing and
                # a second QPI message leg.
                contention += remote_ring(now)
                contention += self._qpi_register(now)
            # The line is now present in (at least) two sockets: install a
            # shared copy locally; neither socket keeps exclusive rights.
            entry = home.llc_fill(base, value)
            entry.core_valid |= 1 << core_id
            entry.owner = None
            home.private_fill(core, base, _SHARED, value)
            path, base_lat, counter = self._remote_bands[excl]
            latency = base_lat + home_hop + self._queueing(contention)
            counter.value += 1
            return value, self._finish(core_id, latency), path

        # DRAM fill; requester gets the line in E state (sole copy).
        value = self.dram.get(base, 0)
        contention += self._mem_register[home_sid](now)
        entry = home.llc_fill(base, value)
        home.grant_to_local(entry, core, value)
        path, base_lat, counter = self._dram_fill
        latency = base_lat + home_hop + self._queueing(contention)
        counter.value += 1
        return value, self._jitter(latency), path

    def _queueing(self, mean_delay: float) -> float:
        """Turn a mean queuing delay into a bursty random draw.

        Interconnect queues are bursty: the same average occupancy
        produces mostly-small delays with a tail, which is what pushes
        latency samples out of their calibrated bands under co-located
        noise (Figure 9).  A gamma(2) draw keeps the mean while thinning
        the tail at light load (an M/M/1 queue seen through a two-hop
        path), so one background thread does not already saturate the
        error rate.
        """
        if mean_delay <= 0:
            return 0.0
        return self._jitter_rng.gamma(2.0, mean_delay / 2.0)

    def store(
        self, core_id: int, paddr: int, value: int, now: float = 0.0
    ) -> tuple[float, AccessPath]:
        """Service a store (read-for-ownership); returns (latency, path)."""
        base = paddr & ~63
        home = self._socket_by_core[core_id]
        core = self.cores[core_id]
        line = core.l1.lookup(base)
        if line is None:
            line = home.l2_lookup(core, base)
        if line is not None and line.state is _MODIFIED:
            line.value = value
            self._store_hit_counter.value += 1
            return self._jitter(self._store_hit_latency), AccessPath.L1_HIT
        if self._dir_mode:
            return self._directory_store(core_id, core, home, line, base,
                                         value, now)

        # Gather the latest value and where it came from, invalidating
        # every other copy in the system.
        latest, (source_path, latency) = self._gather_for_ownership(
            core_id, home, base, now)
        if line is not None and line.state.readable:
            # Upgrade in place (e.g. E -> M, S -> M after invalidations).
            latest = line.value
        entry = home.llc_fill(base, latest)
        entry.core_valid = 1 << core_id
        entry.owner = core_id
        entry.forwarder = None
        entry.dirty = True
        home.private_fill(core, base, _MODIFIED, value)
        entry.value = value
        self._store_rfo_counter.value += 1
        return self._jitter(latency), source_path

    def _gather_for_ownership(
        self, core_id: int, home: SocketDomain, base: int, now: float
    ) -> tuple[int, tuple[AccessPath, float]]:
        # Returns the line's latest value and the (path, latency) of the
        # source it came from.
        latest: int | None = None
        source = self._rfo_dram
        self._ring_register[home.socket_id](now)
        for domain in self.sockets:
            entry = domain.directory.get(base)
            if entry is None:
                continue
            is_home = domain is home
            bands = self._rfo_local if is_home else self._rfo_remote
            owner = entry.owner
            if owner is not None and owner != core_id:
                owner_line = domain.private_line(domain.core(owner), base)
                if owner_line is not None:
                    latest = owner_line.value
                source = bands[1]
            elif latest is None and entry.data_valid:
                latest = entry.value
                if source is self._rfo_dram:
                    source = bands[0]
            for other_id in bit_ids(entry.core_valid):
                if other_id == core_id:
                    continue
                invalidated = domain.private_invalidate(
                    domain.core(other_id), base)
                if invalidated is not None and invalidated.state.dirty:
                    latest = invalidated.value
            if not is_home:
                domain.directory.pop(base, None)
                domain.data_array.remove(base)
                self._qpi_register(now)
        if latest is None:
            latest = self.dram.get(base, 0)
            self._mem_register[home.socket_id](now)
        return latest, source

    def flush(self, core_id: int, paddr: int, now: float = 0.0) -> float:
        """clflush: drop the line from every cache in every socket."""
        if self._dir_mode:
            return self._directory_flush(core_id, paddr, now)
        base = paddr & ~63
        latest: int | None = None
        dirty = False
        for domain in self.sockets:
            if base not in domain.directory:
                continue
            value, was_dirty = domain.invalidate_line(base)
            if value is not None and (latest is None or was_dirty):
                latest = value
            dirty = dirty or was_dirty
        return self._flush_done(core_id, base, latest, dirty, now)

    def _flush_done(
        self, core_id: int, base: int, latest: int | None, dirty: bool,
        now: float,
    ) -> float:
        # Write a dirty line back and charge the flush.
        latency = self._flush_latency
        if dirty and latest is not None:
            self.dram[base] = latest
            latency += self._flush_writeback
            self._mem_register[self._socket_by_core[core_id].socket_id](now)
        self._flush_counter.value += 1
        return self._jitter(latency)

    # ------------------------------------------------------------------
    # directory (home-node) request path
    # ------------------------------------------------------------------
    #
    # Selected with MachineConfig(coherence="directory").  Every LLC
    # miss first consults the address's *home* socket (page-interleaved,
    # like the snoop-mode home_agent refinement) whose DirectoryEntry is
    # authoritative for the whole machine.  Three service classes fall
    # out, and they map onto the paper's bands differently than snoop
    # mode does:
    #
    # * owner forward (E/M/O entry with a live owner): home snoops the
    #   owning core -> LOCAL_EXCL / REMOTE_EXCL by the *owner's* socket;
    # * home-side service (SHARED entry): the home answers from its
    #   memory-side copy -> LOCAL_SHARED / REMOTE_SHARED by the *home's*
    #   socket — so a remote sharer no longer produces a remote band if
    #   the home is local, a genuinely different leakage surface;
    # * memory fill (no entry / no copies): DRAM, requester granted E.
    #
    # Sharer masks are conservative supersets (silent private evictions
    # leave stale bits); every path self-heals before trusting a bit.

    def _dir_home_socket(self, base: int) -> int:
        """Home socket of a line address (page-interleaved)."""
        return (base >> 12) % self.config.n_sockets

    def _dir_entry_heal(self, entry: DirectoryEntry, core_id: int) -> None:
        """Drop the requester's stale claim on *entry*, if any.

        A core that just missed privately cannot still hold a copy; if
        the entry names it owner, ownership lapses and the entry falls
        back to home-side (SHARED) service.
        """
        entry.drop_sharer(core_id)
        if entry.owner_id == core_id:
            entry.owner_id = None
            entry.state = DirectoryState.SHARED

    def _directory_load(
        self, core_id: int, core: Core, domain: SocketDomain, base: int,
        now: float,
    ) -> tuple[int, float, AccessPath]:
        # A private miss of *core*; *domain* is its socket.
        req_sid = domain.socket_id
        contention = self._ring_register[req_sid](now)
        home_sid = self._dir_home_socket(base)
        hop = 0.0
        if home_sid != req_sid:
            # The directory consult itself crosses QPI to the home node.
            contention += self._qpi_register(now)
            hop = self.config.home_hop_cycles
        entry = self.home_directory.get(base)
        trace = self._dir_trace
        if entry is not None:
            self._dir_entry_heal(entry, core_id)
            owner = entry.owner()
            if owner is not None:
                owner_domain = self._socket_by_core[owner]
                owner_line = owner_domain.private_line(
                    self.cores[owner], base)
                if owner_line is not None and owner_line.state.readable:
                    # Live owner: home forwards the request; data comes
                    # cache-to-cache from the owner's socket.
                    value = owner_line.value
                    osid = owner_domain.socket_id
                    contention += self._ring_register[osid](now)
                    if osid != req_sid:
                        contention += self._qpi_register(now)
                    if owner_line.state.dirty and self.policy.has_owned_state:
                        # MOESI: the dirty owner keeps servicing in O.
                        owner_line.state = _OWNED
                        entry.state = DirectoryState.OWNED
                        entry.owner_id = owner
                        entry.dirty = True
                    else:
                        if owner_line.state.dirty:
                            entry.dirty = True
                        owner_line.state = _SHARED
                        entry.state = DirectoryState.SHARED
                        entry.owner_id = None
                    entry.value = value
                    entry.add_sharer(owner)
                    entry.add_sharer(core_id)
                    domain.private_fill(core, base, _SHARED, value)
                    if trace is not None:
                        trace(now, "owner_forward", base, entry)
                    bands = (
                        self._local_bands if osid == req_sid
                        else self._remote_bands
                    )
                    path, base_lat, counter = bands[1]
                    latency = base_lat + hop + self._queueing(contention)
                    counter.value += 1
                    self._dir_owner_fwd_counter.value += 1
                    return value, self._finish(core_id, latency), path
                # Stale owner: its copy evicted silently (a dirty victim
                # already reached DRAM via the L2-victim path).  Heal to
                # home-side service.
                entry.drop_sharer(owner)
                entry.owner_id = None
                entry.state = DirectoryState.SHARED
            if entry.sharers:
                # Home-side (memory-side) service of a shared line: the
                # band is set by where the *home* is, not the sharers.
                value = entry.value
                entry.state = DirectoryState.SHARED
                entry.owner_id = None
                entry.add_sharer(core_id)
                domain.private_fill(core, base, _SHARED, value)
                if trace is not None:
                    trace(now, "home_service", base, entry)
                bands = (
                    self._local_bands if home_sid == req_sid
                    else self._remote_bands
                )
                path, base_lat, counter = bands[0]
                latency = base_lat + hop + self._queueing(contention)
                counter.value += 1
                self._dir_home_counter.value += 1
                return value, self._finish(core_id, latency), path

        # No entry or no live copies: memory fill, requester granted E.
        if entry is not None and entry.dirty:
            value = self.dram.get(base, entry.value)
        else:
            value = self.dram.get(base, 0)
        contention += self._mem_register[home_sid](now)
        if entry is None:
            entry = DirectoryEntry(addr=base)
            self.home_directory[base] = entry
        entry.state = DirectoryState.EXCLUSIVE
        entry.sharers = 1 << core_id
        entry.owner_id = None
        entry.value = value
        domain.private_fill(core, base, _EXCLUSIVE, value)
        if trace is not None:
            trace(now, "memory_fill", base, entry)
        path, base_lat, counter = self._dram_fill
        latency = base_lat + hop + self._queueing(contention)
        counter.value += 1
        self._dir_fill_counter.value += 1
        return value, self._jitter(latency), path

    def _directory_store(
        self, core_id: int, core: Core, domain: SocketDomain,
        line: PrivateLine | None, base: int, value: int, now: float,
    ) -> tuple[float, AccessPath]:
        # A store without M rights; *line* is the core's own copy, if any.
        req_sid = domain.socket_id
        self._ring_register[req_sid](now)
        home_sid = self._dir_home_socket(base)
        if home_sid != req_sid:
            self._qpi_register(now)
        entry = self.home_directory.get(base)
        latest: int | None = None
        source = self._rfo_dram
        if entry is not None:
            self._dir_entry_heal(entry, core_id)
            owner = entry.owner()
            if owner is not None:
                owner_domain = self._socket_by_core[owner]
                owner_line = owner_domain.private_line(
                    self.cores[owner], base)
                osid = owner_domain.socket_id
                self._ring_register[osid](now)
                if osid != req_sid:
                    self._qpi_register(now)
                if owner_line is not None:
                    latest = owner_line.value
                    bands = (
                        self._rfo_local if osid == req_sid
                        else self._rfo_remote
                    )
                    source = bands[1]
                elif entry.dirty:
                    latest = entry.value
            elif entry.sharers:
                latest = entry.value
                bands = (
                    self._rfo_local if home_sid == req_sid
                    else self._rfo_remote
                )
                source = bands[0]
            elif entry.dirty:
                latest = entry.value
            # Invalidate every (possibly stale) sharer bit.
            for cid in entry.sharer_ids():
                if cid == core_id:
                    continue
                sharer_domain = self._socket_by_core[cid]
                invalidated = sharer_domain.private_invalidate(
                    self.cores[cid], base)
                if invalidated is not None and invalidated.state.dirty:
                    latest = invalidated.value
        if line is not None and line.state.readable:
            # Upgrade in place (e.g. E -> M, S -> M after invalidations).
            latest = line.value
        if latest is None:
            latest = self.dram.get(base, 0)
            self._mem_register[home_sid](now)
        if entry is None:
            entry = DirectoryEntry(addr=base)
            self.home_directory[base] = entry
        entry.state = DirectoryState.MODIFIED
        entry.sharers = 1 << core_id
        entry.owner_id = None
        entry.value = value
        entry.dirty = True
        domain.private_fill(core, base, _MODIFIED, value)
        if self._dir_trace is not None:
            self._dir_trace(now, "rfo", base, entry)
        source_path, latency = source
        self._store_rfo_counter.value += 1
        return self._jitter(latency), source_path

    def _directory_flush(
        self, core_id: int, paddr: int, now: float
    ) -> float:
        base = paddr & ~63
        entry = self.home_directory.pop(base, None)
        latest: int | None = None
        dirty = False
        if entry is not None:
            if entry.dirty:
                latest = entry.value
                dirty = True
            for cid in entry.sharer_ids():
                sharer_domain = self._socket_by_core[cid]
                invalidated = sharer_domain.private_invalidate(
                    self.cores[cid], base)
                if invalidated is not None:
                    if latest is None or invalidated.state.dirty:
                        latest = invalidated.value
                    dirty = dirty or invalidated.state.dirty
            if self._dir_trace is not None:
                self._dir_trace(now, "flush", base, entry)
        return self._flush_done(core_id, base, latest, dirty, now)

    def drop_line(self, paddr: int) -> None:
        """Invalidate a line everywhere without write-back.

        For page remaps (KSM COW unmerge): the physical frame is being
        replaced, so dirty data is deliberately discarded.  Works under
        both coherence backends.
        """
        base = paddr & ~63
        if self._dir_mode:
            entry = self.home_directory.pop(base, None)
            if entry is not None:
                for cid in entry.sharer_ids():
                    self._socket_by_core[cid].private_invalidate(
                        self.cores[cid], base)
            return
        for domain in self.sockets:
            domain.invalidate_line(base)

    # ------------------------------------------------------------------
    # latency assembly
    # ------------------------------------------------------------------

    def _home_agent_hop(self, requester_socket: int, base: int, now: float) -> float:
        """Extra hop to the address's home directory (home-agent mode).

        Charged on every LLC-miss transaction whose requester is not the
        line's home node; page-interleaved homes mean the same (location,
        state) pair splits into home-local and home-remote sub-bands.
        Callers check ``_home_agent`` first.
        """
        home_socket = (base // 4096) % self.config.n_sockets
        if home_socket == requester_socket:
            return 0.0
        self._qpi_register(now)
        return self.config.home_hop_cycles

    def base_latency(
        self, op: str, core_id: int, paddr: int, path: AccessPath | None,
        registered: bool,
    ) -> tuple[bool, float]:
        """``(queued, base)`` of an op already serviced along *path*.

        For replaying an op's timing without its coherence work: *base*
        is the latency before contention and jitter, folded as the op
        folds it (a directory miss adds the home hop first), and
        *queued* says whether the op adds a queueing draw over the
        registrations it made (a load served past L2) or discards them
        (everything else).  *op* is ``"load"``, ``"store"`` or
        ``"flush"``; *path* is what the op returned (``None`` for a
        flush), *registered* whether it made any interconnect
        registration (a flush makes one only to write back).  Not valid
        in home-agent mode, whose hop registration is discarded inside a
        queued load, nor under an obfuscation policy.
        """
        if op == "flush":
            if registered:
                return False, self._flush_latency + self._flush_writeback
            return False, self._flush_latency
        if op == "store":
            if path is AccessPath.L1_HIT:
                return False, self._store_hit_latency
            sources = (self._rfo_dram, *self._rfo_local, *self._rfo_remote)
            return False, dict(sources)[path]
        latency = {
            source: base for source, base, _counter in (
                self._l1_hit, self._l2_hit, self._dram_fill,
                *self._local_bands, *self._remote_bands,
            )
        }[path]
        if path is AccessPath.L1_HIT or path is AccessPath.L2_HIT:
            return False, latency
        hop = 0.0
        if (self._dir_mode and self._dir_home_socket(paddr & ~63)
                != self._socket_by_core[core_id].socket_id):
            hop = self.config.home_hop_cycles
        return True, latency + hop

    def _finish(self, core_id: int, latency: float) -> float:
        """A coherence-band load's latency: obfuscated or jittered."""
        obf = self.obfuscation
        if obf is not None and obf.applies_to(core_id):
            return obf.obfuscate(self._jitter_rng)
        return self._jitter(latency)

    def _jitter(self, latency: float) -> float:
        """*latency* with :meth:`NoiseModel.sample`'s jitter, clamped to
        at least 1 cycle: one call per executed memory op.

        :meth:`RngStream.jitter <repro.sim.rng.RngStream.jitter>` is the
        one copy of the draw sequence (normal, uniform, rare
        exponential); the worker driver's inline L1 hit and
        calibration's replay call it too.
        """
        noise = self._noise
        if not noise.enabled:
            return latency if latency > 1.0 else 1.0
        return self._jitter_rng.jitter(
            latency, noise.sigma, noise.tail_probability, noise.tail_scale)

    # ------------------------------------------------------------------
    # introspection (tests / experiments)
    # ------------------------------------------------------------------

    def private_state(self, core_id: int, paddr: int) -> CoherenceState:
        """Coherence state of the line in a core's private caches."""
        domain = self.socket_of(core_id)
        line = domain.private_line(domain.core(core_id), paddr)
        return CoherenceState.INVALID if line is None else line.state

    def private_states(self, paddr: int) -> dict[int, CoherenceState]:
        """Private coherence state of the line, per holding core id.

        Peeks (LRU untouched) only the cores the backend records as
        holders: each socket's core-valid bits in snoop mode, which are
        exact, and the home entry's sharer mask in directory mode, a
        superset whose stale bits peek an empty cache.  L2 is inclusive
        of L1, so the L2 peek finds every private copy.  The result
        equals :func:`~repro.mem.invariants.walk_private_states`, which
        peeks every core, as long as those records cover every holder —
        an invariant :func:`~repro.mem.invariants.check_machine` checks.
        """
        base = paddr & ~63
        cores = self.cores
        states: dict[int, CoherenceState] = {}
        if self._dir_mode:
            entry = self.home_directory.get(base)
            holders = () if entry is None else entry.sharer_ids()
        else:
            holders = [
                core_id
                for domain in self.sockets
                if (entry := domain.directory.get(base)) is not None
                for core_id in bit_ids(entry.core_valid)
            ]
        for core_id in holders:
            line = cores[core_id].l2.lookup(base, False)
            if line is not None:
                states[core_id] = line.state
        return states

    def llc_entry(self, socket_id: int, paddr: int) -> LlcLine | None:
        """Directory entry for the line in a socket (None if absent)."""
        return self.sockets[socket_id].directory.get(line_addr(paddr))

    def home_entry(self, paddr: int) -> DirectoryEntry | None:
        """Home-node directory entry (directory backend; None if absent)."""
        return self.home_directory.get(line_addr(paddr))

    def global_coherence_state(self, paddr: int) -> CoherenceState:
        """The strongest private state any core holds for the line."""
        order = [
            CoherenceState.MODIFIED,
            CoherenceState.OWNED,
            CoherenceState.EXCLUSIVE,
            CoherenceState.FORWARD,
            CoherenceState.SHARED,
        ]
        states = set(self.private_states(paddr).values())
        for state in order:
            if state in states:
                return state
        return CoherenceState.INVALID
