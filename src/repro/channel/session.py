"""End-to-end covert-channel sessions: machine + kernel + trojan + spy.

:class:`ChannelSession` assembles the full stack for one Table I
scenario — builds the simulated machine, creates the trojan and spy
processes, force-creates the shared physical page (KSM or explicit
sharing), calibrates the latency bands, and runs transmissions,
returning a :class:`TransmissionResult` with everything the paper's
figures need (reception trace, accuracy, rates).

:class:`SessionBase` carries the stack-assembly plumbing so the
multi-bit symbol channel (:mod:`repro.channel.symbols`) and the
mitigation experiments can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.calibration import (
    DEFAULT_CALIBRATION_SAMPLES,
    LatencyBands,
    calibrate,
    calibrate_memoized,
    clear_calibration_memo,
)
from repro.channel.config import (
    Location,
    ProtocolParams,
    Scenario,
    extra_pairs_for,
)
from repro.channel.scenarios import ScenarioSpec, scenario_spec_by_name
from repro.channel.decoder import BitDecoder, DecodeReport, SampleTrace
from repro.channel.metrics import Alignment, align_bits, transmission_rate_kbps
from repro.channel.spy import SpyResult, spy_program
from repro.channel.sync import resync_backoff_cycles
from repro.channel.trojan import (
    TrojanControl,
    WorkerRole,
    controller_program,
    worker_program,
    worker_roles,
)
from repro.checkpoint.spec import ProgramSpec, TransmitContext
from repro.checkpoint.segments import SegmentStore
from repro.errors import ConfigError, SyncTimeoutError
from repro.faults.plan import FaultPlan
from repro.kernel.process import Process
from repro.kernel.syscalls import Kernel
from repro.kernel.workloads import spawn_kernel_build
from repro.mem.hierarchy import Machine, MachineConfig
from repro.obs import MachineTap, RunManifest, TraceRecorder, trace_enabled
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


@dataclass
class SessionConfig:
    """Everything needed to stand up one covert-channel session.

    The scenario is named by ``spec`` alone — a registered
    :class:`~repro.channel.scenarios.ScenarioSpec` (or its name), which
    resolves the scenario, overlays the machine's protocol/topology and
    fills in channel-family defaults (params, flush method, sharing)
    for every field the caller left at its default.
    """

    #: A :class:`~repro.channel.scenarios.ScenarioSpec`, or a registered
    #: scenario name (``scenario_spec_by_name`` spelling).
    spec: ScenarioSpec | str | None = None
    #: The state-pair structure, resolved from ``spec``.
    scenario: Scenario = field(init=False)
    params: ProtocolParams = field(default_factory=ProtocolParams)
    seed: int = 0
    #: "ksm" forces page sharing through memory deduplication
    #: (Section IV); "explicit" maps a shared read-only frame directly
    #: (the shared-library model of prior work); "explicit-rw" maps the
    #: frame writable (MAP_SHARED model — required by channels whose
    #: trojan dirties the block, e.g. the O-state family).
    sharing: str = "ksm"
    noise_threads: int = 0
    machine: MachineConfig = field(default_factory=MachineConfig)
    calibration_samples: int = DEFAULT_CALIBRATION_SAMPLES
    #: Spy core; local trojan cores are chosen on its socket, remote
    #: cores on the next socket.
    spy_core: int = 0
    #: "clflush" uses the flush instruction; "evict" makes the spy evict
    #: the shared block by loading every way of its LLC set — the
    #: paper's Section VI-B alternative for clflush-less environments.
    #: Evict-based flushing is slow (one load per LLC way), so pair it
    #: with a low-rate ProtocolParams (slot of several thousand cycles).
    flush_method: str = "clflush"
    #: Extra synchronization attempts after the spy times out waiting
    #: for the transmission start (Section VII-A re-synchronization):
    #: each retry idles for an exponentially growing backoff — long
    #: enough for transient disturbances (preemption, KSM churn) to
    #: clear — then replays the whole handshake.  0 restores the old
    #: fail-on-first-timeout behavior.
    resync_attempts: int = 2
    #: Base idle before the first resync attempt (doubles per attempt).
    resync_backoff_cycles: float = 2_000_000.0
    #: Optional :class:`repro.faults.FaultPlan` (or its ``to_json``
    #: dict, so plans ride inside JSON-plain grid params).  Its
    #: simulation-plane events are installed at the first transmission.
    faults: object = None
    #: Acquire the machine from the process-local warm pool (reset in
    #: place) instead of constructing a fresh one.  Off by default for
    #: directly-built sessions, which stay live and must not share a
    #: machine; :func:`execute_point` runs one-shot and turns it on so
    #: grid workers amortize topology construction across points.
    reuse_machine: bool = False
    #: Structured tracing (:mod:`repro.obs`).  ``None`` (the default)
    #: defers to the ``REPRO_TRACE`` environment variable — set by the
    #: CLI's ``--trace`` flag — so the decision never enters grid cache
    #: keys; ``True``/``False`` force it per session.  When enabled the
    #: session calls :meth:`SessionBase.start_trace` at construction, so
    #: its :class:`~repro.obs.TraceRecorder` records setup and
    #: calibration too.  A session built with ``False`` can still start
    #: tracing later, from its transmission on.
    trace: bool | None = None

    def __post_init__(self) -> None:
        self._resolve_spec()
        if self.sharing not in ("ksm", "explicit", "explicit-rw"):
            raise ConfigError(f"unknown sharing mode {self.sharing!r}")
        if self.resync_attempts < 0:
            raise ConfigError("resync_attempts must be >= 0")
        if self.flush_method not in ("clflush", "evict"):
            raise ConfigError(f"unknown flush method {self.flush_method!r}")
        if self.scenario.needs_remote_socket and self.machine.n_sockets < 2:
            raise ConfigError(
                f"scenario {self.scenario.name} needs two sockets"
            )

    def _resolve_spec(self) -> None:
        """Resolve ``spec`` into a concrete configuration.

        A spec overlays only fields the caller left at their defaults
        (machine protocol/topology, params, flush method, sharing), so
        explicit caller choices always win — or, for the machine, raise
        on a genuine conflict (see ``ScenarioSpec.machine_config``).
        """
        spec = self.spec
        if isinstance(spec, str):
            spec = self.spec = scenario_spec_by_name(spec)
        if not isinstance(spec, ScenarioSpec):
            raise ConfigError(
                "SessionConfig needs spec= (a ScenarioSpec or registered "
                f"scenario name), got {type(spec).__name__}"
            )
        self.scenario = spec.scenario
        self.machine = spec.machine_config(self.machine)
        if self.params == ProtocolParams():
            self.params = spec.default_params()
        if self.flush_method == "clflush":
            self.flush_method = spec.flush_method
        if self.sharing == "ksm":
            self.sharing = spec.sharing


@dataclass
class TransmissionResult:
    """Outcome of one payload transmission."""

    scenario_name: str
    sent: list[int]
    received: list[int]
    alignment: Alignment
    #: The spy's latency trace, frozen into columns when the result is
    #: assembled (it pickles compactly for IPC and cache entries).
    samples: SampleTrace
    decode: DecodeReport
    cycles: float
    nominal_rate_kbps: float
    #: Re-synchronizations this transmission needed before succeeding.
    resyncs: int = 0
    #: :class:`~repro.obs.RunManifest` snapshot taken when the result
    #: was assembled (attached whether or not tracing is enabled).
    #: Excluded from equality so manifest-bearing results still compare
    #: equal to pre-manifest ones on the channel-level fields.
    manifest: object = field(default=None, compare=False)

    @property
    def accuracy(self) -> float:
        """Raw-bit accuracy (Figure 8/9's y-axis)."""
        return self.alignment.accuracy

    @property
    def achieved_rate_kbps(self) -> float:
        """Measured raw bit rate over the reception window."""
        return transmission_rate_kbps(len(self.sent), self.cycles)


# ----------------------------------------------------------------------
# warm-worker machine pool
# ----------------------------------------------------------------------

#: machine-config fingerprint -> constructed Machine.  Process-local:
#: each pool worker grows its own, and sequential grid points whose
#: structural parameters match reuse the topology via Machine.reset()
#: instead of rebuilding it (cache sets are allocated on first fill, so
#: a rebuild costs about what a reset does).
_MACHINE_POOL: dict[str, Machine] = {}


def clear_warm_state() -> int:
    """Drop pooled machines *and* the calibration memo; returns count.

    The differential harness's cold-path seam
    (``tests/test_fast_paths.py``): after this, the next session in this
    process pays full construction and calibration cost again.
    """
    count = len(_MACHINE_POOL)
    _MACHINE_POOL.clear()
    clear_calibration_memo()
    return count


def _acquire_machine(config: MachineConfig, rng: RngStreams) -> Machine:
    """A machine for *config*: pooled + reset when one exists, else new.

    Pool identity is the structural fingerprint, so a reused machine has
    byte-equal configuration; ``Machine.reset`` restores it to
    just-constructed state (empty caches/directory/DRAM, zeroed stats,
    fresh jitter stream bound to *rng*).
    """
    key = config.fingerprint()
    machine = _MACHINE_POOL.get(key)
    if machine is None:
        machine = Machine(config, rng)
        _MACHINE_POOL[key] = machine
    else:
        machine.reset(rng)
    return machine


class SessionBase:
    """Shared plumbing: machine, kernel, processes, shared page, bands."""

    def __init__(self, config: SessionConfig):
        self.config = config
        # Until tracing starts, recorder and tap are None and the machine
        # hot path is byte-for-byte the untraced code.
        self.recorder: TraceRecorder | None = None
        self.tap: MachineTap | None = None
        self.rng = RngStreams(config.seed)
        if config.reuse_machine:
            self.machine = _acquire_machine(config.machine, self.rng)
        else:
            self.machine = Machine(config.machine, self.rng)
        traced = config.trace if config.trace is not None else trace_enabled()
        if traced:
            self.start_trace()
        self.sim = Simulator(self.machine.stats)
        #: Optional :class:`repro.checkpoint.SegmentStore` — when set,
        #: transmissions pause at segment boundaries and store resumable
        #: checkpoints (see :meth:`_run_transmission`).
        self.segments: SegmentStore | None = None
        self.kernel = Kernel(self.machine, self.sim, self.rng)
        self.trojan_proc: Process = self.kernel.create_process("trojan")
        self.spy_proc: Process = self.kernel.create_process("spy")
        self._phase("setup", "B", sharing=config.sharing)
        self._setup_sharing()
        self._assign_cores()
        self._phase("setup", "E")
        self._phase("calibrate", "B", samples=config.calibration_samples)
        self.bands: LatencyBands = self._calibrate()
        self._phase("calibrate", "E")
        self.noise_threads = []
        if config.noise_threads:
            self.noise_threads = spawn_kernel_build(
                self.kernel,
                config.noise_threads,
                avoid_cores=set(self.reserved_cores()),
            )
        self.eviction_set: list[int] = []
        if config.flush_method == "evict":
            self.eviction_set = self.kernel.build_eviction_set(
                self.spy_proc, self.spy_va
            )
        self._transmissions = 0
        #: Successful handshake recoveries over the session's lifetime.
        self.resyncs = 0
        self.fault_threads: list = []
        self._faults_installed = False

    # -- setup ----------------------------------------------------------

    def start_trace(self) -> TraceRecorder:
        """Start tracing this session; returns its recorder (idempotent).

        Creates the :class:`~repro.obs.TraceRecorder` and attaches a
        :class:`~repro.obs.MachineTap` on the first call; later calls
        return the same recorder.  A session whose ``config.trace``
        resolves true calls it at construction, before calibration, so
        its trace holds every phase.  Called on a built session, the
        trace starts at the next op: calibration has already run (from
        the memo where usable).  Threads spawned from then on hoist the
        tap's wrappers at spawn, and noise workers already spawned read
        them at their next burst (``Kernel._do_burst`` looks the
        bindings up per burst).
        """
        if self.recorder is None:
            self.recorder = TraceRecorder()
            self.tap = MachineTap(self.machine, self.recorder)
            self.tap.attach()
        return self.recorder

    def _phase(self, name: str, mark: str, **data) -> None:
        """Emit a channel phase mark (``B``/``E``) at the current clock."""
        if self.recorder is not None:
            self.recorder.emit(
                self.sim.global_clock, "phase", name, {"mark": mark, **data}
            )

    def _setup_sharing(self) -> None:
        if self.config.sharing == "ksm":
            seed = 0xC0FFEE ^ self.config.seed
            self.trojan_va, self.spy_va = self.kernel.setup_ksm_shared_page(
                self.trojan_proc, self.spy_proc, pattern_seed=seed
            )
        elif self.config.sharing == "explicit-rw":
            bases = self.kernel.map_shared_writable(
                [self.trojan_proc, self.spy_proc]
            )
            self.trojan_va, self.spy_va = bases[0], bases[1]
        else:
            bases = self.kernel.map_shared_readonly(
                [self.trojan_proc, self.spy_proc]
            )
            self.trojan_va, self.spy_va = bases[0], bases[1]
        if self.trojan_proc.translate(self.trojan_va) != self.spy_proc.translate(
            self.spy_va
        ):
            raise ConfigError("shared-page setup failed: different frames")

    def _worker_demand(self) -> tuple[int, int]:
        scenario = self.config.scenario
        return scenario.local_threads, scenario.remote_threads

    def _assign_cores(self) -> None:
        cfg = self.config
        n_local, n_remote = self._worker_demand()
        per_socket = cfg.machine.cores_per_socket
        spy_socket = cfg.spy_core // per_socket
        local_pool = [
            c
            for c in range(spy_socket * per_socket, (spy_socket + 1) * per_socket)
            if c != cfg.spy_core
        ]
        remote_socket = (spy_socket + 1) % cfg.machine.n_sockets
        remote_pool = list(
            range(remote_socket * per_socket, (remote_socket + 1) * per_socket)
        )
        if n_local > len(local_pool):
            raise ConfigError("not enough local cores for the trojan")
        if n_remote > len(remote_pool) or (
            n_remote and remote_socket == spy_socket
        ):
            raise ConfigError("not enough remote cores for the trojan")
        self.local_cores = local_pool[: max(2, n_local)]
        if cfg.machine.n_sockets < 2:
            self.remote_cores = []
        else:
            self.remote_cores = remote_pool[: max(2, n_remote)]

    def reserved_cores(self) -> list[int]:
        """Cores the trojan/spy occupy (noise workloads avoid these)."""
        return [self.config.spy_core, *self.local_cores, *self.remote_cores]

    def _calibration_key(self) -> tuple:
        """Memo key: everything that shapes the calibration pass.

        The machine fingerprint pins the topology and latency model, the
        root seed pins every RNG stream, and sharing mode is included
        because it decides how much pre-calibration work (KSM merge vs
        explicit map) has already consumed the kernel's streams.
        """
        cfg = self.config
        return (
            cfg.machine.fingerprint(),
            cfg.seed,
            cfg.sharing,
            cfg.calibration_samples,
            cfg.spy_core,
            self.spy_proc.translate(self.spy_va),
            tuple(p.notation for p in self._extra_pairs()),
        )

    def _extra_pairs(self):
        """Non-standard pairs this session's scenario needs calibrated."""
        return extra_pairs_for(self.config.scenario)

    def _calibration_memo_usable(self) -> bool:
        """Whether this session's calibration is memo-safe.

        Perturbed calibrations must run cold: an installed obfuscation
        policy changes the measured latencies, and fault-injected
        sessions (simulation-plane events) opt out wholesale so a
        disturbed pass can neither poison the memo nor mask a fault's
        interaction with calibration.  Traced sessions run cold too: a
        memo hit skips the calibration loads, so the recorded event
        stream would depend on what ran earlier in the process.
        """
        if self.recorder is not None:
            return False
        if self.machine.obfuscation is not None:
            return False
        plan = FaultPlan.from_json(self.config.faults)
        return not plan.simulation_events

    def _calibrate(self) -> LatencyBands:
        paddr = self.spy_proc.translate(self.spy_va)
        extra_pairs = self._extra_pairs()
        if self._calibration_memo_usable():
            return calibrate_memoized(
                self.machine,
                self._calibration_key(),
                paddr=paddr,
                samples=self.config.calibration_samples,
                spy_core=self.config.spy_core,
                extra_pairs=extra_pairs,
            )
        bands, _raw = calibrate(
            self.machine,
            paddr=paddr,
            samples=self.config.calibration_samples,
            spy_core=self.config.spy_core,
            extra_pairs=extra_pairs,
        )
        return bands

    def spawn_workers(
        self, roles: list[WorkerRole], control: TrojanControl, tag: int
    ) -> None:
        """Spawn trojan reader threads on the cores their roles demand."""
        for role in roles:
            pool = (
                self.local_cores
                if role.location is Location.LOCAL
                else self.remote_cores
            )
            self.kernel.spawn(
                self.trojan_proc,
                f"trojan-{role.location.value}{role.index}-{tag}",
                worker_program(control, role, self.trojan_va, self.config.params),
                core_id=pool[role.index],
                daemon=True,
                spec=ProgramSpec(
                    "repro.channel.trojan:worker_program",
                    (control, role, self.trojan_va, self.config.params),
                ),
            )

    def spawn_controller(self, program, tag: int, spec: ProgramSpec | None = None):
        """Spawn the trojan's orchestration thread.

        The controller only flushes at transitions and waits out slots;
        it is modeled as an unscheduled thread of the trojan process so
        it does not distort a worker core's timing.
        """
        return self.sim.spawn(
            name=f"trojan-ctl-{tag}",
            program=program,
            core_id=self.local_cores[0],
            executor=self.kernel._execute,
            daemon=False,
            process=self.trojan_proc,
            spec=spec,
        )

    def next_tag(self) -> int:
        """A unique per-transmission tag for thread names."""
        tag = self._transmissions
        self._transmissions += 1
        return tag

    def install_faults(self) -> None:
        """Install the configured simulation-plane fault plan (once).

        Deferred to the first transmission so the fault windows —
        expressed relative to the install-time clock — land inside the
        traffic they are meant to disturb, not the calibration phase.
        """
        if self._faults_installed:
            return
        self._faults_installed = True
        plan = FaultPlan.from_json(self.config.faults)
        if plan.simulation_events:
            from repro.faults.simulation import install_simulation_faults

            self.fault_threads = install_simulation_faults(self, plan)

    def _reap_attempt(self, tag: int) -> None:
        """Kill every surviving thread of one transmission attempt.

        After a failed handshake the attempt's workers (daemons) and
        controller (non-daemon, still mid-payload) are abandoned; a
        retry spawns a fresh cohort under a new tag, so the stale one
        must not keep running — or keep the engine alive — underneath
        it.
        """
        suffix = f"-{tag}"
        for thread in self.sim.threads:
            # Only the attempt's own cohort: workers (trojan-L0-<tag>),
            # controller (trojan-ctl-<tag>) and spy (spy-<tag>).  Noise
            # workloads, KSM, and fault threads use other prefixes and
            # must survive the reap.
            if (
                thread.name.startswith(("trojan-", "spy-"))
                and thread.name.endswith(suffix)
                and not thread.done
            ):
                thread.kill()

    def idle(self, cycles: float) -> None:
        """Advance simulated time with the channel quiet.

        Background daemons (noise workloads, KSM) keep running; the
        trojan and spy do nothing.  Used for retransmission backoff.
        """

        def program(cpu):
            yield from cpu.delay(cycles)

        self.sim.spawn(
            name=f"idle-{self.next_tag()}",
            program=program,
            core_id=self.config.spy_core,
            executor=self.kernel._execute,
            daemon=False,
        )
        self.sim.run()

    # -- segmented execution --------------------------------------------

    def _segmentable(self) -> bool:
        """Whether the in-flight transmission may be checkpointed.

        Tracing sessions and obfuscated machines are excluded (recorder
        buffers and wrapped caches do not snapshot), and every live
        thread must run on a driver (:mod:`repro.sim.drivers`), whose
        position is what a checkpoint stores — simulation-plane fault
        injectors are undriven by design, so a fault-disturbed
        transmission silently falls back to the unsegmented path rather
        than capturing unrestorable state.
        """
        if self.recorder is not None or self.machine.obfuscation is not None:
            return False
        return all(
            thread.driver is not None for thread in self.sim.live_run_order()
        )

    def _run_transmission(self, ctx: TransmitContext) -> None:
        """Drive one attempt's engine run, segmenting when configured.

        Unsegmented (no store, or :meth:`_segmentable` says no): one
        plain ``sim.run()`` — byte-for-byte today's behavior.  Segmented:
        run to each segment boundary, store a resumable checkpoint, and
        continue; the pauses are invisible to the simulation.
        """
        store = self.segments
        if store is None or not self._segmentable():
            self.sim.run()
            return
        while True:
            boundary = store.next_boundary(self.sim.global_clock)
            paused = self.sim.run(pause_at=boundary)
            if not paused:
                return
            store.record_segment(self, ctx)


class ChannelSession(SessionBase):
    """One binary trojan/spy channel on one simulated machine.

    Reusable: call :meth:`transmit` repeatedly; simulated time keeps
    advancing on the same machine and shared page.
    """

    def transmit(
        self,
        payload: list[int],
        _resume: TransmitContext | None = None,
        _label: str = "main",
    ) -> TransmissionResult:
        """Send *payload* from the trojan to the spy; decode and score.

        If the spy times out waiting for the transmission start (a lost
        handshake — forced preemption, a severed shared page, ...), the
        attempt's threads are reaped, the pair idles for an exponential
        backoff, and the whole handshake replays, up to
        ``config.resync_attempts`` retries.  Only then does
        :class:`~repro.errors.SyncTimeoutError` propagate.

        ``_resume``/``_label`` are the checkpoint plane's hooks
        (:func:`repro.checkpoint.restore` / :func:`execute_point`): a
        restored :class:`~repro.checkpoint.TransmitContext` re-enters
        the attempt loop mid-attempt — same tag, same live thread
        cohort, no backoff — and a failed resumed attempt retries
        exactly as the uninterrupted run would have.
        """
        cfg = self.config
        if any(bit not in (0, 1) for bit in payload):
            raise ConfigError("payload must be a list of 0/1 ints")
        self.install_faults()
        first_attempt = _resume.attempt if _resume is not None else 0
        resume = _resume

        self._phase("transmit", "B", bits=len(payload))
        try:
            for attempt in range(first_attempt, cfg.resync_attempts + 1):
                # A resumed attempt is consumed exactly once; if it
                # fails, the next iteration retries cold — with the same
                # tag sequence as an uninterrupted run, because the
                # restored ``_transmissions`` counter already advanced
                # past the resumed tag.
                resume, resuming = None, resume
                if attempt and resuming is None:
                    # Back off long enough for the disturbance that broke
                    # the handshake to clear, then resynchronize from
                    # scratch with a fresh thread cohort.
                    self._phase("resync", "B", attempt=attempt)
                    self.idle(resync_backoff_cycles(
                        attempt, base=cfg.resync_backoff_cycles
                    ))
                    self._phase("resync", "E")
                tag = resuming.tag if resuming is not None else self.next_tag()
                self._phase("attempt", "B", tag=tag)
                try:
                    result = self._transmit_once(
                        payload, tag, attempt=attempt, label=_label,
                        _resume=resuming,
                    )
                except SyncTimeoutError:
                    self._phase("attempt", "E", outcome="sync-timeout")
                    self._reap_attempt(tag)
                    if attempt >= cfg.resync_attempts:
                        raise
                    self.resyncs += 1
                    continue
                self._phase("attempt", "E", outcome="ok")
                return TransmissionResult(
                    scenario_name=result.scenario_name,
                    sent=result.sent,
                    received=result.received,
                    alignment=result.alignment,
                    samples=result.samples,
                    decode=result.decode,
                    cycles=result.cycles,
                    nominal_rate_kbps=result.nominal_rate_kbps,
                    resyncs=attempt,
                    manifest=RunManifest.capture(self, resyncs=attempt),
                )
            raise AssertionError("unreachable")  # pragma: no cover
        finally:
            self._phase("transmit", "E")

    def _transmit_once(
        self,
        payload: list[int],
        tag: int,
        attempt: int = 0,
        label: str = "main",
        _resume: TransmitContext | None = None,
    ) -> TransmissionResult:
        """One handshake + payload attempt (no retry logic).

        With ``_resume``, the attempt's thread cohort already lives in
        the (restored) simulator — spawn nothing, pick the shared
        control/decoder/spy-result objects out of the context, and just
        drive the engine to completion.
        """
        cfg = self.config
        if _resume is not None:
            ctx = _resume
            control = ctx.control
            decoder = ctx.decoder
            spy_result = ctx.spy_result
            controller_thread = self.sim._by_name.get(f"trojan-ctl-{tag}")
        else:
            control = TrojanControl()
            decoder = BitDecoder(self.bands, cfg.scenario, cfg.params)
            spy_result = SpyResult()
            bits = list(payload)
            ctx = TransmitContext(
                payload=bits,
                tag=tag,
                attempt=attempt,
                label=label,
                control=control,
                decoder=decoder,
                spy_result=spy_result,
            )
            self.spawn_workers(worker_roles(cfg.scenario), control, tag)
            controller_thread = self.spawn_controller(
                controller_program(
                    control, cfg.scenario, cfg.params, self.trojan_va, bits
                ),
                tag,
                spec=ProgramSpec(
                    "repro.channel.trojan:controller_program",
                    (control, cfg.scenario, cfg.params, self.trojan_va, bits),
                ),
            )
            eviction = (
                self.eviction_set if cfg.flush_method == "evict" else None
            )
            self.kernel.spawn(
                self.spy_proc,
                f"spy-{tag}",
                spy_program(spy_result, decoder, cfg.params, self.spy_va,
                            eviction_set=eviction),
                core_id=cfg.spy_core,
                daemon=False,
                spec=ProgramSpec(
                    "repro.channel.spy:spy_program",
                    (spy_result, decoder, cfg.params, self.spy_va),
                    {"eviction_set": eviction},
                ),
            )
        self._run_transmission(ctx)
        if (
            controller_thread is not None
            and controller_thread.failure is not None
        ):  # pragma: no cover
            raise controller_thread.failure

        self._phase("decode", "B", samples=len(spy_result.samples))
        report = decoder.decode(spy_result.samples)
        alignment = align_bits(list(payload), report.bits)
        self._phase("decode", "E", bits=len(report.bits))
        return TransmissionResult(
            scenario_name=cfg.scenario.name,
            sent=list(payload),
            received=report.bits,
            alignment=alignment,
            samples=SampleTrace(spy_result.samples),
            decode=report,
            cycles=spy_result.reception_cycles,
            nominal_rate_kbps=cfg.params.nominal_rate_kbps,
        )


def resolve_spec(
    scenario: Scenario | str | None = None,
    spec: ScenarioSpec | str | None = None,
    protocol: str | None = None,
) -> ScenarioSpec:
    """Resolve grid-point inputs into one concrete :class:`ScenarioSpec`.

    Accepts the modern ``spec`` (object or registry name), the legacy
    ``scenario`` (Table I name string or bare Scenario object — wrapped
    into an ad-hoc spec without deprecation noise, since drivers funnel
    every grid point through here), and an optional ``protocol``
    override from the uniform ``--protocol`` flag.
    """
    from dataclasses import replace

    if spec is not None:
        if isinstance(spec, str):
            spec = scenario_spec_by_name(spec)
        if protocol is not None and protocol != spec.protocol:
            raise ConfigError(
                f"spec {spec.name!r} pins protocol {spec.protocol!r}; "
                f"cannot override with {protocol!r}"
            )
        return spec
    if scenario is None:
        raise ConfigError("execute_point needs spec= or scenario=")
    if isinstance(scenario, str):
        base = scenario_spec_by_name(scenario)
    else:
        base = ScenarioSpec(name=scenario.name, scenario=scenario)
    if protocol is not None and protocol != base.protocol:
        base = replace(base, protocol=protocol)
    return base


def execute_point(
    *,
    scenario: Scenario | str | None = None,
    payload: list[int],
    spec: ScenarioSpec | str | None = None,
    protocol: str | None = None,
    rate_kbps: float | None = None,
    seed: int = 0,
    noise_threads: int = 0,
    warmup_bits: int = 0,
    calibration_samples: int | None = None,
    params: ProtocolParams | None = None,
    machine: MachineConfig | None = None,
    flush_method: str = "clflush",
    faults: dict | None = None,
    resync_attempts: int | None = None,
) -> TransmissionResult:
    """Grid-point entry: one self-contained transmission from plain data.

    This is the execution boundary the :mod:`repro.runner` subsystem
    ships to worker processes, so every argument is either JSON-plain or
    optional — the scenario may be its Table I name string, and the full
    machine/kernel/session stack is constructed *inside* the call (a
    worker never receives live simulator state).  ``warmup_bits``
    transmits a payload prefix first so noise workloads reach the
    steady-state regime the paper measures in (Figure 9).  ``faults``
    is a :meth:`repro.faults.FaultPlan.to_json` dict whose
    simulation-plane events are injected into the transmission.

    Grid points executed back-to-back in one worker process reuse the
    constructed machine (``reuse_machine=True`` + the process-local
    pool) and the calibration memo; both are bit-identical to the cold
    path that :func:`clear_warm_state` restores
    (``tests/test_fast_paths.py`` checks it).

    With segmented execution on (``REPRO_SEGMENT_CYCLES``), the session
    stores resumable checkpoints at segment boundaries under this
    point's content identity; a re-invocation of the same point (the
    runner's crash-retry path, a re-run CLI) resumes from the newest
    stored segment and produces a bit-identical result.
    """
    point_kwargs = {
        "scenario": scenario, "payload": payload, "spec": spec,
        "protocol": protocol, "rate_kbps": rate_kbps, "seed": seed,
        "noise_threads": noise_threads, "warmup_bits": warmup_bits,
        "calibration_samples": calibration_samples, "params": params,
        "machine": machine, "flush_method": flush_method,
        "faults": faults, "resync_attempts": resync_attempts,
    }
    resolved = resolve_spec(scenario, spec, protocol)
    if params is None:
        params = resolved.default_params()
    if rate_kbps is not None:
        params = params.at_rate(rate_kbps)
    store = SegmentStore.for_point(point_kwargs)
    if store is not None:
        blob = store.latest()
        if blob is not None:
            from repro.checkpoint.core import restore

            session, ctx = restore(blob)
            session.segments = store
            result = session.transmit(
                ctx.payload, _resume=ctx, _label=ctx.label
            )
            if ctx.label == "warmup":
                # The checkpoint fell inside the warmup prefix; finish
                # it (result discarded, as in the cold path) and run the
                # main transmission from the recovered state.
                return session.transmit(payload)
            return result
    kwargs: dict = {}
    if calibration_samples is not None:
        kwargs["calibration_samples"] = calibration_samples
    if resync_attempts is not None:
        kwargs["resync_attempts"] = resync_attempts
    session = ChannelSession(SessionConfig(
        spec=resolved,
        params=params,
        seed=seed,
        noise_threads=noise_threads,
        machine=machine if machine is not None else MachineConfig(),
        flush_method=flush_method,
        faults=faults,
        reuse_machine=True,
        **kwargs,
    ))
    session.segments = store
    if warmup_bits:
        session.transmit(payload[:warmup_bits], _label="warmup")
    return session.transmit(payload)


def run_transmission(
    spec: ScenarioSpec | str,
    payload: list[int],
    params: ProtocolParams | None = None,
    seed: int = 0,
    noise_threads: int = 0,
    sharing: str | None = None,
    machine: MachineConfig | None = None,
) -> TransmissionResult:
    """One-shot convenience: build a session and send one payload.

    *spec* is a :class:`~repro.channel.scenarios.ScenarioSpec` or a
    registered scenario name.
    """
    kwargs: dict = {}
    if params is not None:
        kwargs["params"] = params
    if sharing is not None:
        kwargs["sharing"] = sharing
    config = SessionConfig(
        spec=spec,
        seed=seed,
        noise_threads=noise_threads,
        machine=machine if machine is not None else MachineConfig(),
        **kwargs,
    )
    session = ChannelSession(config)
    return session.transmit(payload)
