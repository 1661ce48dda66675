"""The spy: Algorithm 2 of the paper.

A single-threaded observer that repeatedly flushes the shared block and
times a reload one sampling slot later.  Three phases: poll for the
start of a transmission, record latencies until the channel goes quiet,
then hand the samples to the decoder (:mod:`repro.channel.decoder`).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field

from repro.channel.config import ProtocolParams
from repro.channel.decoder import BitDecoder, Sample
from repro.errors import SyncTimeoutError
from repro.sim.events import Delay, Fence, Flush, Load, Rdtsc
from repro.sim.thread import Cpu


@dataclass
class SpyResult:
    """Everything the spy recorded during one reception."""

    samples: list[Sample] = field(default_factory=list)
    started_at: float | None = None
    finished_at: float | None = None
    timed_out: bool = False

    @property
    def reception_cycles(self) -> float:
        """Duration of the reception window in cycles."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


def eviction_flusher(eviction_set: list[int]) -> Callable[[Cpu], Generator]:
    """A flush primitive built from LLC set eviction (Section VI-B).

    Loading every way of the target's LLC set evicts the shared block
    from the inclusive LLC, back-invalidating all private copies on the
    socket — the paper's clflush alternative for environments where
    ``clflush`` is unavailable.  Slower than clflush (one load per way),
    so evict-based channels run at lower slot rates.
    """

    def flusher(cpu: Cpu) -> Generator:
        for vaddr in eviction_set:
            yield from cpu.load(vaddr)

    return flusher


def spy_program(
    result: SpyResult,
    decoder: BitDecoder,
    params: ProtocolParams,
    block_va: int,
    flusher: Callable[[Cpu], Generator] | None = None,
    eviction_set: list[int] | None = None,
) -> Callable[[Cpu], Generator]:
    """Build the spy's thread program.

    The spy performs ``flush B; wait Ts; timed load B`` every slot.  It
    starts recording at the first boundary-band (Tb) observation and
    stops after ``params.end_run`` consecutive samples fall outside both
    Tc and Tb — the trojan going dark (Algorithm 2's N).

    ``flusher`` replaces the default clflush with an alternative flush
    primitive (see :func:`eviction_flusher`); ``eviction_set`` does the
    same from plain data (the flusher closure is built here), which is
    the form a spy's :class:`~repro.checkpoint.ProgramSpec` records —
    closures don't pickle, address lists do.
    """
    if flusher is None and eviction_set is not None:
        flusher = eviction_flusher(list(eviction_set))

    # Slot pacing state: the spy anchors its sampling grid on absolute
    # deadlines so its period equals the agreed slot duration regardless
    # of how long each timed load happened to take.  (A real spy does
    # the same: it spins on rdtsc until the next slot boundary.)
    pacing = {"next_slot": None}

    # Hot loop: one sample_once per slot for the whole reception.  The
    # fixed ops (rdtsc, flush, the fence/load/fence of a timed load, the
    # constant post-flush wait) are pre-built frozen instances yielded
    # directly — same op/result protocol as the Cpu helpers without a
    # helper-generator allocation per primitive.  Only the pacing delay
    # is allocated per slot (its duration varies).
    rdtsc_op = Rdtsc()
    fence_op = Fence()
    flush_op = Flush(block_va)
    load_op = Load(block_va)
    wait_op = Delay(params.spy_wait_cycles)
    label = decoder.label

    def sample_once(cpu: Cpu) -> Generator:
        now = (yield rdtsc_op).timestamp
        target = pacing["next_slot"]
        if target is None:
            target = now
        if target > now:
            yield Delay(target - now)
        else:
            # We overran (a slow load or a preemption); re-anchor.
            target = now
        pacing["next_slot"] = target + params.slot_cycles
        if flusher is None:
            yield flush_op
        else:
            yield from flusher(cpu)
        yield wait_op
        # Fence-bracketed load, as the paper's rdtsc-timed measurement.
        yield fence_op
        load = yield load_op
        yield fence_op
        return Sample(
            timestamp=load.timestamp,
            latency=load.latency,
            label=label(load.latency),
            path=load.path,
        )

    def program(cpu: Cpu) -> Generator:
        phase, polls, quiet = 1, 0, 0
        # Phase 1: poll for the start of transmission.
        while phase == 1:
            sample = yield from sample_once(cpu)
            if sample.label == "b":
                result.started_at = sample.timestamp
                result.samples.append(sample)
                phase = 2
                continue
            polls += 1
            if polls >= params.max_poll_slots:
                result.timed_out = True
                raise SyncTimeoutError(
                    f"spy saw no transmission start in {polls} slots"
                )
        # Phase 2: reception.
        while quiet < params.end_run:
            sample = yield from sample_once(cpu)
            result.samples.append(sample)
            quiet = quiet + 1 if sample.label == "x" else 0
            if len(result.samples) >= params.max_reception_slots:
                # The channel never went quiet (e.g. a defender keeps
                # the block cached); give up with what we have.
                result.timed_out = True
                result.finished_at = sample.timestamp
                return
        # Drop the trailing quiet run; it is not part of the payload.
        del result.samples[-params.end_run:]
        result.finished_at = (
            result.samples[-1].timestamp if result.samples else None
        )

    return program
