"""Job scheduling: every submitted grid shares one warm worker pool.

:class:`JobManager` is the service-side counterpart of the standalone
:class:`~repro.runner.Runner`.  Each job's points go through the same
:class:`~repro.runner.executor.PointPolicy` the runner's dispatch loop
drives, so attempts, the ``dispatch`` and ``retry`` events, error
wrapping, the retry decision and the deterministic backoff are written
once, and a point executes under the service with exactly the
semantics it has under ``repro fig8 --jobs N``.  What stays here is the
service's own: waiting with ``asyncio.sleep``, publishing or releasing
the point's reservation, respawning the shared pool once per crash
however many points saw it, and keeping the pool to itself for a
quarantined point (one a crash took), across jobs.  A job always keeps
going: a point out of retries is recorded as failed.

What the manager adds is *cross-job* scheduling:

* **fair share** — a free worker slot goes to the job with the fewest
  points in flight, so a small grid is never starved behind a huge one;
* **work stealing** — among equally-loaded jobs, the slot goes to the
  *longest* pending queue, draining backlogs first;
* **global single-flight** — before a point is dispatched its key is
  reserved in the shared
  :class:`~repro.service.singleflight.SingleFlightIndex`; a key some
  other job (or an external runner on the ``/cache`` routes) is already
  computing parks on an awaited future instead of burning a worker.

Every per-point lifecycle step is emitted as a JSON-plain event dict:
into the job's replayable history, to any live ``/events`` subscriber
queues, and into the :mod:`repro.obs` runner-lifecycle recorder when
tracing is enabled — one schema (see
:func:`repro.runner.progress.outcome_record`) across progress lines,
trace events, and the service stream.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.obs.recorder import runner_now, runner_recorder
from repro.runner.cache import encode_entry
from repro.runner.executor import (
    FailurePolicy,
    PointOutcome,
    PointPolicy,
    Runner,
)
from repro.runner.progress import outcome_record
from repro.runner.spec import ExperimentSpec


def _pool_context() -> multiprocessing.context.BaseContext:
    """A fork+exec start method for the shared pool.

    The service process holds accepted HTTP and cache-protocol sockets.
    Plain ``fork`` duplicates those descriptors into every pool worker,
    so closing a connection on the service side never delivers EOF while
    a worker lives — a client following ``/jobs/<id>/events`` hangs
    after ``job-end`` instead of seeing the stream end.  ``forkserver``
    and ``spawn`` start workers via fork+exec, which drops the sockets
    (they are non-inheritable per PEP 446).
    """
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    if (
        getattr(main, "__spec__", None) is None
        and main_file is not None
        and not os.path.exists(main_file)
    ):
        # A fork+exec child re-runs ``__main__``; a parent started from
        # stdin (``python - <<script``) has no re-importable main, so
        # fall back to plain fork there rather than crash at startup.
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            pass
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # platform without forkserver (e.g. Windows)
        return multiprocessing.get_context("spawn")


def _warm_worker() -> None:
    """No-op task submitted once per slot to force worker creation."""
    return None


@dataclass
class Job:
    """One submitted grid and everything observable about it."""

    id: str
    spec: ExperimentSpec
    keys: list[str]
    policy: PointPolicy = field(init=False)
    status: str = "queued"  # queued | running | done | failed
    pending: deque = field(default_factory=deque)
    in_flight: int = 0
    completed: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    failed: int = 0
    submitted_at: float = field(default_factory=time.monotonic)
    wall_seconds: float = 0.0
    points: list[dict[str, Any] | None] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    subscribers: set = field(default_factory=set)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def total(self) -> int:
        return len(self.spec.points)

    @property
    def finished(self) -> bool:
        return self.completed >= self.total

    def manifest(self) -> dict[str, Any]:
        """The ``GET /jobs/<id>`` body: status, counters, per-point rows."""
        return {
            "id": self.id,
            "experiment": self.spec.experiment,
            "status": self.status,
            "total": self.total,
            "completed": self.completed,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "failed": self.failed,
            "wall_seconds": round(self.wall_seconds, 6),
            "keys": list(self.keys),
            "points": [
                row if row is not None else {"status": "pending"}
                for row in self.points
            ],
        }


class JobManager:
    """Schedule all submitted jobs over one shared process pool."""

    def __init__(
        self,
        index,
        workers: int = 2,
        policy: FailurePolicy | None = None,
        wait_timeout: float = Runner.DEFAULT_WAIT_TIMEOUT,
    ):
        self.index = index
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else FailurePolicy()
        self.wait_timeout = wait_timeout
        self.jobs: dict[str, Job] = {}
        self.pool_respawns = 0
        self._next_job = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        #: Points submitted to the current pool and not yet collected.
        self._in_pool = 0
        #: Whether the one point in the pool is quarantined.
        self._alone = False
        #: Quarantined points waiting for the pool to empty.
        self._solo_waiting = 0
        self._pool_free = asyncio.Event()
        #: pool generation -> points in that pool when it broke.
        self._crash_sizes: dict[int, int] = {}
        self._slots = asyncio.Semaphore(self.workers)
        self._wake = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._scheduler: asyncio.Task | None = None
        self._stopping = False
        self._recorder = runner_recorder()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self._pool is None:
            self._pool = self._new_pool()
            # Spawn every worker now, before the service accepts any
            # connection, so process creation never races a live stream.
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(self._pool, _warm_worker)
                for _ in range(self.workers)
            ))
        if self._scheduler is None:
            self._scheduler = asyncio.ensure_future(self._schedule())

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_pool_context()
        )

    async def stop(self) -> None:
        self._stopping = True
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- submission ------------------------------------------------------

    def submit(
        self, spec: ExperimentSpec, policy: FailurePolicy | None = None
    ) -> Job:
        """Queue *spec*; returns the job immediately (execution is async)."""
        self._next_job += 1
        job = Job(
            id=f"job-{self._next_job}",
            spec=spec,
            keys=[
                point.key(self.index.cache.salt) for point in spec.points
            ],
        )
        job.policy = PointPolicy(
            spec, policy if policy is not None else self.policy,
            partial(self._emit, job), "pool",
        )
        job.points = [None] * job.total
        job.pending = deque(range(job.total))
        self.jobs[job.id] = job
        self._emit(
            job, "job-queued", experiment=spec.experiment, total=job.total,
        )
        self._wake.set()
        return job

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        return {
            "jobs": len(self.jobs),
            "running": sum(
                1 for j in self.jobs.values() if j.status == "running"
            ),
            "workers": self.workers,
            "pool_respawns": self.pool_respawns,
        }

    # -- events ----------------------------------------------------------

    def _emit(self, job: Job, event: str, **data: Any) -> None:
        record = {"event": event, "job": job.id, **data}
        job.events.append(record)
        for queue in list(job.subscribers):
            try:
                queue.put_nowait(record)
            except asyncio.QueueFull:  # pragma: no cover - unbounded
                pass
        if self._recorder is not None:
            self._recorder.emit(runner_now(), "runner", event, dict(record))

    def subscribe(self, job: Job) -> asyncio.Queue:
        """A live event queue, pre-loaded with the job's history."""
        queue: asyncio.Queue = asyncio.Queue()
        for record in job.events:
            queue.put_nowait(record)
        job.subscribers.add(queue)
        return queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        job.subscribers.discard(queue)

    # -- scheduling ------------------------------------------------------

    def _pick(self) -> Job | None:
        """Fair share with stealing: least in flight, then longest queue."""
        candidates = [j for j in self.jobs.values() if j.pending]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda j: (j.in_flight, -len(j.pending), j.submitted_at),
        )

    async def _schedule(self) -> None:
        while not self._stopping:
            await self._slots.acquire()
            job = self._pick()
            while job is None:
                self._slots.release()
                self._wake.clear()
                await self._wake.wait()
                if self._stopping:
                    return
                await self._slots.acquire()
                job = self._pick()
            index = job.pending.popleft()
            if job.status == "queued":
                job.status = "running"
                self._emit(job, "job-start")
            self._claim(job, index)

    def _claim(self, job: Job, point_index: int) -> None:
        """Reserve the point's key and route it: record / await / execute.

        Called holding one worker slot; every path either consumes the
        slot (execution) or releases it (hit, dedupe wait).
        """
        key = job.keys[point_index]
        owner = f"{job.id}/{point_index}"
        status, blob = self.index.reserve(key, owner)
        if status == "hit":
            self._slots.release()
            job.cache_hits += 1
            self._record(job, point_index, cached=True)
            return
        if status == "wait":
            self._slots.release()
            self._emit(job, "cache-wait", index=point_index)
            self._spawn(self._await_point(job, point_index, key, owner))
            return
        self._spawn(self._execute(job, point_index, key, owner))

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _await_point(
        self, job: Job, point_index: int, key: str, owner: str
    ) -> None:
        """Park on another executor's reservation; take over if it dies."""
        job.in_flight += 1
        try:
            status, blob = await self.index.wait(
                key, owner, timeout=self.wait_timeout
            )
        finally:
            job.in_flight -= 1
        if status == "hit":
            job.deduped += 1
            self._record(job, point_index, cached=True, deduped=True)
            return
        # Promoted to owner ("own") or timed out ("pending"): the point
        # now executes here, against a real worker slot.
        self._emit(job, "dedup-takeover", index=point_index, status=status)
        await self._slots.acquire()
        await self._execute(job, point_index, key, owner)

    async def _execute(
        self, job: Job, point_index: int, key: str, owner: str
    ) -> None:
        """Run one point on the shared pool; holds one worker slot."""
        job.in_flight += 1
        policy = job.policy
        try:
            while True:
                await self._enter_pool(point_index in policy.quarantined)
                generation = self._pool_generation
                try:
                    future = asyncio.wrap_future(
                        policy.submit(self._pool, [point_index])
                    )
                    await asyncio.wait([future])
                    ((_, ok, payload, seconds),) = policy.collect(
                        future, [point_index]
                    )
                except BrokenExecutor:
                    self._respawn(generation)
                    ok, payload = False, policy.crashed(
                        point_index, self._crash_sizes[generation] == 1)
                finally:
                    self._leave_pool()
                if ok:
                    break
                if payload is None:
                    continue  # lost beside other points: re-run alone
                if not policy.retriable(point_index):
                    self.index.release(key, owner)
                    self._record(job, point_index, error=payload)
                    return
                await asyncio.sleep(policy.backoff(point_index, payload))
            blob = None
            try:
                blob = encode_entry(payload)
            except Exception:
                pass  # unpicklable: still a success, just uncached
            if blob is not None:
                self.index.publish(key, blob, owner)
            else:
                self.index.release(key, owner)
            job.executed += 1
            self._record(job, point_index, seconds=seconds)
        except asyncio.CancelledError:
            self.index.release(key, owner)
            raise
        finally:
            job.in_flight -= 1
            self._slots.release()
            self._wake.set()

    async def _enter_pool(self, solo: bool) -> None:
        """Wait for a turn on the pool: a quarantined (*solo*) point
        waits until the pool is empty and keeps it to itself; any other
        point waits while one runs or waits."""
        if solo:
            self._solo_waiting += 1
        try:
            while self._alone or (
                self._in_pool if solo else self._solo_waiting
            ):
                self._pool_free.clear()
                await self._pool_free.wait()
        finally:
            if solo:
                self._solo_waiting -= 1
        self._in_pool += 1
        self._alone = solo

    def _leave_pool(self) -> None:
        self._in_pool -= 1
        self._alone = False
        self._pool_free.set()

    def _respawn(self, generation: int) -> None:
        """Replace a broken pool exactly once per crash."""
        if generation != self._pool_generation:
            return  # a concurrent point already respawned it
        # Every point still counted in the pool was submitted to the
        # broken one: none of them has left it yet.
        self._crash_sizes[generation] = self._in_pool
        self._pool_generation += 1
        self.pool_respawns += 1
        broken = self._pool
        self._pool = self._new_pool()
        if broken is not None:
            broken.shutdown(wait=False)

    # -- completion ------------------------------------------------------

    def _record(
        self,
        job: Job,
        point_index: int,
        cached: bool = False,
        deduped: bool = False,
        seconds: float = 0.0,
        error: Exception | None = None,
    ) -> None:
        """File one finished point and emit its event record."""
        outcome = PointOutcome(
            index=point_index, total=job.total,
            point=job.spec.points[point_index], value=None,
            seconds=seconds, cached=cached,
            attempts=1 if cached else job.policy.attempts[point_index],
            error=error, deduped=deduped,
        )
        # The event is the progress module's wire schema; the row is the
        # same record without the stream's framing fields.
        record = outcome_record(job.spec.experiment, outcome)
        job.points[point_index] = {
            "status": "failed" if error else "ok",
            "key": job.keys[point_index],
            **{
                name: value for name, value in record.items()
                if name not in ("event", "experiment", "index", "total")
            },
        }
        if error:
            job.failed += 1
        job.completed += 1
        self._emit(job, **record)
        if job.finished:
            job.wall_seconds = time.monotonic() - job.submitted_at
            job.status = "failed" if job.failed else "done"
            self._emit(
                job, "job-end", status=job.status, executed=job.executed,
                cache_hits=job.cache_hits, deduped=job.deduped,
                failed=job.failed,
                wall_seconds=round(job.wall_seconds, 6),
            )
            job.done_event.set()
        self._wake.set()
