"""The parallel, cache-aware, failure-hardened grid executor.

:class:`Runner` takes an :class:`~repro.runner.spec.ExperimentSpec` and
produces one value per point, in spec order, regardless of how the work
was scheduled:

1. every point is first looked up in the on-disk result cache;
2. the misses go through one dispatch loop, which submits *chunks* of
   points to an executor while fewer than a window's worth are in
   flight.  At ``jobs=1`` the executor is in-process: one point per
   chunk, a window of one, spec order, each point run on the calling
   thread.  At ``jobs>1`` it is a
   :class:`~concurrent.futures.ProcessPoolExecutor` with a window of
   two chunks per worker, and chunks are seed-grouped — one future
   executes several points back-to-back in the same worker, amortizing
   the IPC round-trip and letting the worker's process-local
   calibration memo and warm machine pool hit on every point after the
   chunk's first (``chunk_size``, auto-sized from grid size and worker
   count).  Retries, fail-fast abort, keep-going and single-flight
   waits are the same code in both modes;
3. fresh values are written back to the cache and slotted into their
   original grid positions.

Because each point carries its full RNG seed in its params (see
:mod:`repro.runner.spec`), the values are bit-identical whether they
came from the cache, a worker process, or the in-process executor —
``--jobs 4`` must and does reproduce ``--jobs 1`` exactly.

A :class:`FailurePolicy` makes long sweeps survivable instead of
all-or-nothing:

* failed points retry up to ``retries`` extra attempts with exponential
  backoff whose jitter is *deterministic* (derived from the policy seed
  and the point, so two runs of the same failing grid sleep identically);
* each attempt can carry a wall-clock ``timeout``, enforced inside the
  executing process via ``SIGALRM`` so a wedged simulation cannot hang
  the sweep;
* a killed worker (``BrokenProcessPool``) no longer poisons the run —
  the pool is respawned and only the in-flight points are re-dispatched,
  each charged one attempt (in-process there is no worker to kill, so an
  injected ``worker_kill`` is shipped as a ``transient`` fault);
* with ``keep_going`` the sweep runs to completion and failed points
  become typed error outcomes in the :class:`RunReport` instead of an
  exception;
* whatever happens, every completed value is flushed to the cache
  before the runner raises, so an interrupted grid resumes where it
  died instead of recomputing survivors.

Deterministic adversity for all of the above comes from
:class:`repro.faults.FaultInjector` via the ``injector`` hook.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from collections import deque
from collections.abc import Callable, Mapping
from concurrent.futures import Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import (
    IncompleteRunError,
    PointExecutionError,
    PointTimeoutError,
    WorkerCrashError,
)
from repro.faults.harness import apply_worker_fault
from repro.obs.recorder import runner_now, runner_recorder
from repro.runner.cache import ResultCache
from repro.runner.spec import (
    ExperimentSpec,
    Point,
    chunk_pending,
    resolve_callable,
)
from repro.sim.rng import derive_seed

#: Progress callback signature: called once per completed point.
ProgressFn = Callable[["PointOutcome"], None]


@dataclass(frozen=True)
class FailurePolicy:
    """How the runner responds when a point fails.

    The default policy is the historical behavior: no retries, no
    timeout, fail the sweep on the first error.  ``backoff_seconds``
    grows exponentially per attempt and is jittered *deterministically*
    — the jitter for (point, attempt) comes from
    :func:`~repro.sim.rng.derive_seed`, never from wall-clock entropy,
    so replaying a failing sweep sleeps the exact same schedule.
    """

    retries: int = 0
    timeout: float | None = None
    keep_going: bool = False
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Sleep before retrying *key* after failed attempt *attempt* (1-based)."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter <= 0.0:
            return base
        unit = derive_seed(self.seed, "backoff", str(key), attempt) / 0x7FFFFFFF
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class PointOutcome:
    """One finished point: its value (or error) plus scheduling metadata."""

    index: int
    total: int
    point: Point
    value: Any
    seconds: float
    cached: bool
    attempts: int = 1
    error: PointExecutionError | None = None
    #: The value arrived from another client's concurrent execution via
    #: a single-flight cache (reserved elsewhere, awaited here) rather
    #: than from disk or local compute.  Always ``cached`` too.
    deduped: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class RunReport:
    """Everything a driver or the CLI wants to know about one sweep."""

    spec: ExperimentSpec
    outcomes: list[PointOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    pool_respawns: int = 0

    @property
    def values(self) -> list[Any]:
        """Point values in spec order (what ``collect()`` consumes).

        Raises :class:`~repro.errors.IncompleteRunError` if any point is
        missing or failed — a shorter, silently misaligned list would
        let ``collect()`` zip values against the wrong parameters.  Use
        :meth:`padded_values` for partial (keep-going) reports.
        """
        by_index = {o.index: o for o in self.outcomes}
        missing = [
            point.describe()
            for index, point in enumerate(self.spec.points)
            if by_index.get(index) is None or by_index[index].failed
        ]
        if missing:
            raise IncompleteRunError(self.spec.experiment, missing)
        return [by_index[i].value for i in range(len(self.spec.points))]

    def padded_values(self, fill: Any = None) -> list[Any]:
        """Values in spec order with *fill* in failed/missing slots."""
        by_index = {o.index: o for o in self.outcomes if not o.failed}
        return [
            by_index[i].value if i in by_index else fill
            for i in range(len(self.spec.points))
        ]

    @property
    def errors(self) -> list[PointOutcome]:
        """The failed outcomes, in spec order."""
        return [o for o in self.outcomes if o.failed]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def deduped_hits(self) -> int:
        """Points whose value came from another client's execution."""
        return sum(1 for o in self.outcomes if o.deduped)

    @property
    def point_seconds(self) -> float:
        """Total compute time across points (≥ wall time when parallel)."""
        return sum(o.seconds for o in self.outcomes)


def _async_exc_injector():
    """CPython's cross-thread exception hook, or ``None`` elsewhere."""
    try:
        import ctypes

        return ctypes.pythonapi.PyThreadState_SetAsyncExc, ctypes
    except (ImportError, AttributeError):  # pragma: no cover - non-CPython
        return None


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`PointTimeoutError` if the body runs past *seconds*.

    Preferred mechanism is ``SIGALRM``, which only works on the main
    thread of a POSIX process — exactly where pool workers and the
    in-process executor run points.  Anywhere else (Windows, a point
    driven from a helper thread), a portable watchdog takes over: a
    ``threading.Timer`` that injects :class:`PointTimeoutError` into the
    executing thread via CPython's async-exception hook.  The watchdog
    fires at the next bytecode boundary, so it interrupts a wedged
    *simulation* (pure Python) but not a blocking C call — the same
    practical coverage the alarm gives.  If neither mechanism exists
    (a non-CPython embedder), a warning marks the point as effectively
    deadline-less instead of silently dropping the limit.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        def _alarm(signum, frame):
            raise PointTimeoutError(
                f"point exceeded its {seconds:g}s wall-clock limit"
            )

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    hook = _async_exc_injector()
    if hook is None:  # pragma: no cover - non-CPython
        warnings.warn(
            f"point timeout of {seconds:g}s requested, but neither SIGALRM "
            "(non-main thread) nor the CPython async-exception watchdog is "
            "available; the point runs without a wall-clock limit",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return

    set_async_exc, ctypes = hook
    ident = threading.get_ident()

    def _fire():
        set_async_exc(ctypes.c_ulong(ident), ctypes.py_object(PointTimeoutError))

    timer = threading.Timer(float(seconds), _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def _timed_point(
    fn_path: str,
    params: Mapping[str, Any],
    timeout: float | None = None,
    fault: Mapping[str, Any] | None = None,
) -> tuple[Any, float]:
    """Worker entry: execute one point, returning (value, seconds).

    Top-level so :mod:`concurrent.futures` can ship it to a forked or
    spawned worker by qualified name; everything heavy (machine, kernel,
    session) is constructed *inside* the call from the plain params.
    The optional injected *fault* applies under the same deadline as the
    point itself, so a ``slow`` fault trips a configured timeout.
    """
    start = time.perf_counter()
    with _deadline(timeout):
        if fault is not None:
            apply_worker_fault(fault)
        value = resolve_callable(fn_path)(**dict(params))
    return value, time.perf_counter() - start


def _timed_chunk(
    items: list[tuple[int, str, Mapping[str, Any], Mapping[str, Any] | None]],
    timeout: float | None = None,
) -> list[tuple[int, bool, Any, float]]:
    """Worker entry: execute a chunk of points in one process.

    *items* is ``(grid_index, fn_path, params, fault)`` per point.  Each
    point runs under its **own** deadline and its own try/except, so a
    failing or timed-out point never takes the rest of the chunk with it
    — its raw exception travels back in the result tuple for the parent
    to wrap, retry, or record exactly as it would a per-point future.
    (A ``worker_kill`` fault still kills the whole process and therefore
    the whole chunk; the parent charges every point of a lost chunk one
    attempt, matching the lost-future accounting.)

    Returns ``(grid_index, ok, value_or_exception, seconds)`` per point,
    in chunk order.
    """
    out: list[tuple[int, bool, Any, float]] = []
    for index, fn_path, params, fault in items:
        try:
            value, seconds = _timed_point(fn_path, params, timeout, fault)
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            out.append((index, False, exc, 0.0))
        else:
            out.append((index, True, value, seconds))
    return out


#: Upper bound on auto-sized chunks: big enough to amortize dispatch and
#: calibration, small enough that one straggler chunk cannot idle the
#: rest of the pool at the tail of a grid.
AUTO_CHUNK_CAP = 8


def auto_chunk_size(pending: int, workers: int) -> int:
    """Default chunk size for *pending* points on *workers* processes.

    Targets at least ~4 chunks per worker so the pool load-balances,
    capped at :data:`AUTO_CHUNK_CAP`.  Small grids (fewer points than
    ``4 × workers``) get chunk size 1 — there, per-point dispatch costs
    nothing and finer granularity retires the grid sooner.
    """
    return max(1, min(AUTO_CHUNK_CAP, pending // (workers * 4)))


class _InlineExecutor(Executor):
    """The ``jobs=1`` executor: each call runs at once in the caller.

    ``submit`` returns an already finished future, so a point runs on
    the calling (main) thread under the same ``SIGALRM`` deadline it
    would get in a pool worker.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - delivered via the future
            future.set_exception(exc)
        return future


class Runner:
    """Execute experiment grids with parallelism, caching, and retries.

    Every run with points to execute goes through one dispatch loop;
    ``jobs`` only picks its executor (in-process, or a process pool) and
    its in-flight window.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs each point in-process,
        one at a time in spec order; ``0`` or ``None`` uses every
        available CPU.
    cache:
        A :class:`ResultCache`, or ``None`` to disable memoization.
    progress:
        Optional callback receiving a :class:`PointOutcome` as each
        point finishes (cache hits report immediately; failed points
        report their error outcome).
    policy:
        A :class:`FailurePolicy`; the default fails fast with no
        retries, matching the pre-policy behavior.
    injector:
        Optional :class:`repro.faults.FaultInjector` supplying
        deterministic harness faults (tests and ``--inject-faults``).
    chunk_size:
        Points per pool future.  ``None`` (default) auto-sizes via
        :func:`auto_chunk_size`.  Ignored when ``jobs=1`` (in-process
        dispatch has no IPC to amortize, so every chunk is one point).
    wait_timeout:
        With a *single-flight* cache (``cache.single_flight`` true, e.g.
        :class:`repro.service.RemoteCache`), how long to wait for a
        point another client reserved before taking it over and
        executing locally.  Dedupe is best-effort: a takeover can only
        recompute the same deterministic value.
    """

    #: Default single-flight wait before a takeover (seconds).
    DEFAULT_WAIT_TIMEOUT = 600.0

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        progress: ProgressFn | None = None,
        policy: FailurePolicy | None = None,
        injector: Any = None,
        chunk_size: int | None = None,
        wait_timeout: float | None = None,
    ):
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        self.cache = cache
        self.progress = progress
        self.policy = policy if policy is not None else FailurePolicy()
        self.injector = injector
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.wait_timeout = (
            self.DEFAULT_WAIT_TIMEOUT if wait_timeout is None
            else float(wait_timeout)
        )
        # Single-flight caches expose reserve/wait_for/release on top of
        # the plain lookup/store contract; the flag is bound once so the
        # ordinary ResultCache path stays exactly as before.
        self._single_flight = bool(getattr(cache, "single_flight", False))
        # Bound once: None when tracing is disabled, so the scheduling
        # paths carry a single attribute test and no environment reads.
        self._recorder = runner_recorder()

    def _emit(self, name: str, **data) -> None:
        """Record one runner-lifecycle trace event (no-op when untraced)."""
        if self._recorder is not None:
            self._recorder.emit(runner_now(), "runner", name, data)

    # -- public API -----------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunReport:
        """Execute every point of *spec*; outcomes come back in order.

        With the default policy the first failure aborts the sweep with
        :class:`~repro.errors.PointExecutionError` — but only after
        every already-running point has finished and been flushed to the
        cache, so a re-run resumes instead of recomputing survivors.
        Under ``keep_going`` failures become error outcomes instead.
        """
        started = time.perf_counter()
        total = len(spec.points)
        slots: list[PointOutcome | None] = [None] * total
        report = RunReport(spec=spec)
        self._emit(
            "run-start", experiment=spec.experiment, points=total,
            jobs=self.jobs,
        )

        pending: list[int] = []
        waiting: list[int] = []
        for index, point in enumerate(spec.points):
            if self.cache is not None:
                if self._single_flight:
                    # Reserve instead of looking up: a miss makes this
                    # runner the key's single executor fleet-wide, and
                    # a key someone else is already computing is parked
                    # to be awaited (never recomputed) below.
                    status, value = self.cache.reserve(point)
                    if status == "hit":
                        self._emit("cache-hit", index=index)
                        slots[index] = self._completed(
                            index, total, point, value, 0.0, cached=True
                        )
                        continue
                    if status == "wait":
                        self._emit("cache-wait", index=index)
                        waiting.append(index)
                        continue
                else:
                    hit, value = self.cache.lookup(point)
                    if hit:
                        self._emit("cache-hit", index=index)
                        slots[index] = self._completed(
                            index, total, point, value, 0.0, cached=True
                        )
                        continue
            pending.append(index)

        try:
            if pending or waiting:
                self._dispatch(spec, pending, slots, total, report, waiting)
        finally:
            # Whatever happened, reservations this runner still owns
            # (aborted before executing, crashed mid-grid) are handed
            # back so remote waiters are promoted instead of timing out.
            release_all = getattr(self.cache, "release_all", None)
            if self._single_flight and release_all is not None:
                release_all()

        report.outcomes = [s for s in slots if s is not None]
        report.wall_seconds = time.perf_counter() - started
        self._emit(
            "run-end", experiment=spec.experiment,
            completed=len(report.outcomes),
            respawns=report.pool_respawns,
        )
        return report

    # -- internals ------------------------------------------------------

    def _fault_for(self, index: int, attempt: int):
        """The planned fault event for a 0-based attempt, if any."""
        if self.injector is None:
            return None
        return self.injector.event_for(index, attempt)

    def _dispatch(
        self,
        spec: ExperimentSpec,
        pending: list[int],
        slots: list[PointOutcome | None],
        total: int,
        report: RunReport,
        waiting: list[int],
    ) -> None:
        """Run *pending* and await *waiting*; the only execution loop.

        Chunks wait in a queue and go to the executor while fewer than
        ``depth`` futures are in flight; an abort stops taking chunks
        from the queue and lets the in-flight ones finish and cache.
        """
        policy = self.policy
        inline = self.jobs == 1
        if inline:
            # One point at a time in spec order: a failure is seen
            # before the next point starts, and progress fires per point.
            mode, depth, size = "inline", 1, 1
            make_executor: Callable[[], Executor] = _InlineExecutor
        else:
            workers = min(self.jobs, max(1, len(pending) + len(waiting)))
            mode, depth, size = "pool", 2 * workers, self.chunk_size
            if size is None:
                size = auto_chunk_size(max(1, len(pending)), workers)
            make_executor = partial(ProcessPoolExecutor, max_workers=workers)
        queue = deque(chunk_pending(spec.points, pending, size))
        # attempts started per index; waiting indices are charged only
        # if a dedupe wait falls through to a local takeover.
        attempts = dict.fromkeys([*pending, *waiting], 0)
        futures: dict[Any, list[int]] = {}  # future -> chunk grid indices
        misfired: list[int] = []  # dispatches that hit an already-broken pool
        first_error: PointExecutionError | None = None
        aborting = False
        executor = make_executor()

        def submit(indices: list[int]) -> None:
            items = []
            for index in indices:
                point = spec.points[index]
                event = self._fault_for(index, attempts[index])
                fault = event.to_json() if event is not None else None
                if inline and fault and fault["kind"] == "worker_kill":
                    # No worker to kill in-process: ship it as transient,
                    # so not even a deferred kill can SIGKILL the parent.
                    fault = {**fault, "kind": "transient"}
                attempts[index] += 1
                items.append((index, point.fn, dict(point.params), fault))
            self._emit("dispatch", indices=list(indices), mode=mode)
            try:
                future = executor.submit(_timed_chunk, items, policy.timeout)
            except BrokenExecutor:
                # The pool broke between crash detection and this dispatch
                # (a worker died moments ago).  The attempts are charged;
                # the points join the next crash batch for re-dispatch.
                misfired.extend(indices)
                return
            futures[future] = list(indices)

        def retriable(index: int) -> bool:
            return not aborting and attempts[index] <= policy.retries

        def terminal(index: int, error: PointExecutionError) -> None:
            """Record a point whose retry budget is spent."""
            nonlocal first_error, aborting
            self._release(spec.points[index])
            if policy.keep_going:
                slots[index] = self._completed(
                    index, total, spec.points[index], None, 0.0,
                    cached=False, attempts=attempts[index], error=error,
                )
                return
            if first_error is None:
                first_error = error
            # Let in-flight points finish (their values get cached, so
            # the re-run resumes), but start nothing still queued.
            aborting = True
            queue.clear()

        def point_failed(
            index: int,
            exc: Exception,
            retry: list[tuple[int, PointExecutionError]],
        ) -> None:
            error = PointExecutionError(spec.points[index].describe(), exc)
            error.__cause__ = exc
            if retriable(index):
                retry.append((index, error))
            else:
                terminal(index, error)

        try:
            while queue or futures or misfired or waiting:
                while queue and len(futures) < depth and not misfired:
                    submit(queue.popleft())
                if futures:
                    # With dedupe waits outstanding, poll instead of
                    # blocking so remote publishes are picked up even
                    # while local chunks grind.
                    done, _ = wait(
                        set(futures),
                        timeout=0.25 if waiting else None,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    done = set()
                crashed: list[int] = misfired[:]
                misfired.clear()
                retry: list[tuple[int, PointExecutionError]] = []
                for future in done:
                    indices = futures.pop(future)
                    try:
                        results = future.result()
                    except BrokenExecutor:
                        crashed.extend(indices)
                    except Exception as exc:
                        # The chunk machinery itself failed (a value or
                        # exception that would not pickle back, say);
                        # every point of the chunk is charged.
                        for index in indices:
                            point_failed(index, exc, retry)
                    else:
                        for index, ok, payload, seconds in results:
                            if not ok:
                                point_failed(index, payload, retry)
                                continue
                            point = spec.points[index]
                            self._store(point, payload, index)
                            slots[index] = self._completed(
                                index, total, point, payload, seconds,
                                cached=False, attempts=attempts[index],
                            )
                if crashed:
                    # The pool is broken: every in-flight dispatch is
                    # lost.  Charge each lost point one attempt, respawn
                    # the pool, and re-dispatch only those points.
                    for indices in futures.values():
                        crashed.extend(indices)
                    futures.clear()
                    executor.shutdown(wait=False)
                    report.pool_respawns += 1
                    self._emit("pool-respawn", lost=sorted(crashed))
                    executor = make_executor()
                    for index in sorted(crashed):
                        point = spec.points[index]
                        cause = WorkerCrashError(
                            f"pool worker died while executing point "
                            f"{point.describe()!r}"
                        )
                        error = PointExecutionError(point.describe(), cause)
                        error.__cause__ = cause
                        if retriable(index):
                            retry.append((index, error))
                        else:
                            terminal(index, error)
                # Resubmits happen only after crash handling, so a retry
                # can never be dispatched to a pool that just broke.
                # Retries go out as singleton chunks: the point already
                # failed once, so it gets its own future (and its own
                # deterministic backoff) rather than risking a batch.
                for index, error in sorted(retry):
                    if aborting:
                        terminal(index, error)
                        continue
                    self._emit(
                        "retry", index=index, attempt=attempts[index],
                        error=type(error.cause).__name__,
                    )
                    time.sleep(
                        policy.backoff_seconds(
                            spec.points[index].describe(), attempts[index]
                        )
                    )
                    submit([index])
                if aborting:
                    # Abandoned waits hold no reservation; just stop
                    # watching them so the drain loop can exit.
                    waiting.clear()
                elif waiting:
                    # When local work is still in flight or queued, poll
                    # each wait without blocking; once nothing is left,
                    # block up to wait_timeout so an abandoned
                    # reservation cannot wedge the sweep.
                    block = not (futures or misfired or queue)
                    still: list[int] = []
                    for index in waiting:
                        point = spec.points[index]
                        status, value = self.cache.wait_for(
                            point,
                            timeout=self.wait_timeout if block else 0.0,
                        )
                        if status == "hit":
                            self._emit("cache-dedup", index=index)
                            slots[index] = self._completed(
                                index, total, point, value, 0.0,
                                cached=True, deduped=True,
                            )
                        elif status == "own" or block:
                            # Promoted to owner (remote executor failed)
                            # or the blocking wait timed out: execute
                            # locally as a singleton chunk.
                            self._emit(
                                "dedup-takeover", index=index, status=status,
                            )
                            submit([index])
                        else:
                            still.append(index)
                    waiting[:] = still
        finally:
            executor.shutdown(wait=True)
        if first_error is not None:
            raise first_error

    def _store(self, point: Point, value: Any, index: int) -> None:
        if self.cache is not None:
            self.cache.store(point, value)
            if self.injector is not None:
                self.injector.maybe_tear(self.cache, index, point)

    def _release(self, point: Point) -> None:
        """Give up a single-flight reservation after a terminal failure.

        Releasing promptly lets a remote waiter take the point over
        instead of blocking until this run's final ``release_all``.
        """
        if not self._single_flight:
            return
        release = getattr(self.cache, "release", None)
        if release is not None:
            release(point)

    def _completed(
        self,
        index: int,
        total: int,
        point: Point,
        value: Any,
        seconds: float,
        cached: bool,
        attempts: int = 1,
        error: PointExecutionError | None = None,
        deduped: bool = False,
    ) -> PointOutcome:
        outcome = PointOutcome(
            index=index,
            total=total,
            point=point,
            value=value,
            seconds=seconds,
            cached=cached,
            attempts=attempts,
            error=error,
            deduped=deduped,
        )
        self._emit(
            "point-failed" if error is not None else "point-complete",
            index=index, cached=cached, attempts=attempts,
            seconds=round(seconds, 6), deduped=deduped,
        )
        if self.progress is not None:
            self.progress(outcome)
        return outcome


def execute(spec: ExperimentSpec, runner: Runner | None = None) -> list[Any]:
    """Run *spec* and return its point values in grid order.

    The default runner is in-process and cache-less — the mode the drivers'
    programmatic ``run()`` API uses so library calls stay hermetic; the
    CLI passes a configured :class:`Runner` instead.
    """
    if runner is None:
        runner = Runner(jobs=1, cache=None)
    return runner.run(spec).values
