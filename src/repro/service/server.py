""":class:`ExperimentService`: single-flight index + job manager + HTTP.

One asyncio loop hosts the layers behind one listener, sharing a single
:class:`~repro.service.singleflight.SingleFlightIndex` — which is
exactly how the fleet-wide dedupe guarantee arises: every execution
path (HTTP-submitted jobs on the shared pool, external runners on the
``/cache`` routes) must reserve a key in the same index before
computing it.

:func:`ExperimentService.run_in_thread` hosts the whole service on a
daemon thread for tests and the CI smoke job — the same code path
``repro serve`` runs in the foreground.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Any

from repro.runner.cache import ResultCache
from repro.runner.executor import FailurePolicy
from repro.service.http import HttpApi
from repro.service.jobs import JobManager
from repro.service.singleflight import SingleFlightIndex


class ExperimentService:
    """The composed service; ``await start()`` then serve forever."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        host: str = "127.0.0.1",
        http_port: int = 0,
        workers: int = 2,
        policy: FailurePolicy | None = None,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.index = SingleFlightIndex(self.cache)
        self.manager = JobManager(
            self.index, workers=workers, policy=policy
        )
        self.api = HttpApi(self.manager, self.index)
        self.host = host
        self.http_port = http_port
        self._http_server: asyncio.AbstractServer | None = None
        self._http_handlers: set[asyncio.Task] = set()

    async def _handle_http(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._http_handlers.add(task)
        try:
            await self.api.handle(reader, writer)
        except asyncio.CancelledError:
            # stop() ended the connection.  Finish normally: the stream
            # layer logs a cancelled handler task as an unhandled error.
            pass
        finally:
            if task is not None:
                self._http_handlers.discard(task)

    async def start(self) -> None:
        await self.manager.start()
        self._http_server = await asyncio.start_server(
            self._handle_http, host=self.host, port=self.http_port
        )
        self.http_port = self._http_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._http_server is not None:
            self._http_server.close()
        # Kept-alive connections, parked waits and /events streams
        # outlive the listening socket, and from Python 3.12 on
        # wait_closed() waits for them: cancel them first (each handler's
        # sweep releases its connection's keys).
        for task in list(self._http_handlers):
            task.cancel()
        if self._http_handlers:
            await asyncio.gather(
                *self._http_handlers, return_exceptions=True
            )
        self._http_handlers.clear()
        if self._http_server is not None:
            await self._http_server.wait_closed()
            self._http_server = None
        await self.manager.stop()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._http_server is not None
        try:
            await self._http_server.serve_forever()
        finally:
            await self.stop()

    # -- threaded hosting (tests, bench, CI smoke) -----------------------

    def run_in_thread(self) -> "ServiceHandle":
        """Start the service on a daemon thread; returns a stop handle."""
        started = threading.Event()
        failure: list[BaseException] = []
        handle = ServiceHandle(service=self)

        def host() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            handle._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # startup failed: report it
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(
            target=host, name="repro-service", daemon=True
        )
        handle._thread = thread
        thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return handle


@dataclass
class ServiceHandle:
    """A running threaded service: its address plus a blocking ``stop()``."""

    service: ExperimentService
    _loop: asyncio.AbstractEventLoop | None = None
    _thread: threading.Thread | None = None

    @property
    def http_address(self) -> tuple[str, int]:
        return self.service.host, self.service.http_port

    @property
    def base_url(self) -> str:
        host, port = self.http_address
        return f"http://{host}:{port}"

    def stats(self) -> dict[str, Any]:
        """Thread-safe snapshot of the index counters."""
        return self.call(lambda: self.service.index.stats())

    def call(self, fn, timeout: float = 30.0):
        """Run *fn* on the service loop and return its result."""
        assert self._loop is not None
        future: "asyncio.Future[Any]" = asyncio.run_coroutine_threadsafe(
            _call_async(fn), self._loop
        )
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
        self._loop = None
        self._thread = None


async def _call_async(fn):
    result = fn()
    if asyncio.iscoroutine(result):
        return await result
    return result
