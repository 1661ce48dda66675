"""A minimal asyncio HTTP/1.1 layer for the service.  Stdlib only.

Just enough HTTP for the service's routes: request line + headers +
``Content-Length`` body in, status + headers + body out.  A connection
serves requests until the client sends ``Connection: close``, hangs up,
or breaks the framing: a bad request line or ``Content-Length`` answers
400, an oversized body 413, and both close the connection, since the
stream position is then unknown.  ``/events`` streams JSON lines as the
job progresses, then ends its connection.

Two route families share the one listener: the job API (``/jobs``,
``/stats``, ``/healthz``; JSON in and out) and the single-flight cache,
one route per :class:`~repro.service.singleflight.SingleFlightIndex`
operation: ``GET /cache/<key>`` (lookup), ``PUT /cache/<key>``
(publish), ``POST /cache/<key>/reserve``, ``POST
/cache/<key>/wait?timeout=T`` (a long poll), ``POST
/cache/<key>/release`` and ``POST /cache/release-all``.  Blobs travel as
raw ``application/octet-stream`` bodies; the index's answer (``hit``,
``miss``, ``own``, ``wait``, ``pending`` or ``ok``) rides in the
``X-Cache-Status`` header.  A key that is not a content hash (64
lowercase hex characters, what ``Point.key`` produces) answers 400
before it reaches the index or the disk.

Each connection is one single-flight owner (``conn-<n>``): when it ends,
for whatever reason, its reservations hand over to their first waiters
and its parked waits are dropped, so a crashed client can never wedge
the fleet.

This is deliberately not a framework: no routing tables, no middleware
— explicit ``if`` arms, so the whole attack surface is readable in a
few screens.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from dataclasses import replace
from typing import Any, NamedTuple

from repro.errors import SpecError
from repro.runner.spec import spec_from_json

#: Sanity cap on request bodies (a 64-pt grid spec is ~20 KiB, an entry
#: blob kilobytes).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A cache key is a content hash, the form ``Point.key`` produces.
CACHE_KEY = re.compile(r"[0-9a-f]{64}")

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class FramingError(Exception):
    """The request stream is malformed: answer *status*, then hang up."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes

    @property
    def wants_close(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" not in connection
        return "close" in connection


class Reply(NamedTuple):
    """One framed response; ``close`` ends the connection after it."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    cache_status: str | None = None
    close: bool = False

    def encode(self, close: bool) -> bytes:
        head = [
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        if self.cache_status is not None:
            head.append(f"X-Cache-Status: {self.cache_status}")
        if close:
            head.append("Connection: close")
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + self.body


def _json(status: int, payload: Any) -> Reply:
    return Reply(status, json.dumps(payload, sort_keys=True).encode("utf-8"))


def _answer(status: str, blob: bytes | None = None) -> Reply:
    """An index answer: the word in ``X-Cache-Status``, the blob as body."""
    return Reply(200, blob or b"", "application/octet-stream", status)


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request, or ``None`` when the client hung up.

    Raises :class:`FramingError` for a stream this layer cannot frame:
    400 for a bad request line, header line or ``Content-Length`` (or a
    chunked body), 413 for a body over :data:`MAX_BODY_BYTES`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    except asyncio.LimitOverrunError:
        raise FramingError(400, "request head too long")
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    try:
        method, target, version = request_line.split()
    except ValueError:
        raise FramingError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise FramingError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise FramingError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise FramingError(400, "only Content-Length bodies are supported")
    text = headers.get("content-length", "0")
    if not (text.isascii() and text.isdigit()):
        raise FramingError(400, f"bad Content-Length {text!r}")
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise FramingError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return Request(method, target, version, headers, body)


class HttpApi:
    """The service's routes: the job API and the single-flight cache."""

    def __init__(self, manager, index):
        self.manager = manager
        self.index = index
        self._connections = 0

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's requests until it ends."""
        self._connections += 1
        owner = f"conn-{self._connections}"
        try:
            while True:
                try:
                    request = await read_request(reader)
                except FramingError as exc:
                    writer.write(
                        _json(exc.status, {"error": str(exc)}).encode(True)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                reply = await self._route(request, owner, reader, writer)
                if reply is None:  # a streamed response ended the connection
                    return
                close = reply.close or request.wants_close
                writer.write(reply.encode(close))
                await writer.drain()
                if close:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # surface, don't kill the server
            try:
                writer.write(_json(500, {"error": str(exc)}).encode(True))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            # The disconnect sweep: owned keys hand over to their first
            # waiter instead of leaking a dead reservation.
            self.index.release_owner(owner)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        request: Request,
        owner: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Reply | None:
        method = request.method
        path, _, query = request.target.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts[:1] == ["cache"]:
            return await self._cache(
                method, parts[1:], query, request.body, owner, reader
            )
        if method == "POST" and parts == ["jobs"]:
            return self._submit(request.body)
        if method == "GET" and parts == ["jobs"]:
            return _json(200, {
                "jobs": [
                    {
                        "id": job.id,
                        "experiment": job.spec.experiment,
                        "status": job.status,
                        "completed": job.completed,
                        "total": job.total,
                    }
                    for job in self.manager.jobs.values()
                ],
            })
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = self.manager.get(parts[1])
            if job is None:
                return _json(404, {"error": "no such job"})
            return _json(200, job.manifest())
        if (
            method == "GET" and len(parts) == 3
            and parts[0] == "jobs" and parts[2] == "events"
        ):
            return await self._stream_events(parts[1], writer)
        if (
            method == "GET" and len(parts) == 4
            and parts[0] == "jobs" and parts[2] == "points"
        ):
            return self._point_blob(parts[1], parts[3])
        if method == "GET" and parts == ["stats"]:
            return _json(200, {
                "cache": self.index.stats(),
                "jobs": self.manager.stats(),
            })
        if method == "GET" and parts == ["healthz"]:
            return _json(200, {"status": "ok"})
        if parts and parts[0] in ("jobs", "stats", "healthz"):
            return _json(405, {"error": "method not allowed"})
        return _json(404, {"error": "no such route"})

    # -- the single-flight cache -----------------------------------------

    async def _cache(
        self,
        method: str,
        parts: list[str],
        query: str,
        body: bytes,
        owner: str,
        reader: asyncio.StreamReader,
    ) -> Reply:
        if parts == ["release-all"]:
            if method != "POST":
                return _json(405, {"error": "method not allowed"})
            self.index.release_owner(owner)
            return _answer("ok")
        key = parts[0] if parts else ""
        if not CACHE_KEY.fullmatch(key):
            return _json(400, {
                "error": "cache key must be 64 lowercase hex characters",
            })
        op = "/".join(parts[1:])
        if method == "GET" and op == "":
            blob = self.index.lookup(key)
            return _answer("miss" if blob is None else "hit", blob)
        if method == "PUT" and op == "":
            if not body:
                return _json(400, {"error": "publish without blob"})
            self.index.publish(key, body, owner)
            return _answer("ok")
        if method == "POST" and op == "reserve":
            return _answer(*self.index.reserve(key, owner))
        if method == "POST" and op == "wait":
            return await self._wait(key, owner, query, reader)
        if method == "POST" and op == "release":
            self.index.release(key, owner)
            return _answer("ok")
        if op in ("", "reserve", "wait", "release"):
            return _json(405, {"error": "method not allowed"})
        return _json(404, {"error": "no such route"})

    async def _wait(
        self,
        key: str,
        owner: str,
        query: str,
        reader: asyncio.StreamReader,
    ) -> Reply:
        """The long poll: park on the index while watching the client.

        A client that hangs up mid-wait leaves the waiter queue at once,
        so a later release never promotes a dead waiter.  Bytes sent
        behind a parked wait end the connection as well: the stream is
        no longer this loop's to frame.
        """
        params = dict(
            item.partition("=")[::2] for item in query.split("&") if item
        )
        try:
            timeout = float(params["timeout"]) if "timeout" in params else None
        except ValueError:
            timeout = math.nan
        if timeout is not None and not 0 <= timeout < math.inf:
            return _json(400, {"error": "timeout must be a number >= 0"})
        parked = asyncio.ensure_future(
            self.index.wait(key, owner, timeout=timeout)
        )
        watch = asyncio.ensure_future(reader.read(1))
        try:
            await asyncio.wait(
                (parked, watch), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            answered, hung_up = parked.done(), watch.done()
            parked.cancel()  # a cancelled wait removes its waiter
            watch.cancel()
            # Let both settle: the reader serves one read at a time.
            await asyncio.wait((parked, watch))
        if hung_up:
            watch.exception()  # a reset hangs up like EOF
        if not answered:
            raise ConnectionResetError("client hung up during a wait")
        return _answer(*parked.result())._replace(close=hung_up)

    # -- the job API -----------------------------------------------------

    def _submit(self, body: bytes) -> Reply:
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            return _json(400, {"error": f"malformed JSON: {exc}"})
        if not isinstance(payload, dict):
            return _json(400, {"error": "body must be an object"})
        try:
            if "spec" in payload:
                spec = spec_from_json(payload["spec"])
            elif "driver" in payload:
                spec = self._driver_spec(
                    payload["driver"], payload.get("params") or {}
                )
            else:
                return _json(400, {"error": "body needs 'spec' or 'driver'"})
        except SpecError as exc:
            return _json(400, {"error": str(exc)})
        # The body overrides only the fields it names; the rest keep the
        # server's defaults (``repro serve --retries/--timeout``).
        overrides = {
            k: payload[k] for k in ("retries", "timeout") if k in payload
        }
        if "retries" in overrides:
            overrides["retries"] = int(overrides["retries"])
        policy = replace(self.manager.policy, **overrides)
        job = self.manager.submit(spec, policy=policy)
        return _json(201, {
            "id": job.id,
            "experiment": job.spec.experiment,
            "total": job.total,
            "status": job.status,
        })

    @staticmethod
    def _driver_spec(driver: Any, params: Any):
        from repro.experiments import REGISTRY

        if not isinstance(driver, str) or driver not in REGISTRY:
            raise SpecError(
                f"unknown driver {driver!r}; registered: "
                f"{', '.join(sorted(REGISTRY))}"
            )
        if not isinstance(params, dict):
            raise SpecError("driver params must be an object")
        try:
            return REGISTRY[driver].build_spec(**params)
        except SpecError:
            raise
        except Exception as exc:
            raise SpecError(f"driver {driver!r} rejected params: {exc}")

    def _point_blob(self, job_id: str, index_text: str) -> Reply:
        job = self.manager.get(job_id)
        if job is None:
            return _json(404, {"error": "no such job"})
        try:
            point_index = int(index_text)
            key = job.keys[point_index]
        except (ValueError, IndexError):
            return _json(404, {"error": "no such point"})
        blob = self.index.cache.lookup_blob(key)
        if blob is None:
            return _json(404, {
                "error": "point has no published result (pending or failed)",
            })
        return Reply(200, blob, "application/octet-stream")

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> Reply | None:
        """JSON-lines: replayed history, then live events until job-end."""
        job = self.manager.get(job_id)
        if job is None:
            return _json(404, {"error": "no such job"})
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        queue = self.manager.subscribe(job)
        try:
            while True:
                if queue.empty() and job.done_event.is_set():
                    break
                record = await queue.get()
                line = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ) + "\n"
                writer.write(line.encode("utf-8"))
                await writer.drain()
                if record.get("event") == "job-end":
                    break
        except (ConnectionError, OSError):
            pass  # client went away mid-stream
        finally:
            self.manager.unsubscribe(job, queue)
        return None
