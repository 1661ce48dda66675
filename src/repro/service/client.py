""":class:`ServiceClient` and :class:`RemoteCache`: the service's callers.

Synchronous and stdlib-only.  Every call is one HTTP round-trip on a
kept-alive :class:`HttpConnection` to a running
:class:`~repro.service.server.ExperimentService`.
:class:`ServiceClient` covers the job API behind ``repro submit`` and
``repro jobs``, plus :meth:`~ServiceClient.events` (a generator over
the JSON-lines stream) and :meth:`~ServiceClient.point_value` (fetches
the raw entry blob and decodes it with the cache's own
:func:`~repro.runner.cache.decode_entry`, which is how a client proves
bit-identity against a local run).

:class:`RemoteCache` is a drop-in for
:class:`~repro.runner.cache.ResultCache` built on the ``/cache``
routes.  It additionally exposes the single-flight surface
(``reserve`` / ``wait_for`` / ``release`` / ``release_all``) and sets
``single_flight = True``, which flips the
:class:`~repro.runner.Runner` into reservation mode: overlapping grids
run by *different processes* then execute each unique point exactly
once between them.  Keys and blobs are byte-identical to the local
cache's (same salt, same :func:`~repro.runner.cache.encode_entry`
framing), so a value computed through the service decodes to the same
object a local run produces — bit-identical by construction.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections.abc import Iterator
from typing import Any, BinaryIO

from repro.errors import CacheProtocolError, ServiceError
from repro.runner.cache import decode_entry, encode_entry, version_salt
from repro.runner.spec import ExperimentSpec, Point


def _split_url(base_url: str) -> tuple[str, int]:
    """``http://host:port`` as ``(host, port)``."""
    scheme, _, hostport = base_url.rstrip("/").partition("://")
    host, _, port = hostport.rpartition(":")
    if scheme != "http" or not host or not port.isdigit():
        raise ServiceError(f"service URL {base_url!r} is not http://host:port")
    return host.strip("[]"), int(port)


def _error_text(body: bytes) -> str:
    """The ``error`` field of a JSON error body, or ``""``."""
    try:
        return str(json.loads(body).get("error", ""))
    except (ValueError, AttributeError):
        return ""


class HttpConnection:
    """One kept-alive HTTP/1.1 connection, framed by hand.

    Writes the request line, ``Host`` and ``Content-Length``; reads the
    status line, the headers and a ``Content-Length`` body.  A lock
    serializes round-trips, so one connection may be shared by a
    runner's main loop and a progress thread without interleaving
    requests.  The socket opens on first use; a failed round-trip closes
    it and raises :class:`ServiceError`, and the next call reconnects.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file: BinaryIO | None = None

    def close(self) -> None:
        """Drop the socket; the server sweeps this connection's claims."""
        if self._sock is not None and self._file is not None:
            self._file.close()
            self._sock.close()
        self._sock = self._file = None

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "application/json",
        extra_time: float | None = 0.0,
        stream: bool = False,
    ) -> tuple[int, dict[str, str], Any]:
        """One round-trip: ``(status, headers, body)``.

        *extra_time* stretches this call's socket deadline past the
        connection timeout (``None``: no deadline), so a server-side long
        poll is never cut off by the transport.  With *stream* the body
        is an iterator over its lines, read until the server closes.
        """
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body:
            head += f"Content-Type: {content_type}\r\n"
        head += f"Content-Length: {len(body)}\r\n\r\n"
        deadline = (
            None if self.timeout is None or extra_time is None
            else self.timeout + extra_time
        )
        with self._lock:
            try:
                if self._sock is None or self._file is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                    self._sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                    self._file = self._sock.makefile("rb")
                sock, reader = self._sock, self._file
                if sock.gettimeout() != deadline:
                    sock.settimeout(deadline)
                sock.sendall(head.encode("latin-1") + body)
                line = reader.readline()
                if not line:
                    raise ConnectionError("connection closed")
                status = int(line.split()[1])
                headers: dict[str, str] = {}
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                if stream:
                    return status, headers, iter(reader)
                length = int(headers.get("content-length", "0"))
                data = reader.read(length)
                if len(data) != length:
                    raise ConnectionError("response body cut short")
            except (OSError, ValueError, IndexError) as exc:
                self.close()
                raise ServiceError(
                    f"service at http://{self.host}:{self.port} "
                    f"unreachable: {exc}"
                )
            if headers.get("connection") == "close":
                self.close()
            return status, headers, data


class ServiceClient:
    """Talk to the service at ``base_url`` (e.g. http://127.0.0.1:8765)."""

    def __init__(self, base_url: str, timeout: float | None = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.host, self.port = _split_url(self.base_url)
        self.connection = HttpConnection(self.host, self.port, timeout)

    def close(self) -> None:
        self.connection.close()

    # -- plumbing --------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, bytes]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        status, _, data = self.connection.request(method, path, body)
        return status, data

    def _json(self, method: str, path: str, payload: Any = None) -> Any:
        status, body = self._request(method, path, payload)
        try:
            data = json.loads(body)
        except ValueError:
            raise ServiceError(
                f"{method} {path}: non-JSON response (HTTP {status})"
            )
        if status >= 400:
            raise ServiceError(
                f"{method} {path}: HTTP {status}: "
                f"{data.get('error', 'unknown error')}"
            )
        return data

    # -- the API ---------------------------------------------------------

    def submit_spec(
        self,
        spec: ExperimentSpec,
        retries: int | None = None,
        timeout: float | None = None,
    ) -> str:
        """Submit a built grid; returns the job id."""
        payload: dict[str, Any] = {"spec": spec.to_json()}
        if retries is not None:
            payload["retries"] = retries
        if timeout is not None:
            payload["timeout"] = timeout
        return self._json("POST", "/jobs", payload)["id"]

    def submit_driver(self, driver: str, **params: Any) -> str:
        """Submit a registered driver's grid by name; returns the job id."""
        return self._json(
            "POST", "/jobs", {"driver": driver, "params": params}
        )["id"]

    def submit_job(self, payload: dict[str, Any]) -> str:
        """Submit a raw ``POST /jobs`` body; returns the job id."""
        return self._json("POST", "/jobs", payload)["id"]

    def jobs(self) -> list[dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def stats(self) -> dict[str, Any]:
        return self._json("GET", "/stats")

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield the job's JSON-lines events; returns after ``job-end``."""
        # The stream ends its connection, so it gets one of its own.
        connection = HttpConnection(self.host, self.port, self.timeout)
        try:
            status, _, lines = connection.request(
                "GET", f"/jobs/{job_id}/events", stream=True
            )
            if status >= 400:
                raise ServiceError(f"events for {job_id}: HTTP {status}")
            for line in lines:
                if line.strip():
                    yield json.loads(line)
        finally:
            connection.close()

    def wait(self, job_id: str, poll: float = 0.1,
             timeout: float = 600.0) -> dict[str, Any]:
        """Poll until the job leaves the running states; returns manifest."""
        deadline = time.monotonic() + timeout
        while True:
            manifest = self.job(job_id)
            if manifest["status"] in ("done", "failed"):
                return manifest
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {manifest['status']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll)

    def point_value(self, job_id: str, index: int) -> Any:
        """The decoded value of one finished point (raw blob fetch)."""
        status, body = self._request(
            "GET", f"/jobs/{job_id}/points/{index}"
        )
        if status >= 400:
            raise ServiceError(
                f"point {index} of {job_id}: HTTP {status}: "
                f"{_error_text(body)}"
            )
        return decode_entry(body)

    def values(self, job_id: str) -> list[Any]:
        """All point values of a finished job, in grid order."""
        manifest = self.job(job_id)
        return [
            self.point_value(job_id, i) for i in range(manifest["total"])
        ]


class RemoteCache:
    """A :class:`ResultCache`-shaped view of the service's cache routes.

    Parameters
    ----------
    base_url:
        The service's address (``ServiceHandle.base_url``), e.g.
        ``http://127.0.0.1:8765``.
    salt:
        Content-key salt; defaults to the installed repro version, the
        same default the local cache uses — **must** match the server's
        backing cache for keys to collide (that collision is the whole
        point).
    timeout:
        Socket-level timeout for a single round-trip.  ``wait_for``
        passes its own application-level timeout through to the server
        and stretches the socket deadline past it.

    The connection is this client's single-flight identity: closing it
    (or losing it) releases every reservation it still holds.
    """

    #: Runner probes this to switch into reserve/wait single-flight mode.
    single_flight = True

    def __init__(self, base_url: str, salt: str | None = None,
                 timeout: float | None = 30.0):
        self.client = ServiceClient(base_url, timeout=timeout)
        self.salt = salt if salt is not None else version_salt()

    def close(self) -> None:
        """Drop the connection; owned reservations release server-side."""
        self.client.close()

    def key_for(self, point: Point) -> str:
        return point.key(self.salt)

    def _call(
        self,
        method: str,
        route: str,
        answers: tuple[str, ...],
        blob: bytes = b"",
        extra_time: float | None = 0.0,
    ) -> tuple[str, Any]:
        """One ``/cache/<route>`` round-trip: the index's answer and, on
        a hit, the decoded value.

        A corrupt entry comes back as ``("own", None)``: a miss, as in
        the local cache, which the caller recomputes rather than wedge
        the grid.
        """
        path = f"/cache/{route}"
        status, headers, body = self.client.connection.request(
            method, path, blob, "application/octet-stream", extra_time
        )
        answer = headers.get("x-cache-status")
        if status != 200 or answer not in answers:
            raise CacheProtocolError(
                f"{method} {path}: HTTP {status}, answer {answer!r}: "
                f"{_error_text(body)}"
            )
        if answer != "hit":
            return answer, None
        try:
            return "hit", decode_entry(body)
        except Exception:
            return "own", None

    # -- the ResultCache contract ---------------------------------------

    def lookup(self, point: Point) -> tuple[bool, Any]:
        answer, value = self._call("GET", self.key_for(point), ("hit", "miss"))
        return answer == "hit", value

    def store(self, point: Point, value: Any) -> None:
        """Publish *point*'s value — this is what wakes remote waiters."""
        try:
            blob = encode_entry(value)
        except Exception:
            return  # unpicklable values are simply not cached
        self._call("PUT", self.key_for(point), ("ok",), blob)

    # -- the single-flight surface the Runner uses -----------------------

    def reserve(self, point: Point) -> tuple[str, Any]:
        """``("hit", value)`` / ``("own", None)`` / ``("wait", None)``."""
        return self._call(
            "POST", f"{self.key_for(point)}/reserve", ("hit", "own", "wait")
        )

    def wait_for(
        self, point: Point, timeout: float | None = None
    ) -> tuple[str, Any]:
        """``("hit", value)`` / ``("own", None)`` / ``("pending", None)``.

        The server parks this request until the blob is published, this
        client is promoted to owner, or *timeout* elapses.  The socket
        deadline stretches past the application timeout so the long
        poll is never cut off mid-wait by the transport.
        """
        route = f"{self.key_for(point)}/wait"
        if timeout is not None:
            route += f"?timeout={timeout}"
        return self._call(
            "POST", route, ("hit", "own", "pending"), extra_time=timeout
        )

    def release(self, point: Point) -> None:
        try:
            self._call("POST", f"{self.key_for(point)}/release", ("ok",))
        except ServiceError:
            pass  # a dead server released us on disconnect already

    def release_all(self) -> None:
        try:
            self._call("POST", "release-all", ("ok",))
        except ServiceError:
            pass

    def server_stats(self) -> dict[str, Any]:
        """The index's global counters (the dedupe proof)."""
        return self.client.stats()["cache"]
