"""The cache server: :class:`SingleFlightIndex` over a local socket.

External runner processes (and the concurrent clients of
``tests/test_service.py``) join the service's single-flight domain through
this server — N worker pools and M concurrent jobs deduplicate points
globally without sharing memory.

Wire protocol: newline-delimited JSON frames over a localhost TCP
connection.  Requests carry ``op`` plus operands; blobs travel
base64-encoded (entry blobs are small, kilobytes of compressed pickle).
One response frame per request, matched by order (the client is
synchronous per connection); the long-poll ``wait`` op parks server-side
on the index's future, so the connection itself is the blocking wait.

Each connection gets an owner token (``conn-<n>``); when it drops, every
reservation it still owns is released and its first waiter promoted —
a crashed client can never wedge the fleet.
"""

from __future__ import annotations

import asyncio
import base64
import json
from typing import Any

from repro.service.singleflight import SingleFlightIndex

#: Reject absurd frames early (a blob is kilobytes; 64 MiB is a bug).
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def blob_to_wire(blob: bytes | None) -> str | None:
    return None if blob is None else base64.b64encode(blob).decode("ascii")


def blob_from_wire(text: str | None) -> bytes | None:
    return None if text is None else base64.b64decode(text)


class CacheServer:
    """Serve a :class:`SingleFlightIndex` on a localhost TCP socket."""

    def __init__(self, index: SingleFlightIndex, host: str = "127.0.0.1",
                 port: int = 0):
        self.index = index
        self.host = host
        self.port = port
        self.connections = 0
        self._server: asyncio.AbstractServer | None = None
        self._next_conn = 0
        self._handlers: set[asyncio.Task] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 after start."""
        return self.host, self.port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open connections park in readline()/wait() indefinitely; they
        # must be cancelled or they outlive the event loop noisily.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_conn += 1
        self.connections += 1
        owner = f"conn-{self._next_conn}"
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                request: Any = None
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request, owner)
                except Exception as exc:  # malformed frame: report, keep conn
                    response = {"status": "error", "error": str(exc)}
                response["id"] = (
                    request.get("id") if isinstance(request, dict) else None
                )
                try:
                    writer.write(encode_frame(response))
                    await writer.drain()
                except (ConnectionError, ConnectionResetError):
                    break
        finally:
            self.connections -= 1
            if task is not None:
                self._handlers.discard(task)
            # The disconnect sweep: owned keys hand over to their first
            # waiter instead of leaking a dead reservation.
            self.index.release_owner(owner)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _dispatch(
        self, request: dict[str, Any], owner: str
    ) -> dict[str, Any]:
        op = request.get("op")
        key = request.get("key", "")
        if op == "ping":
            return {"status": "ok", "owner": owner}
        if op == "lookup":
            blob = self.index.lookup(key)
            return {
                "status": "hit" if blob is not None else "miss",
                "blob": blob_to_wire(blob),
            }
        if op == "reserve":
            status, blob = self.index.reserve(key, owner)
            return {"status": status, "blob": blob_to_wire(blob)}
        if op == "wait":
            timeout = request.get("timeout")
            status, blob = await self.index.wait(
                key, owner, timeout=timeout
            )
            return {"status": status, "blob": blob_to_wire(blob)}
        if op == "publish":
            blob = blob_from_wire(request.get("blob"))
            if blob is None:
                return {"status": "error", "error": "publish without blob"}
            self.index.publish(key, blob, owner)
            return {"status": "ok"}
        if op == "release":
            self.index.release(key, owner)
            return {"status": "ok"}
        if op == "release_all":
            released = self.index.release_owner(owner)
            return {"status": "ok", "released": released}
        if op == "stats":
            return {"status": "ok", "stats": self.index.stats()}
        return {"status": "error", "error": f"unknown op {op!r}"}
