"""The single-flight index: one execution per unique key.

:class:`SingleFlightIndex` sits between every execution path in the service
(local job scheduler, remote HTTP clients) and the on-disk
:class:`~repro.runner.cache.ResultCache`.  It speaks raw content keys
and opaque entry blobs — the exact bytes the cache stores — so a blob
published by one client decodes identically for every other.

Reservations implement **single-flight**: the first caller to reserve a
missing key becomes its owner (it must execute and publish, or release);
every later caller for the same key parks on an :class:`asyncio.Future`
and receives the published blob without executing anything.  If an owner
fails or disconnects, the first waiter is *promoted* to owner — dedupe
is an optimization, never a liveness dependency.

Everything runs on one asyncio loop, so the reservation dict needs no
locks.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.runner.cache import ResultCache

@dataclass
class _Reservation:
    """One in-flight key: its owner plus the callers awaiting the blob."""

    owner: str
    #: ``(waiter_owner_token, future)`` pairs; futures resolve to
    #: ``("hit", blob)`` on publish or ``("own", None)`` on promotion.
    waiters: list[tuple[str, asyncio.Future]] = field(default_factory=list)


class SingleFlightIndex:
    """Single-flight reservations over a :class:`ResultCache`.

    Owners are opaque string tokens (an HTTP connection id, a job/point
    id) so one misbehaving client's reservations can be swept with
    :meth:`release_owner` when it disconnects.
    """

    def __init__(self, cache: ResultCache):
        self.cache = cache
        self._reservations: dict[str, _Reservation] = {}
        self.counters: dict[str, int] = {
            "hits": 0,          # reserve/lookup found the blob on disk
            "misses": 0,        # reserve had to create a reservation
            "reserved": 0,      # callers that became a key's owner
            "coalesced": 0,     # callers parked behind an existing owner
            "published": 0,     # blobs published (== unique executions)
            "failed": 0,        # owners that released without publishing
            "promoted": 0,      # waiters promoted to owner after a failure
        }

    # -- lookup / reserve ------------------------------------------------

    def lookup(self, key: str) -> bytes | None:
        """Raw blob for *key*, or ``None``; counts a hit/miss."""
        blob = self.cache.lookup_blob(key)
        if blob is None:
            self.counters["misses"] += 1
        else:
            self.counters["hits"] += 1
        return blob

    def reserve(self, key: str, owner: str) -> tuple[str, bytes | None]:
        """Claim *key* for *owner*: ``("hit", blob)``, ``("own", None)``
        or ``("wait", None)``.

        Exactly one concurrent caller per key gets ``"own"`` — that
        caller must eventually :meth:`publish` or :meth:`release`.
        Reserving a key already owned by *owner* is idempotent.
        """
        blob = self.cache.lookup_blob(key)
        if blob is not None:
            self.counters["hits"] += 1
            return "hit", blob
        reservation = self._reservations.get(key)
        if reservation is None:
            self._reservations[key] = _Reservation(owner=owner)
            self.counters["misses"] += 1
            self.counters["reserved"] += 1
            return "own", None
        if reservation.owner == owner:
            return "own", None
        self.counters["coalesced"] += 1
        return "wait", None

    async def wait(
        self, key: str, owner: str, timeout: float | None = None
    ) -> tuple[str, bytes | None]:
        """Await *key*'s blob: ``("hit", blob)``, ``("own", None)`` when
        promoted to owner, or ``("pending", None)`` on timeout.

        A caller whose wait times out keeps its claim in the queue; it
        may execute locally (takeover) and publish — publish accepts
        non-owners precisely for this recovery path.
        """
        blob = self.cache.lookup_blob(key)
        if blob is not None:
            return "hit", blob
        reservation = self._reservations.get(key)
        if reservation is None:
            # The owner vanished between this caller's reserve and wait
            # (published-then-evicted is indistinguishable from failed):
            # promote the caller rather than deadlock.
            self._reservations[key] = _Reservation(owner=owner)
            self.counters["promoted"] += 1
            return "own", None
        if reservation.owner == owner:
            return "own", None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        reservation.waiters.append((owner, future))
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=timeout
            )
        except asyncio.TimeoutError:
            if future.done():
                return future.result()
            self._discard_waiter(reservation, owner, future)
            return "pending", None
        except asyncio.CancelledError:
            if not future.done():
                self._discard_waiter(reservation, owner, future)
            raise

    @staticmethod
    def _discard_waiter(
        reservation: _Reservation, owner: str, future: asyncio.Future
    ) -> None:
        """Drop a dead waiter pair; tolerate a concurrent sweep."""
        try:
            reservation.waiters.remove((owner, future))
        except ValueError:
            pass
        future.cancel()

    # -- publish / release -----------------------------------------------

    def publish(self, key: str, blob: bytes, owner: str) -> None:
        """Persist *key*'s blob and wake every waiter with it.

        Deliberately accepts publishes from non-owners: a waiter that
        timed out and recomputed locally produces the *same* bytes (the
        grid is deterministic), so racing publishes are idempotent.
        """
        self.cache.store_blob(key, blob)
        self.counters["published"] += 1
        reservation = self._reservations.pop(key, None)
        if reservation is None:
            return
        for _, future in reservation.waiters:
            if not future.done():
                future.set_result(("hit", blob))

    def release(self, key: str, owner: str) -> None:
        """Give up *owner*'s claim on *key* without publishing.

        The first live waiter is promoted to owner (its pending wait
        resolves ``("own", None)`` and it executes the point itself);
        with no waiters the reservation simply disappears.
        """
        reservation = self._reservations.get(key)
        if reservation is None or reservation.owner != owner:
            return
        self.counters["failed"] += 1
        while reservation.waiters:
            waiter_owner, future = reservation.waiters.pop(0)
            if future.done():
                continue
            reservation.owner = waiter_owner
            self.counters["promoted"] += 1
            future.set_result(("own", None))
            return
        del self._reservations[key]

    def release_owner(self, owner: str) -> int:
        """Sweep every reservation and parked wait held by *owner*.

        Called when a client's connection ends: its owned keys hand
        over to their first waiter, and its parked waits are cancelled
        so they never leak futures.  Returns the number of owned keys
        released.
        """
        released = 0
        for key, reservation in list(self._reservations.items()):
            reservation.waiters = [
                (who, future)
                for who, future in reservation.waiters
                if who != owner or future.done()
            ]
            if reservation.owner == owner:
                released += 1
                self.release(key, owner)
        return released

    # -- stats -----------------------------------------------------------

    def in_flight(self) -> int:
        """Active reservations."""
        return len(self._reservations)

    def stats(self) -> dict[str, Any]:
        """Counters plus in-flight reservations (the CI smoke's proof)."""
        return {
            **self.counters,
            "in_flight": self.in_flight(),
            "cache_root": str(self.cache.root),
        }
