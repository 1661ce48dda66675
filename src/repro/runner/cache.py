"""Content-addressed on-disk memoization of completed grid points.

Cache key = SHA-256 of the point's canonical JSON ``(fn, params)``
salted with :data:`repro.__version__` — touching only analysis or
rendering code leaves keys unchanged (re-running a figure is
near-instant), while bumping the package version invalidates every
entry wholesale (simulation semantics may have changed).

Values are arbitrary picklable Python objects (floats, result dicts,
:class:`~repro.channel.session.TransmissionResult` instances, numpy
arrays).  Entries are written atomically (temp file + rename) so a
killed run never leaves a torn entry.  Corrupt entries (bad pickle
bytes, or a blob without the entry frame) are deleted and recomputed;
transiently unreadable entries (``OSError``) are reported as misses but
left in place.  Orphaned ``*.tmp`` files from killed runs are swept on
construction.

Entry format: a 4-byte magic ``RPC4`` followed by the value's pickle.
This is the only format :func:`decode_entry` accepts; an entry in any
other frame (the older ``RPC3`` and ``RPC2`` ones included) is corrupt
to :meth:`ResultCache.lookup`, which drops it and recomputes the point.

Layout::

    <cache_dir>/<salt-dir>/<key[:2]>/<key>.pkl

where ``<salt-dir>`` names the version salt the entries were keyed
under.  Every top-level directory is one generation; grouping by salt
makes stale generations enumerable, which is what
:meth:`ResultCache.stats` and :meth:`ResultCache.gc` (the ``repro
cache`` CLI) operate on.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.runner.spec import Point

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()

#: Minimum age (seconds) before an orphaned ``*.tmp`` file is swept.
#: Younger temps may belong to a store() in progress in another process.
STALE_TMP_SECONDS = 60.0

#: Magic prefix of every cache entry.
ENTRY_MAGIC = b"RPC4"


def _salt_dirname(salt: str) -> str:
    """A filesystem-safe directory name for *salt*."""
    return re.sub(r"[^A-Za-z0-9._+-]", "_", salt) or "_"


def encode_entry(value: Any) -> bytes:
    """Serialize *value* into the on-disk entry format."""
    return ENTRY_MAGIC + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_entry(blob: bytes) -> Any:
    """Inverse of :func:`encode_entry`; raises on an unframed blob."""
    if not blob.startswith(ENTRY_MAGIC):
        raise ValueError("not a framed cache entry")
    return pickle.loads(blob[len(ENTRY_MAGIC):])


def version_salt() -> str:
    """The cache-key salt: the installed repro version."""
    from repro import __version__

    return f"repro-{__version__}"


def default_cache_dir() -> Path:
    """Resolve the cache root: $REPRO_CACHE_DIR, else XDG cache."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


class ResultCache:
    """On-disk point-result store under a single root directory."""

    def __init__(self, root: str | Path | None = None,
                 salt: str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt if salt is not None else version_salt()
        #: The current generation's directory name, and its path as a
        #: string: lookups join strings, with no pathlib or re per key.
        self._generation = _salt_dirname(self.salt)
        self._salt_dir = os.path.join(self.root, self._generation)
        self.hits = 0
        self.misses = 0
        self.swept_tmp = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Delete orphaned ``*.tmp`` files left by killed runs.

        A worker killed between ``mkstemp`` and ``os.replace`` leaks its
        temp file forever (the next run writes a fresh one).  Swept on
        construction, with an age grace so a concurrent writer's
        in-flight temp is left alone.  Returns the number removed.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        cutoff = time.time() - STALE_TMP_SECONDS
        try:
            for tmp in self.root.rglob("*.tmp"):
                try:
                    # The age guard protects a concurrent store() whose
                    # temp is about to be renamed into place: a fresh
                    # temp is never touched.  A temp that disappears
                    # between the listing and the stat/unlink (the
                    # writer's os.replace won the race) is simply not
                    # ours to sweep.
                    if tmp.stat().st_mtime >= cutoff:
                        continue
                    tmp.unlink()
                    removed += 1
                except FileNotFoundError:
                    continue
                except OSError:
                    continue
        except OSError:
            pass
        return removed

    def key_for(self, point: Point) -> str:
        """The content hash addressing *point* under this cache's salt."""
        return point.key(self.salt)

    def _shard(self, key: str) -> str:
        return f"{self._salt_dir}{os.sep}{key[:2]}"

    def _entry(self, key: str) -> str:
        return f"{self._salt_dir}{os.sep}{key[:2]}{os.sep}{key}.pkl"

    def path_for_key(self, key: str) -> Path:
        """On-disk entry path for a raw content *key* (current salt)."""
        return Path(self._entry(key))

    def path_for(self, point: Point) -> Path:
        return self.path_for_key(self.key_for(point))

    # -- raw key-addressed blob access (the service's cache routes) -----

    def lookup_blob(self, key: str) -> bytes | None:
        """Raw entry bytes for *key*, or ``None`` on miss.

        The service (:mod:`repro.service`) moves entries as opaque
        framed blobs — same keys, same on-disk encoding — so a blob
        fetched here can be shipped over HTTP and decoded by any client
        with :func:`decode_entry`.  Corrupt entries cannot be
        detected without decoding, so unlike :meth:`lookup` this never
        deletes; transiently unreadable entries are misses.
        """
        try:
            with open(self._entry(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def store_blob(self, key: str, blob: bytes) -> None:
        """Persist raw entry bytes for *key* atomically; best-effort."""
        shard = self._shard(key)
        name = f"{key}.pkl"
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=name, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, f"{shard}{os.sep}{name}")
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache dir must not fail the caller.
            pass

    def lookup(self, point: Point) -> tuple[bool, Any]:
        """Return ``(hit, value)``; a corrupt entry counts as a miss."""
        path = self._entry(self.key_for(point))
        value = _MISS
        try:
            with open(path, "rb") as fh:
                value = decode_entry(fh.read())
        except OSError:
            # Missing entry, or a *transient* read failure (EACCES from
            # a permission hiccup, EIO, NFS timeouts).  The entry may be
            # perfectly good — report a miss but never delete it.
            pass
        except Exception:
            # Torn write or stale class layout.  Unpickling corrupt
            # bytes can raise nearly anything (UnpicklingError,
            # EOFError, ValueError from bad opcodes, AttributeError or
            # ImportError from renamed classes, ...): drop the entry.
            try:
                os.unlink(path)
            except OSError:
                pass
        if value is _MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, point: Point, value: Any) -> None:
        """Persist *value* for *point* atomically; best-effort on errors."""
        try:
            blob = encode_entry(value)
        except pickle.PicklingError:
            return
        self.store_blob(self.key_for(point), blob)

    def evict(self, point: Point) -> bool:
        """Remove the entry for *point*; returns whether one existed."""
        try:
            os.unlink(self._entry(self.key_for(point)))
            return True
        except OSError:
            return False

    # -- maintenance (the ``repro cache`` CLI) --------------------------

    def _generations(self) -> dict[str, list[Path]]:
        """Entry files grouped by top-level (generation) directory name."""
        generations: dict[str, list[Path]] = {}
        if not self.root.is_dir():
            return generations
        try:
            children = sorted(self.root.iterdir())
        except OSError:
            return generations
        for child in children:
            if not child.is_dir():
                continue
            generations[child.name] = [
                p for p in child.rglob("*.pkl") if p.is_file()
            ]
        return generations

    def stats(self) -> dict:
        """Entry counts and byte totals per generation.

        The ``current`` generation is the one this cache reads and
        writes (its salt's directory); every other top-level directory
        is a stale generation, dead weight :meth:`gc` can reclaim.
        """
        current = self._generation
        out = {
            "root": str(self.root),
            "salt": self.salt,
            "entries": 0,
            "bytes": 0,
            "generations": {},
        }
        for name, files in self._generations().items():
            entries = total = 0
            for path in files:
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            info = {
                "entries": entries,
                "bytes": total,
                "current": name == current,
            }
            out["generations"][name] = info
            out["entries"] += info["entries"]
            out["bytes"] += info["bytes"]
        return out

    def gc(self, max_age_seconds: float | None = None) -> tuple[int, int]:
        """Prune every stale generation; returns (entries, bytes) freed.

        Removes entries of every other generation (other version salts,
        and any other top-level directory) — all unreachable by this
        cache's lookups — along with their emptied directories.  The
        current generation is never touched by default; with
        ``max_age_seconds``, entries of *any* generation (the current one
        included) whose mtime is older than the cutoff are reaped too —
        the knob that keeps long-lived caches (checkpoint segments
        especially, which are superseded but never overwritten once a
        run completes) from growing without bound.
        """
        current = self._generation
        cutoff = None
        if max_age_seconds is not None:
            if max_age_seconds < 0:
                raise ValueError(
                    f"max_age_seconds must be >= 0, got {max_age_seconds}"
                )
            cutoff = time.time() - float(max_age_seconds)
        removed = 0
        freed = 0
        for name, files in self._generations().items():
            for path in files:
                # One stat decides both the age check and the freed-byte
                # accounting; a second stat-then-unlink window would let
                # a concurrent store() rename a *fresh* blob into place
                # after an age check made against the old bytes.
                try:
                    st = path.stat()
                except OSError:
                    continue
                if name == current:
                    if cutoff is None:
                        continue
                    if st.st_mtime >= cutoff:
                        continue
                    # Guard against the rename race: re-check the mtime
                    # immediately before the unlink.  A writer that
                    # refreshed the entry between the two stats makes it
                    # current again, so it must survive this sweep.
                    try:
                        if path.stat().st_mtime_ns != st.st_mtime_ns:
                            continue
                    except FileNotFoundError:
                        continue  # already reaped by a concurrent gc
                    except OSError:
                        continue
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue  # vanished mid-sweep: nothing was freed
                except OSError:
                    continue
                removed += 1
                freed += st.st_size
        # Sweep now-empty generation directories (bottom-up).
        try:
            candidates = sorted(
                (p for p in self.root.rglob("*") if p.is_dir()),
                key=lambda p: len(p.parts),
                reverse=True,
            )
            for directory in candidates:
                if directory.name == current and directory.parent == self.root:
                    continue
                try:
                    directory.rmdir()  # fails unless empty
                except OSError:
                    pass
        except OSError:
            pass
        return removed, freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache(root={str(self.root)!r}, "
                f"hits={self.hits}, misses={self.misses})")
