"""On-disk experiment-result cache keyed by content hash.

A figure sweep recomputes the same (workload, config) cells across
benchmark scripts and CI jobs.  This cache persists each
:class:`repro.harness.experiment.RunResult` under a key that hashes the
full cell configuration *and the simulator source tree*, so a stale
entry can never survive a code change: touch any ``src/repro`` module and
every key moves.

The cache is opt-in (``REPRO_DISK_CACHE=1``) so tests and default runs
never read state left by a previous process; the directory defaults to
``.repro-cache`` under the current directory (``REPRO_DISK_CACHE_DIR``
overrides).  Writes are atomic (temp file, flush+fsync, then
``os.replace``), so a crashed, SIGKILLed, or concurrent writer can only
ever leave a complete entry or none — a torn entry is *impossible to
observe* at the final path, not merely caught by the checksum.

:class:`HotCache` adds an in-memory LRU layer in front of :func:`load`
(the sweep server's memory-speed answer path; the server owns its one
instance): :meth:`HotCache.get` consults the hot layer first, falls
through to disk, and counts ``hot_hits`` / ``disk_hits`` / ``misses``
alongside the module's ``quarantined_entries`` — rendered by
:func:`repro.harness.report.render_cache`.

Entries are self-verifying: each file is ``magic + sha256(payload) +
payload`` and :func:`load` re-hashes before unpickling, so raw pickle
bytes are never trusted.  A corrupt entry (bit rot, torn write, hostile
edit — :func:`repro.harness.hostchaos.corrupt_cache_entries` exercises
exactly this) is **quarantined**: renamed to ``*.corrupt`` so it is
never re-read, counted in :data:`quarantined_entries`, and reported as a
miss — the cell silently recomputes, which is the supervisor's
"failures are non-fatal" contract applied to storage.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path

_TRUTHY = ("1", "true", "yes", "on")

#: entry-file magic; everything before it existed pre-checksums and is
#: quarantined on sight (the content-hash keys moved anyway).
_MAGIC = b"RPROCACHE1\n"
_DIGEST_SIZE = 32

#: memoized source-tree digest (one walk per process).
_code_version: str | None = None

#: corrupt entries quarantined by this process (observability hook).
quarantined_entries: int = 0


def enabled(explicit: bool | None = None) -> bool:
    """Explicit argument wins; otherwise the ``REPRO_DISK_CACHE`` env var."""
    if explicit is not None:
        return explicit
    return os.environ.get("REPRO_DISK_CACHE", "").lower() in _TRUTHY


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_DISK_CACHE_DIR", ".repro-cache"))


def code_version() -> str:
    """Digest of every ``src/repro`` Python source file, path-ordered."""
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()
    return _code_version


def entry_key(cell_key: tuple) -> str:
    """Content hash of (source tree, cell configuration)."""
    payload = repr((code_version(), cell_key)).encode()
    return hashlib.sha256(payload).hexdigest()


def _entry_path(cell_key: tuple) -> Path:
    return cache_dir() / f"{entry_key(cell_key)}.pickle"


def _verified_payload(data: bytes) -> bytes | None:
    """The pickle payload iff magic and checksum hold, else None."""
    if not data.startswith(_MAGIC):
        return None
    digest = data[len(_MAGIC):len(_MAGIC) + _DIGEST_SIZE]
    payload = data[len(_MAGIC) + _DIGEST_SIZE:]
    if len(digest) < _DIGEST_SIZE:
        return None
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


def _quarantine(path: Path) -> None:
    """Move a corrupt entry aside so it is never re-read (delete as a
    last resort); always counted."""
    global quarantined_entries
    quarantined_entries += 1
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def load(cell_key: tuple):
    """The cached result for ``cell_key``, or None (never raises).

    Verifies the per-entry sha256 before unpickling; a failed check or a
    payload that will not unpickle quarantines the entry and misses.
    """
    path = _entry_path(cell_key)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    payload = _verified_payload(data)
    if payload is None:
        _quarantine(path)
        return None
    try:
        return pickle.loads(payload)
    except Exception:
        # checksum held but the payload is not loadable here (e.g. a
        # class renamed mid-flight): same treatment, never re-read it.
        _quarantine(path)
        return None


def store(cell_key: tuple, result) -> None:
    """Persist ``result`` atomically; failures are non-fatal.

    The entry is written to a temp file in the cache directory, flushed
    *and fsynced*, and only then published with ``os.replace`` — so the
    bytes at the final path are always a complete record, even if the
    writer is SIGKILLed at any instant (a kill before the replace leaves
    no entry; a kill after leaves the full one; the page cache can never
    expose a prefix at the final name).  The checksum in :func:`load`
    remains a second line of defence against bit rot, not the only thing
    standing between a torn write and a bad unpickle.

    *Any* failure — OSError on the temp file, but equally a
    ``PicklingError`` on an unpicklable result — leaves no temp litter
    and no entry; the next run simply recomputes the cell.
    """
    path = _entry_path(cell_key)
    try:
        payload = pickle.dumps(result)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:
        pass


# -- in-memory LRU hot layer ---------------------------------------------------

def hot_capacity_default() -> int:
    """``REPRO_HOT_CACHE_SIZE`` if set and sane, else 256 entries."""
    env = os.environ.get("REPRO_HOT_CACHE_SIZE")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 256


class HotCache:
    """A bounded LRU of deserialized results in front of :func:`load`.

    The disk cache answers in milliseconds (read + sha256 + unpickle);
    a long-running sweep server answering the same hot cells to many
    tenants wants memory speed.  :meth:`get` consults the LRU first and
    falls through to the disk entry (promoting it on a hit), counting
    every outcome: ``hot_hits`` (answered from memory), ``disk_hits``
    (answered from disk, now promoted), ``misses`` (nowhere — compute).

    Not thread-safe by design: the sweep server builds its own instance
    and mutates it only from its event loop.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = (hot_capacity_default()
                         if capacity is None else max(1, int(capacity)))
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cell_key: tuple, disk: bool = True):
        """``(result, source)`` — source is ``"hot"``, ``"disk"``, or
        ``None`` on a miss.  ``disk=False`` skips the disk fall-through
        (a server running with the disk cache disabled still gets the
        memory layer)."""
        if cell_key in self._entries:
            self._entries.move_to_end(cell_key)
            self.hot_hits += 1
            return self._entries[cell_key], "hot"
        if disk:
            result = load(cell_key)
            if result is not None:
                self.disk_hits += 1
                self.put(cell_key, result)
                return result, "disk"
        self.misses += 1
        return None, None

    def put(self, cell_key: tuple, result, disk: bool = False) -> None:
        """Install a computed result; ``disk=True`` also persists it
        (atomically, via :func:`store`)."""
        self._entries[cell_key] = result
        self._entries.move_to_end(cell_key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        if disk:
            store(cell_key, result)

    def counters(self) -> dict:
        """JSON-safe counter snapshot (includes the module-global
        quarantine count: corrupt disk entries this process moved aside)."""
        return {
            "hot_hits": self.hot_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "quarantined": quarantined_entries,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0

