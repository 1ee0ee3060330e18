"""Pluggable raw-storage backends for the persistent result store.

:class:`~repro.experiments.store.ResultStore` used to *be* a directory
of JSON files; serving ``recommend_configuration`` from a warm store at
production scale needs the opposite factoring — one store *semantics*
layer (content addressing, codecs, corruption tolerance) over
interchangeable *storage* layers.  This module owns the storage half:

* :class:`StoreBackend` — the protocol (``get_raw`` / ``put_raw`` /
  ``contains`` / ``keys`` / ``stats`` plus quarantine and lifecycle
  hooks).  Backends move opaque payload *text* addressed by a digest
  string; they never see keys, values or codecs.
* :class:`DirectoryBackend` — the original directory-of-JSON layout,
  extracted behaviour-preservingly: one ``<digest>.json`` per entry,
  fsynced temp-file + ``os.replace`` publication, ``*.corrupt``
  quarantine files.  Proven bit-identical by the pre-refactor store and
  golden suites.
* :class:`SqliteBackend` — one SQLite database in WAL mode, so many
  processes (and hosts sharing a local filesystem) read and write one
  warm store concurrently: WAL readers never block the writer and
  vice versa, and ``busy_timeout`` serialises concurrent writers.
  Quarantined payloads move to a side table instead of side files.

Backends are selected by URL (:func:`open_backend`): a plain path (or
``dir://path``) opens a :class:`DirectoryBackend`, ``sqlite://path``
opens a :class:`SqliteBackend` — the grammar is parsed by
:func:`repro.runtime.parse_store_url`, the same one ``REPRO_STORE`` and
``--store`` go through.

Both backends are picklable (workers reconnect lazily) and thread-safe;
neither ever returns a torn payload: the directory backend publishes
entries atomically with ``os.replace``, SQLite transactions are atomic
by construction.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Protocol, runtime_checkable

__all__ = [
    "StoreBackend",
    "StoreCorruptPayload",
    "DirectoryBackend",
    "SqliteBackend",
    "open_backend",
]


class StoreCorruptPayload(Exception):
    """A backend could not read an entry's bytes (not a clean miss)."""

    def __init__(self, digest: str):
        super().__init__(f"unreadable store payload for digest {digest}")
        self.digest = digest


@runtime_checkable
class StoreBackend(Protocol):
    """Raw digest-addressed text storage under the result store.

    Payloads are opaque JSON text; ``digest`` is the store's content
    address (hex SHA-256 of the canonical key).  Implementations must
    guarantee that ``get_raw`` never observes a torn ``put_raw`` — a
    reader sees the old payload, the new payload, or nothing.
    """

    #: Short scheme name (``"directory"`` / ``"sqlite"``), used in
    #: diagnostics and ``store stats``.
    kind: str
    #: Where the data lives (directory or database file).
    location: Path

    def get_raw(self, digest: str) -> str | None:
        """The payload stored under ``digest``, or ``None``."""
        ...

    def put_raw(self, digest: str, payload: str) -> None:
        """Atomically and durably publish ``payload`` under ``digest``."""
        ...

    def contains(self, digest: str) -> bool:
        """Whether an entry exists under ``digest``."""
        ...

    def keys(self) -> Iterator[str]:
        """All stored digests (snapshot; order unspecified)."""
        ...

    def stats(self) -> dict[str, Any]:
        """Residency profile: ``entries``, ``total_bytes``, ``quarantined``."""
        ...

    def quarantine(self, digest: str) -> None:
        """Move a corrupt entry out of the addressable namespace."""
        ...

    def clear(self) -> None:
        """Drop every entry and quarantined payload."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry to stable storage (best effort).

    Required for the rename in :meth:`DirectoryBackend.put_raw` to
    survive a power loss; skipped silently where directories cannot be
    opened (e.g. Windows).
    """
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class DirectoryBackend:
    """The original one-file-per-entry layout (behaviour-preserving).

    Each entry is ``<digest>.json``; writes go through an fsynced temp
    file published with ``os.replace`` and a directory fsync, so a
    crash or power loss leaves either the old entry or the complete new
    one.  Concurrent writers of the same digest are safe — ``os.replace``
    is atomic, last writer wins with a complete payload.  Corrupt
    entries are renamed to ``<digest>.corrupt``: kept for forensics,
    out of the addressable namespace.
    """

    kind = "directory"

    def __init__(self, root: str | Path):
        self.location = Path(root)
        self.location.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str) -> Path:
        """The entry file a digest addresses (directory layout only)."""
        return self.location / f"{digest}.json"

    def get_raw(self, digest: str) -> str | None:
        try:
            return self.path_for(digest).read_text()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            # unreadable bytes are corruption, not a miss: let the store
            # layer quarantine and count them
            raise StoreCorruptPayload(digest) from exc

    def put_raw(self, digest: str, payload: str) -> None:
        path = self.path_for(digest)
        fd, tmp = tempfile.mkstemp(dir=self.location, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.location)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def contains(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def keys(self) -> Iterator[str]:
        for path in self.location.glob("*.json"):
            yield path.stem

    def quarantine(self, digest: str) -> None:
        path = self.path_for(digest)
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass  # a concurrent reader may have quarantined it already

    def stats(self) -> dict[str, Any]:
        entries = total = 0
        for path in self.location.glob("*.json"):
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass  # concurrently replaced/quarantined
        return {
            "entries": entries,
            "total_bytes": total,
            "quarantined": sum(1 for _ in self.location.glob("*.corrupt")),
        }

    def clear(self) -> None:
        for pattern in ("*.json", "*.corrupt"):
            for path in self.location.glob(pattern):
                path.unlink(missing_ok=True)

    def close(self) -> None:
        pass  # nothing held open

    def __repr__(self) -> str:
        return f"DirectoryBackend({str(self.location)!r})"


#: SQLite schema: one payload table, one quarantine side table, one
#: metadata table carrying the store schema version for ``store stats``.
_SQLITE_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    digest  TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    digest  TEXT PRIMARY KEY,
    payload TEXT
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
"""

#: How long a writer waits for a concurrent writer's transaction before
#: giving up (milliseconds).  WAL keeps readers unblocked throughout.
SQLITE_BUSY_TIMEOUT_MS = 30_000


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn`` to WAL, retrying while another process holds the lock.

    Switching the journal mode needs an exclusive lock, and SQLite does
    not apply ``busy_timeout`` to it: a worker connecting while another
    process holds the database gets ``database is locked`` at once.
    The pragma is retried with doubling sleeps until
    :data:`SQLITE_BUSY_TIMEOUT_MS` has passed; any other error, or the
    lock outlasting the timeout, propagates unchanged.
    """
    deadline = time.monotonic() + SQLITE_BUSY_TIMEOUT_MS / 1000.0
    delay = 0.005
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "database is locked" not in str(exc) or time.monotonic() + delay > deadline:
                raise
        time.sleep(delay)
        delay = min(2 * delay, 0.5)


class SqliteBackend:
    """One shared SQLite database in WAL journal mode.

    WAL is what makes the store *multi-process warm*: readers never
    block the writer and the writer never blocks readers, so a fleet of
    study runs, CI shards and the query service can share one results
    database on a local filesystem.  Writes are single-statement
    transactions (``INSERT OR REPLACE``) — atomic by construction, so a
    reader sees the old payload or the new one, never a torn mix — and
    concurrent writers serialise through SQLite's write lock under a
    generous ``busy_timeout``.

    The connection is created lazily per process/instance (the object
    pickles as just its path, so it can ride inside worker arguments)
    and guarded by a lock for thread-shared use, e.g. the asyncio
    service answering from the event loop while computations persist
    from a worker thread.

    Caveats (documented in EXPERIMENTS.md): WAL requires a filesystem
    with coherent ``mmap``/locking — local disks are fine, NFS is not;
    ``synchronous=NORMAL`` means a power loss can drop the last commits
    but never corrupts the database (an app crash loses nothing).
    """

    kind = "sqlite"

    def __init__(self, path: str | Path):
        self.location = Path(path)
        self.location.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None

    # -- connection lifecycle -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.location,
            timeout=SQLITE_BUSY_TIMEOUT_MS / 1000.0,
            check_same_thread=False,
            isolation_level=None,  # autocommit: every statement is one txn
        )
        _enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={SQLITE_BUSY_TIMEOUT_MS}")
        conn.executescript(_SQLITE_SCHEMA)
        from repro.experiments.store import STORE_SCHEMA_VERSION

        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(STORE_SCHEMA_VERSION),),
        )
        return conn

    @property
    def connection(self) -> sqlite3.Connection:
        """The lazily opened (per-process) connection."""
        with self._lock:
            if self._conn is None:
                self._conn = self._connect()
            return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __getstate__(self) -> dict[str, Any]:
        # workers reconnect lazily; the connection itself never pickles
        return {"location": self.location}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.location = state["location"]
        self._lock = threading.RLock()
        self._conn = None

    # -- the backend protocol -------------------------------------------------

    def get_raw(self, digest: str) -> str | None:
        with self._lock:
            row = self.connection.execute(
                "SELECT payload FROM entries WHERE digest = ?", (digest,)
            ).fetchone()
        return row[0] if row is not None else None

    def put_raw(self, digest: str, payload: str) -> None:
        with self._lock:
            self.connection.execute(
                "INSERT OR REPLACE INTO entries (digest, payload) VALUES (?, ?)",
                (digest, payload),
            )

    def contains(self, digest: str) -> bool:
        with self._lock:
            row = self.connection.execute(
                "SELECT 1 FROM entries WHERE digest = ?", (digest,)
            ).fetchone()
        return row is not None

    def keys(self) -> Iterator[str]:
        with self._lock:
            rows = self.connection.execute("SELECT digest FROM entries").fetchall()
        return iter([digest for (digest,) in rows])

    def quarantine(self, digest: str) -> None:
        with self._lock:
            conn = self.connection
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO quarantine (digest, payload) "
                    "SELECT digest, payload FROM entries WHERE digest = ?",
                    (digest,),
                )
                conn.execute("DELETE FROM entries WHERE digest = ?", (digest,))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def stats(self) -> dict[str, Any]:
        with self._lock:
            conn = self.connection
            entries, total = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM entries"
            ).fetchone()
            (quarantined,) = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
        return {
            "entries": int(entries),
            "total_bytes": int(total),
            "quarantined": int(quarantined),
        }

    def clear(self) -> None:
        with self._lock:
            conn = self.connection
            conn.execute("DELETE FROM entries")
            conn.execute("DELETE FROM quarantine")

    def __repr__(self) -> str:
        return f"SqliteBackend({str(self.location)!r})"


def open_backend(url: str | Path) -> StoreBackend:
    """Open the backend a store URL names.

    A plain path (or ``dir://path``) opens a :class:`DirectoryBackend`;
    ``sqlite://path/to/results.db`` opens a :class:`SqliteBackend` —
    everything after ``sqlite://`` is the filesystem path, so
    ``sqlite:///var/store.db`` is absolute and ``sqlite://results.db``
    is relative.  The grammar (and its validation errors) live in
    :func:`repro.runtime.parse_store_url` so ``REPRO_STORE``, the CLI
    and programmatic callers all parse identically.
    """
    from repro.runtime import parse_store_url

    scheme, path = parse_store_url(str(url))
    if scheme == "sqlite":
        return SqliteBackend(path)
    return DirectoryBackend(path)
