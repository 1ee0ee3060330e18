"""Store backend tests: protocol conformance, equivalence, concurrency.

The layered store's contract is that *semantics live above the
backend*: the same puts through either backend must produce the same
decoded values (bit-identical payload text, in fact), the same stats
shape, and the same corruption-tolerance behaviour — and concurrent
writers/readers must never observe a torn payload (``os.replace``
atomicity on the directory backend, WAL transactions on SQLite).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.backends import SqliteBackend, StoreBackend, open_backend
from repro.experiments.store import MISS, ResultStore, open_store
from repro.runtime import parse_store_url

BACKENDS = ("directory", "sqlite")


def backend_url(tmp_path, kind: str) -> str:
    if kind == "sqlite":
        return f"sqlite://{tmp_path}/results.db"
    return str(tmp_path / "results")


@pytest.fixture(params=BACKENDS)
def url(request, tmp_path):
    return backend_url(tmp_path, request.param)


class TestParseStoreUrl:
    def test_plain_path_is_directory(self):
        assert parse_store_url("/var/results") == ("dir", "/var/results")
        assert parse_store_url("results") == ("dir", "results")

    def test_explicit_schemes(self):
        assert parse_store_url("dir://out/results") == ("dir", "out/results")
        assert parse_store_url("sqlite://results.db") == ("sqlite", "results.db")
        # everything after the scheme is the path verbatim: three slashes
        # means an absolute path
        assert parse_store_url("sqlite:///var/r.db") == ("sqlite", "/var/r.db")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown store scheme"):
            parse_store_url("redis://localhost")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            parse_store_url("sqlite://")


class TestBackendProtocol:
    def test_open_backend_kinds(self, tmp_path):
        assert open_backend(tmp_path / "d").kind == "directory"
        assert open_backend(f"sqlite://{tmp_path}/r.db").kind == "sqlite"

    def test_runtime_checkable(self, url):
        assert isinstance(open_backend(url), StoreBackend)

    def test_raw_round_trip(self, url):
        backend = open_backend(url)
        assert backend.get_raw("aa") is None
        assert not backend.contains("aa")
        backend.put_raw("aa", '{"x": 1}')
        assert backend.get_raw("aa") == '{"x": 1}'
        assert backend.contains("aa")
        assert list(backend.keys()) == ["aa"]

    def test_overwrite_replaces(self, url):
        backend = open_backend(url)
        backend.put_raw("aa", "one")
        backend.put_raw("aa", "two")
        assert backend.get_raw("aa") == "two"
        assert backend.stats()["entries"] == 1

    def test_stats_shape(self, url):
        backend = open_backend(url)
        stats = backend.stats()
        assert set(stats) == {"entries", "total_bytes", "quarantined"}
        backend.put_raw("aa", "payload")
        stats = backend.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] >= len("payload")

    def test_quarantine_removes_and_counts(self, url):
        backend = open_backend(url)
        backend.put_raw("aa", "bad")
        backend.quarantine("aa")
        assert backend.get_raw("aa") is None
        assert backend.stats() == {"entries": 0, "total_bytes": 0, "quarantined": 1}
        backend.quarantine("missing")  # quarantining a ghost is a no-op

    def test_clear_wipes_quarantine_too(self, url):
        backend = open_backend(url)
        backend.put_raw("aa", "x")
        backend.put_raw("bb", "y")
        backend.quarantine("aa")
        backend.clear()
        assert backend.stats() == {"entries": 0, "total_bytes": 0, "quarantined": 0}

    def test_close_is_idempotent(self, url):
        backend = open_backend(url)
        backend.put_raw("aa", "x")
        backend.close()
        backend.close()
        assert backend.get_raw("aa") == "x"  # reopens lazily


class TestBackendEquivalence:
    """Same puts, same bytes, same decoded values — backend-independent."""

    def test_payload_text_bit_identical(self, tmp_path):
        stores = [ResultStore(backend_url(tmp_path, kind)) for kind in BACKENDS]
        key = {"case": {"topology": "torus", "p": 64}, "trials": 3}
        value = {"acd": [1.5, 2.25, float("1e-9")], "label": "x", "n": 12}
        for store in stores:
            store.put(key, value)
        texts = [s.backend.get_raw(s.digest_for(key)) for s in stores]
        assert texts[0] == texts[1]
        assert all(s.get(key) == value for s in stores)

    def test_stats_and_miss_behaviour_match(self, tmp_path):
        results = []
        for kind in BACKENDS:
            store = ResultStore(backend_url(tmp_path, kind))
            store.put("a", 1)
            store.get("a")
            store.get("b")
            results.append(store.stats)
        assert results[0] == results[1] == {
            "hits": 1, "misses": 1, "corrupt": 0, "entries": 1,
        }

    def test_corrupt_entry_quarantined_on_both(self, tmp_path):
        for kind in BACKENDS:
            store = ResultStore(backend_url(tmp_path, kind))
            store.put("k", {"v": 1})
            store.backend.put_raw(store.digest_for("k"), "{not json")
            assert store.get("k") is MISS
            assert store.stats["corrupt"] == 1
            assert store.storage_stats()["quarantined"] == 1
            # the namespace is clean again: a fresh put round-trips
            store.put("k", {"v": 2})
            assert store.get("k") == {"v": 2}


# -- concurrency -----------------------------------------------------------
#
# Worker functions live at module scope so process pools can import them.

KEY = {"case": "contended", "v": 1}

#: Two distinct, recognisable values large enough that a torn write
#: would be caught by JSON parsing or the value comparison.
VALUE_A = {"who": "a", "data": [float(i) + 0.5 for i in range(2000)]}
VALUE_B = {"who": "b", "data": [float(-i) - 0.25 for i in range(2000)]}


def _write_same_key(url: str, which: str, rounds: int) -> int:
    store = ResultStore(url)
    value = VALUE_A if which == "a" else VALUE_B
    for _ in range(rounds):
        store.put(KEY, value)
    return rounds


def _read_same_key(url: str, rounds: int) -> list:
    """Read the contended key repeatedly; return any torn observation."""
    store = ResultStore(url)
    bad = []
    for _ in range(rounds):
        value = store.get(KEY)
        if value is MISS:
            continue
        if value != VALUE_A and value != VALUE_B:
            bad.append(value)
    return bad


@pytest.mark.parametrize("kind", BACKENDS)
class TestConcurrentAccess:
    def test_two_processes_writing_same_key(self, tmp_path, kind):
        url = backend_url(tmp_path, kind)
        ResultStore(url)  # create the location before forking
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_write_same_key, url, which, 25) for which in ("a", "b")
            ]
            assert [f.result(timeout=60) for f in futures] == [25, 25]
        store = ResultStore(url)
        final = store.get(KEY)
        assert final in (VALUE_A, VALUE_B)  # one complete write won; no tearing
        assert store.stats["corrupt"] == 0
        assert len(store) == 1

    def test_interleaved_reader_and_writer(self, tmp_path, kind):
        url = backend_url(tmp_path, kind)
        ResultStore(url)
        with ProcessPoolExecutor(max_workers=3) as pool:
            writers = [
                pool.submit(_write_same_key, url, which, 20) for which in ("a", "b")
            ]
            readers = [pool.submit(_read_same_key, url, 60) for _ in range(1)]
            torn = [entry for f in readers for entry in f.result(timeout=60)]
            for f in writers:
                f.result(timeout=60)
        assert torn == []  # every observed value was a complete write
        final = ResultStore(url).get(KEY)
        assert final in (VALUE_A, VALUE_B)


class TestSqliteSpecifics:
    def test_wal_mode_active(self, tmp_path):
        backend = SqliteBackend(tmp_path / "r.db")
        mode = backend.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_survives_pickling(self, tmp_path):
        import pickle

        backend = SqliteBackend(tmp_path / "r.db")
        backend.put_raw("aa", "x")
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.get_raw("aa") == "x"

    def test_single_file_not_entry_files(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path}/r.db")
        store.put("k", 1)
        with pytest.raises(TypeError, match="not per-entry files"):
            store.path_for("k")

    @staticmethod
    def _fail_first_wal_pragma(monkeypatch, message):
        """Make the first ``PRAGMA journal_mode=WAL`` of a connect raise ``message``."""
        import sqlite3

        real_connect = sqlite3.connect
        calls = []

        class FlakyConnection:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL":
                    calls.append(sql)
                    if len(calls) == 1:
                        raise sqlite3.OperationalError(message)
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **k: FlakyConnection(real_connect(*a, **k))
        )
        return calls

    def test_connect_retries_locked_wal_pragma(self, tmp_path, monkeypatch):
        calls = self._fail_first_wal_pragma(monkeypatch, "database is locked")
        backend = SqliteBackend(tmp_path / "r.db")
        backend.put_raw("aa", "x")
        assert len(calls) == 2
        assert backend.connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert backend.get_raw("aa") == "x"

    def test_connect_propagates_other_operational_errors(self, tmp_path, monkeypatch):
        import sqlite3

        calls = self._fail_first_wal_pragma(monkeypatch, "disk I/O error")
        backend = SqliteBackend(tmp_path / "r.db")
        with pytest.raises(sqlite3.OperationalError, match="^disk I/O error$"):
            backend.connection
        assert len(calls) == 1

    def test_directory_backend_still_exposes_paths(self, tmp_path):
        store = open_store(str(tmp_path / "d"))
        store.put("k", 1)
        path = store.path_for("k")
        assert path.exists()
        assert json.loads(path.read_text())["value"] == 1


class TestStudyEquivalenceAcrossBackends:
    """A study's cold/warm cycle is bit-identical under either backend."""

    def test_anns_study_cold_warm_identical(self, tmp_path):
        from repro.experiments import Scale
        from repro.experiments.anns_study import ANNS_STUDY, plan_anns_study
        from repro.experiments.study import StudyContext, run_study

        tiny = Scale(
            name="backend-tiny",
            pairs_particles=200, pairs_order=4, pairs_processors=16,
            topo_particles=200, topo_order=5, topo_processors=16, topo_radius=1,
            scaling_particles=200, scaling_order=5, scaling_processors=(4, 16),
            anns_orders=(1, 2), trials=2,
        )
        results = {}
        for kind in BACKENDS:
            store = ResultStore(backend_url(tmp_path / kind, kind))
            ctx = StudyContext(scale=tiny, store=store)
            cold = run_study(ANNS_STUDY, ctx, plan=plan_anns_study(ctx))
            warm = run_study(ANNS_STUDY, ctx, plan=plan_anns_study(ctx))
            assert warm == cold  # store round trip is exact
            results[kind] = cold
        assert results["directory"] == results["sqlite"]
