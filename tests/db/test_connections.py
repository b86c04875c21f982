"""Connections: the SQL face of engine sessions.

``Database.connect()`` hands out an independent transaction scope over
the same engine and catalog, serialized by the lock manager — several
"clients" of one database, the shape SQLite calls connections.
"""

import pytest

from repro.core import LockConflict, SystemConfig
from repro.db import Database, SqlError


@pytest.fixture
def db():
    database = Database.open(SystemConfig(
        scheme="fastplus", npages=1024, page_size=1024,
        log_bytes=32768, heap_bytes=1 << 21, dram_bytes=128 * 1024,
    ))
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


class TestConnectionLifecycle:
    def test_connect_shares_engine_and_catalog(self, db):
        conn = db.connect("reader")
        assert conn.engine is db.engine
        assert conn.catalog is db.catalog
        assert conn.session is not None
        assert conn.session.name == "reader"
        conn.close()

    def test_connection_sees_committed_data(self, db):
        db.execute("INSERT INTO t VALUES (1, 'one')")
        with db.connect() as conn:
            assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
                [("one",)]

    def test_close_releases_session(self, db):
        conn = db.connect()
        session = conn.session
        conn.close()
        assert session.closed
        assert db.engine.sessions() == []

    def test_close_rolls_back_open_transaction(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (9, 'gone')")
        conn.close()
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(0,)]


    def test_create_index_backfills_across_leaves(self, db):
        """The backfill scans the table lazily and inserts index entries
        between its steps; each scan step is its own operation, so its
        next leaf latch is no claim after the inserts' stores."""
        for i in range(120):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "v%03d" % (i % 7)))
        with db.connect() as conn:
            conn.execute("CREATE INDEX tv ON t (v)")
            assert conn.execute("SELECT COUNT(*) FROM t WHERE v = 'v003'") \
                .rows == [(17,)]


class TestConcurrentConnections:
    def test_two_connections_interleave_transactions(self, db):
        # Seed enough rows that the two hot rows live on different
        # pages (page-granularity locks).
        for i in range(40):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, "x" * 40))
        c1, c2 = db.connect("alice"), db.connect("bob")
        c1.execute("BEGIN")
        c2.execute("BEGIN")
        c1.execute("UPDATE t SET v = 'a' WHERE id = 0")
        c2.execute("UPDATE t SET v = 'b' WHERE id = 39")
        c1.execute("COMMIT")
        c2.execute("COMMIT")
        assert db.execute("SELECT v FROM t WHERE id = 0").rows == [("a",)]
        assert db.execute("SELECT v FROM t WHERE id = 39").rows == [("b",)]
        c1.close(), c2.close()

    def test_conflicting_connections_raise_lock_conflict(self, db):
        db.execute("INSERT INTO t VALUES (1, 'orig')")
        c1, c2 = db.connect(), db.connect()
        c1.execute("BEGIN")
        c1.execute("UPDATE t SET v = 'first' WHERE id = 1")
        c2.execute("BEGIN")
        with pytest.raises(LockConflict):
            c2.execute("UPDATE t SET v = 'second' WHERE id = 1")
        c1.execute("COMMIT")
        # The loser retries after the winner commits.
        c2.execute("UPDATE t SET v = 'second' WHERE id = 1")
        c2.execute("COMMIT")
        assert db.execute("SELECT v FROM t WHERE id = 1").rows == \
            [("second",)]
        c1.close(), c2.close()

    def test_connection_transaction_independent_of_parent(self, db):
        conn = db.connect()
        conn.execute("BEGIN")
        assert conn.in_transaction
        assert not db.in_transaction
        with pytest.raises(SqlError):
            conn.execute("BEGIN")  # still one txn per connection
        conn.execute("ROLLBACK")
        conn.close()


class TestReadOnlyConnections:
    def test_read_only_connection_reads_committed_data(self, db):
        db.execute("INSERT INTO t VALUES (1, 'one')")
        with db.connect("snap", isolation="read_only") as conn:
            assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
                [("one",)]

    def test_read_only_connection_rejects_writes(self, db):
        from repro.core import TransactionError

        with db.connect("snap", isolation="read_only") as conn:
            with pytest.raises(TransactionError):
                conn.execute("INSERT INTO t VALUES (2, 'nope')")

    def test_read_only_connection_never_blocks_on_writer(self, db):
        # A writer holding an X lock on the row's page cannot stall a
        # snapshot connection — it reads the committed version instead.
        db.execute("INSERT INTO t VALUES (1, 'orig')")
        writer = db.connect("writer")
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
        with db.connect("snap", isolation="read_only") as conn:
            assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
                [("orig",)]
            writer.execute("COMMIT")
            # Autocommit snapshots pin per statement: the next SELECT
            # begins a fresh snapshot at the new commit frontier.
            assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
                [("dirty",)]
        writer.close()

    def test_read_only_transaction_pins_one_snapshot(self, db):
        db.execute("INSERT INTO t VALUES (1, 'orig')")
        conn = db.connect("snap", isolation="read_only")
        conn.execute("BEGIN")
        assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
            [("orig",)]
        db.execute("UPDATE t SET v = 'newer' WHERE id = 1")
        # Same BEGIN … COMMIT scope: still the pinned snapshot.
        assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
            [("orig",)]
        conn.execute("COMMIT")
        assert conn.execute("SELECT v FROM t WHERE id = 1").rows == \
            [("newer",)]
        conn.close()
