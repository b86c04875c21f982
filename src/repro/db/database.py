"""The public database API (the SQLite-shaped surface).

``Database`` owns a storage engine, a catalog, and an executor, and
exposes ``execute(sql, params)`` with SQLite-like autocommit semantics:
outside an explicit ``BEGIN`` each statement runs in its own
transaction — the paper's observation that "most write transactions
insert just a single data item into the SQLite database" is exactly
this mode.

Timing: SQL parsing charges the simulated clock per token (segment
``sql``), on top of the executor's per-statement/per-row costs, so the
engine-level phases (search / page update / commit) and the full
response time (Figures 11-12) are both measurable.
"""

from repro.core import SystemConfig, open_engine
from repro.db.catalog import Catalog
from repro.db.errors import SqlError
from repro.db.sql import ast
from repro.db.sql.executor import Executor, Rows
from repro.db.sql.parser import parse

#: Simulated cost of lexing+parsing+code generation, per token.  A
#: short INSERT is ~15 tokens -> ~7.5 us, in line with SQLite
#: prepare times on the paper's hardware class (tens of microseconds
#: end-to-end per statement).
PARSE_TOKEN_NS = 500.0

Result = Rows


class Database:
    """A SQL database over one of the paper's storage engines."""

    def __init__(self, engine, *, cache_statements=False, session=None,
                 catalog=None):
        self.engine = engine
        self.session = session  # None = the engine's implicit connection
        self.catalog = catalog if catalog is not None else Catalog(engine)
        self.executor = Executor(self.catalog, engine.clock)
        self.cache_statements = cache_statements
        self._statement_cache = {}
        self._txn = None
        self._savepoints = []

    @classmethod
    def open(cls, config=None, *, scheme=None, pm=None, cache_statements=False):
        """Create (or, given ``pm``, recover) a database.

        Args:
            config: ``SystemConfig`` (defaults: 4 KiB pages, FAST⁺).
            scheme: override the config's engine scheme.
            pm: an existing arena to re-attach to (crash recovery).
        """
        engine = open_engine(config or SystemConfig(), scheme=scheme, pm=pm)
        return cls(engine, cache_statements=cache_statements)

    def connect(self, name=None, isolation=None):
        """A new connection: same engine and catalog, its own session.

        Connections are the SQL face of :meth:`repro.core.base.Engine.session` —
        each owns an independent transaction scope, serialized against
        the other connections by the engine's lock manager.  Close the
        connection (or use it as a context manager) to release its
        session.

        ``isolation`` picks the session's mode (see
        :meth:`repro.core.base.Engine.session`).  Under
        ``isolation="read_only"`` the connection's transactions are MVCC
        snapshots: each pins a snapshot timestamp at begin, resolves
        every page read against the latest version ≤ that timestamp,
        and acquires zero locks — writers never block it and it never
        blocks writers.  Write statements raise.
        """
        return Database(
            self.engine,
            cache_statements=self.cache_statements,
            session=self.engine.session(name, isolation=isolation),
            catalog=self.catalog,
        )

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(self, sql, params=()):
        """Run one SQL statement; returns a ``Result``."""
        statement = self._prepare(sql)
        node = statement.node
        if isinstance(node, ast.Begin):
            self._begin()
            return Rows()
        if isinstance(node, ast.Commit):
            self._commit()
            return Rows()
        if isinstance(node, ast.Rollback):
            self._rollback()
            return Rows()
        if isinstance(node, ast.Savepoint):
            self._savepoint(node.name)
            return Rows()
        if isinstance(node, ast.RollbackTo):
            self._rollback_to(node.name)
            return Rows()
        if isinstance(node, ast.Release):
            self._release(node.name)
            return Rows()
        if isinstance(node, ast.Vacuum):
            if self._txn is not None:
                raise SqlError("VACUUM cannot run inside a transaction")
            rewritten = self.engine.compact_all()
            return Rows(rowcount=rewritten)
        if len(params) != statement.param_count:
            raise SqlError(
                "statement needs %d parameters, %d supplied"
                % (statement.param_count, len(params))
            )
        if self._txn is not None:
            return self.executor.execute(node, params, self._txn)
        with self._transaction() as txn:
            return self.executor.execute(node, params, txn)

    def executemany(self, sql, param_rows):
        """Run the statement once per parameter tuple (one transaction
        per execution, like autocommit executemany)."""
        total = 0
        for params in param_rows:
            total += self.execute(sql, params).rowcount
        return total

    def query(self, sql, params=()):
        """``execute`` + ``fetchall`` convenience."""
        return self.execute(sql, params).fetchall()

    def _prepare(self, sql):
        if self.cache_statements:
            statement = self._statement_cache.get(sql)
            if statement is not None:
                return statement
        statement = parse(sql)
        with self.engine.clock.segment("sql"):
            self.engine.clock.advance(PARSE_TOKEN_NS * statement.token_count)
        if self.cache_statements:
            self._statement_cache[sql] = statement
        return statement

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _transaction(self):
        """Begin a transaction in this connection's scope (its session,
        or the engine's implicit single-session path)."""
        if self.session is not None:
            return self.session.transaction()
        return self.engine.transaction()

    def _begin(self):
        if self._txn is not None:
            raise SqlError("cannot BEGIN: a transaction is already active")
        self._txn = self._transaction()
        self._savepoints = []

    def _commit(self):
        if self._txn is None:
            raise SqlError("cannot COMMIT: no transaction is active")
        txn, self._txn = self._txn, None
        self._savepoints = []
        txn.commit()

    def _rollback(self):
        if self._txn is None:
            raise SqlError("cannot ROLLBACK: no transaction is active")
        txn, self._txn = self._txn, None
        self._savepoints = []
        txn.rollback()
        self.catalog.invalidate()

    def _savepoint(self, name):
        if self._txn is None:
            raise SqlError("SAVEPOINT requires an open transaction")
        self._savepoints.append((name, self._txn.savepoint()))

    def _find_savepoint(self, name):
        for position in range(len(self._savepoints) - 1, -1, -1):
            if self._savepoints[position][0] == name:
                return position
        raise SqlError("no such savepoint: %s" % name)

    def _rollback_to(self, name):
        if self._txn is None:
            raise SqlError("ROLLBACK TO requires an open transaction")
        position = self._find_savepoint(name)
        self._txn.rollback_to(self._savepoints[position][1])
        # The savepoint itself survives (SQLite semantics); later ones die.
        del self._savepoints[position + 1 :]
        self.catalog.invalidate()

    def _release(self, name):
        if self._txn is None:
            raise SqlError("RELEASE requires an open transaction")
        position = self._find_savepoint(name)
        del self._savepoints[position:]

    @property
    def in_transaction(self):
        return self._txn is not None

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def tables(self):
        """Names of all tables."""
        return sorted(self.catalog.tables())

    @property
    def clock(self):
        return self.engine.clock

    def close(self):
        """Roll back any open transaction (data is already durable)
        and release this connection's session, if it has one."""
        if self._txn is not None:
            self._rollback()
        if self.session is not None:
            self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
