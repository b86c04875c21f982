"""System catalog: table schemas persisted in the schema tree.

Tree root-slot 0 is the schema tree (the analogue of SQLite's
``sqlite_master``): one record per table, keyed by table name, whose
value serialises the column list and the root slot of the table's own
B-tree.  Root slots 1..N_ROOT_SLOTS-1 are assigned to tables.
"""

from repro.db.errors import SchemaError
from repro.db.records import decode_row, encode_key, encode_row
from repro.storage.pagestore import N_ROOT_SLOTS

SCHEMA_TREE = 0

TYPES = ("INTEGER", "REAL", "TEXT", "BLOB")

_PY_TYPES = {
    "INTEGER": (int,),
    "REAL": (float, int),
    "TEXT": (str,),
    "BLOB": (bytes, bytearray),
}


class Column:
    """One column definition."""

    __slots__ = ("name", "type", "primary_key")

    def __init__(self, name, type_, primary_key=False):
        if type_ not in TYPES:
            raise SchemaError("unsupported column type %r" % type_)
        self.name = name
        self.type = type_
        self.primary_key = primary_key

    def accepts(self, value):
        if value is None:
            return not self.primary_key
        return isinstance(value, _PY_TYPES[self.type])


class Table:
    """A table schema bound to a B-tree root slot."""

    def __init__(self, name, columns, root_slot):
        self.name = name
        self.columns = columns
        self.root_slot = root_slot
        pk = [i for i, col in enumerate(columns) if col.primary_key]
        if len(pk) != 1:
            raise SchemaError(
                "table %r must declare exactly one PRIMARY KEY column" % name
            )
        self.pk_index = pk[0]

    @property
    def column_names(self):
        return [col.name for col in self.columns]

    def column_index(self, name):
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SchemaError("no column %r in table %r" % (name, self.name))

    def key_for_row(self, row):
        return encode_key(row[self.pk_index])

    def to_row(self):
        """Serialise for the schema tree."""
        parts = ["table", self.name, self.root_slot]
        for col in self.columns:
            parts += [col.name, col.type, 1 if col.primary_key else 0]
        return tuple(parts)

    @classmethod
    def from_row(cls, row):
        name, root_slot = row[1], row[2]
        columns = []
        for i in range(3, len(row), 3):
            columns.append(Column(row[i], row[i + 1], bool(row[i + 2])))
        return cls(name, columns, root_slot)


class Index:
    """A secondary index: a B-tree of composite keys.

    Entries are ``encode_composite([col1, col2, ..., pk])`` with an
    empty payload — the entry key alone locates the base row.
    """

    def __init__(self, name, table_name, column_names, root_slot):
        self.name = name
        self.table_name = table_name
        self.column_names = list(column_names)
        self.root_slot = root_slot

    def to_row(self):
        return ("index", self.name, self.root_slot, self.table_name,
                *self.column_names)

    @classmethod
    def from_row(cls, row):
        return cls(row[1], row[3], row[4:], row[2])


class Catalog:
    """Schema cache + persistence over an engine."""

    def __init__(self, engine):
        self.engine = engine
        self._tables = None
        self._indexes = None

    def _load(self):
        if self._tables is not None:
            return
        self._tables = {}
        self._indexes = {}
        for _, payload in self.engine.scan(root_slot=SCHEMA_TREE):
            row = decode_row(payload)
            if row[0] == "table":
                table = Table.from_row(row)
                self._tables[table.name] = table
            else:
                index = Index.from_row(row)
                self._indexes[index.name] = index

    def tables(self):
        self._load()
        return dict(self._tables)

    def indexes(self):
        self._load()
        return dict(self._indexes)

    def indexes_on(self, table_name):
        self._load()
        return [
            index for index in self._indexes.values()
            if index.table_name == table_name
        ]

    def index_on_column(self, table_name, column_name):
        """An index whose *leading* column is ``column_name``."""
        for index in self.indexes_on(table_name):
            if index.column_names[0] == column_name:
                return index
        return None

    def get(self, name):
        self._load()
        table = self._tables.get(name)
        if table is None:
            raise SchemaError("no such table: %s" % name)
        return table

    def exists(self, name):
        self._load()
        return name in self._tables

    def index_exists(self, name):
        self._load()
        return name in self._indexes

    def _free_slot(self):
        used = {table.root_slot for table in self._tables.values()}
        used |= {index.root_slot for index in self._indexes.values()}
        used.add(SCHEMA_TREE)
        free = [slot for slot in range(N_ROOT_SLOTS) if slot not in used]
        if not free:
            raise SchemaError(
                "too many tables/indexes (max %d)" % (N_ROOT_SLOTS - 1)
            )
        return free[0]

    def create_table(self, txn, name, columns):
        """Create a table inside ``txn`` (commits atomically with it)."""
        self._load()
        if name in self._tables:
            raise SchemaError("table %s already exists" % name)
        table = Table(name, columns, self._free_slot())
        txn.create_tree(table.root_slot)
        txn.insert(
            encode_key("t:" + name), encode_row(table.to_row()),
            root_slot=SCHEMA_TREE,
        )
        self._tables[name] = table
        return table

    def create_index(self, txn, name, table_name, column_names):
        """Create a secondary index inside ``txn``."""
        self._load()
        if name in self._indexes or name in self._tables:
            raise SchemaError("index %s already exists" % name)
        table = self.get(table_name)
        for column_name in column_names:
            table.column_index(column_name)  # validates
        index = Index(name, table_name, column_names, self._free_slot())
        txn.create_tree(index.root_slot)
        txn.insert(
            encode_key("i:" + name), encode_row(index.to_row()),
            root_slot=SCHEMA_TREE,
        )
        self._indexes[name] = index
        return index

    def drop_table(self, txn, name):
        table = self.get(name)
        for index in self.indexes_on(name):
            self.drop_index(txn, index.name)
        txn.delete(encode_key("t:" + name), root_slot=SCHEMA_TREE)
        # The table's pages become unreachable once its root slot is
        # cleared; garbage collection reclaims them.
        txn.drop_tree(table.root_slot)
        del self._tables[name]
        return table

    def drop_index(self, txn, name):
        self._load()
        index = self._indexes.get(name)
        if index is None:
            raise SchemaError("no such index: %s" % name)
        txn.delete(encode_key("i:" + name), root_slot=SCHEMA_TREE)
        txn.drop_tree(index.root_slot)
        del self._indexes[name]
        return index

    def invalidate(self):
        """Drop the cache (after rollback or recovery)."""
        self._tables = None
        self._indexes = None
