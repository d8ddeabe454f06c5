"""The minisql database engine.

Ties the SQL front end, the B-tree storage and the transactional pager
together behind an ``execute()`` API.  The whole engine runs wherever it is
instantiated — natively, or *inside an enclave* for the §5.2.2 experiment
(the enclavised build simply constructs it with an ocall-backed VFS).

A ``charge`` hook receives virtual compute costs (parsing, record codec,
predicate evaluation, B-tree work) so traces show realistic in-enclave
execution time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.workloads.minisql.btree import BTree
from repro.workloads.minisql.pager import Pager
from repro.workloads.minisql.sql import (
    Begin,
    ColumnDef,
    ColumnType,
    Commit,
    CreateTable,
    Delete,
    Insert,
    Literal,
    Rollback,
    Select,
    Statement,
    Update,
    parse_sql,
    tokenize,
)
from repro.workloads.minisql.vfs import Vfs

_MAGIC = b"minisql format 1\x00"

PARSE_BASE_NS = 1_100
PARSE_PER_TOKEN_NS = 55
ENCODE_BASE_NS = 220
ENCODE_PER_BYTE_NS = 1.2
PREDICATE_NS = 85


class EngineError(RuntimeError):
    """Semantic error during execution (unknown table/column, ...)."""


@dataclass
class TableInfo:
    """Catalog entry for one table.

    ``next_rowid`` is *not* persisted — like SQLite, it is derived from the
    table's largest rowid at open time, so the catalog page only gets dirty
    when the root page moves (a split), not on every insert.
    """

    name: str
    columns: tuple[ColumnDef, ...]
    root_page: int
    next_rowid: int = 1
    saved_root_page: int = -1

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise EngineError(f"no column {name!r} in table {self.name!r}")

    def serialize(self) -> bytes:
        parts = [struct.pack(">IH", self.root_page, len(self.columns))]
        for col in self.columns:
            encoded = col.name.encode()
            parts.append(struct.pack(">B", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack(">B", 1 if col.col_type is ColumnType.INTEGER else 2))
        return b"".join(parts)

    @classmethod
    def parse(cls, name: str, raw: bytes) -> "TableInfo":
        root_page, ncols = struct.unpack_from(">IH", raw, 0)
        offset = struct.calcsize(">IH")
        columns = []
        for _ in range(ncols):
            (name_len,) = struct.unpack_from(">B", raw, offset)
            offset += 1
            col_name = raw[offset : offset + name_len].decode()
            offset += name_len
            (type_tag,) = struct.unpack_from(">B", raw, offset)
            offset += 1
            columns.append(
                ColumnDef(
                    col_name,
                    ColumnType.INTEGER if type_tag == 1 else ColumnType.TEXT,
                )
            )
        return cls(
            name=name,
            columns=tuple(columns),
            root_page=root_page,
            saved_root_page=root_page,
        )


def encode_row(values: tuple[Literal, ...]) -> bytes:
    """Serialise one row (tagged columns: null / int64 / text)."""
    parts = [struct.pack(">H", len(values))]
    for value in values:
        if value is None:
            parts.append(b"\x00")
        elif isinstance(value, int):
            parts.append(b"\x01" + struct.pack(">q", value))
        elif isinstance(value, str):
            encoded = value.encode()
            parts.append(b"\x02" + struct.pack(">H", len(encoded)) + encoded)
        else:
            raise EngineError(f"unsupported value type {type(value).__name__}")
    return b"".join(parts)


def decode_row(raw: bytes) -> tuple[Literal, ...]:
    """Deserialise one row."""
    (count,) = struct.unpack_from(">H", raw, 0)
    offset = 2
    values: list[Literal] = []
    for _ in range(count):
        tag = raw[offset]
        offset += 1
        if tag == 0:
            values.append(None)
        elif tag == 1:
            (value,) = struct.unpack_from(">q", raw, offset)
            offset += 8
            values.append(value)
        elif tag == 2:
            (length,) = struct.unpack_from(">H", raw, offset)
            offset += 2
            values.append(raw[offset : offset + length].decode())
            offset += length
        else:
            raise EngineError(f"corrupt row (tag {tag})")
    return tuple(values)


def _rowid_key(rowid: int) -> bytes:
    return struct.pack(">Q", rowid)


class Database:
    """A minisql database over a VFS."""

    def __init__(
        self,
        vfs: Vfs,
        path: str = "db.minisql",
        charge: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.vfs = vfs
        self.path = path
        self._charge = charge or (lambda ns: None)
        self.pager = Pager(vfs, path)
        self._catalog = self._open_catalog()
        self._tables: dict[str, TableInfo] = {}
        self._explicit_txn = False
        self.statements_executed = 0

    # -- setup ---------------------------------------------------------------

    def _open_catalog(self) -> BTree:
        header = self.pager.get(0)
        if bytes(header[: len(_MAGIC)]) == _MAGIC:
            (catalog_root,) = struct.unpack_from(">I", header, len(_MAGIC))
            return BTree(self.pager, catalog_root, charge=self._charge)
        # Fresh database: write the header and create the catalog tree.
        self.pager.begin()
        catalog = BTree(self.pager, None, charge=self._charge)
        page = self.pager.get_writable(0)
        page[: len(_MAGIC)] = _MAGIC
        struct.pack_into(">I", page, len(_MAGIC), catalog.root_page)
        self.pager.commit()
        return catalog

    def _persist_catalog_root(self) -> None:
        page = self.pager.get_writable(0)
        struct.pack_into(">I", page, len(_MAGIC), self._catalog.root_page)

    def _table(self, name: str) -> TableInfo:
        info = self._tables.get(name)
        if info is None:
            raw = self._catalog.get(name.encode())
            if raw is None:
                raise EngineError(f"no such table: {name}")
            info = TableInfo.parse(name, raw)
            tree = BTree(self.pager, info.root_page, charge=self._charge)
            largest = tree.max_key()
            info.next_rowid = (
                struct.unpack(">Q", largest)[0] + 1 if largest is not None else 1
            )
            self._tables[name] = info
        return info

    def _save_table(self, info: TableInfo) -> None:
        self._catalog.insert(info.name.encode(), info.serialize())
        info.saved_root_page = info.root_page
        self._persist_catalog_root()

    # -- execution -------------------------------------------------------------

    def execute(self, sql: Union[str, Statement]) -> Union[list[tuple], int]:
        """Run one statement.

        SELECT returns rows; data-changing statements return a row count;
        transaction control returns 0.
        """
        if isinstance(sql, str):
            tokens = tokenize(sql)
            self._charge(PARSE_BASE_NS + PARSE_PER_TOKEN_NS * len(tokens))
            statement = parse_sql(sql)
        else:
            statement = sql
        self.statements_executed += 1
        if isinstance(statement, Begin):
            if self._explicit_txn:
                raise EngineError("nested BEGIN")
            self.pager.begin()
            self._explicit_txn = True
            return 0
        if isinstance(statement, Commit):
            if not self._explicit_txn:
                raise EngineError("COMMIT without BEGIN")
            self._flush_table_metadata()
            self.pager.commit()
            self._explicit_txn = False
            return 0
        if isinstance(statement, Rollback):
            if not self._explicit_txn:
                raise EngineError("ROLLBACK without BEGIN")
            self.pager.rollback()
            self._explicit_txn = False
            self._tables.clear()
            self._catalog = self._open_catalog()
            return 0

        auto = not self._explicit_txn and not isinstance(statement, Select)
        if auto:
            self.pager.begin()
        try:
            result = self._run(statement)
            if auto:
                self._flush_table_metadata()
                self.pager.commit()
            return result
        except Exception:
            if auto and self.pager.in_transaction:
                self.pager.rollback()
                self._tables.clear()
            raise

    def _flush_table_metadata(self) -> None:
        for info in self._tables.values():
            if info.root_page != info.saved_root_page:
                self._save_table(info)

    def _run(self, statement: Statement) -> Union[list[tuple], int]:
        if isinstance(statement, CreateTable):
            return self._create_table(statement)
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, Select):
            return self._select(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, Delete):
            return self._delete(statement)
        raise EngineError(f"unhandled statement {statement!r}")

    def _create_table(self, statement: CreateTable) -> int:
        if self._catalog.get(statement.table.encode()) is not None:
            raise EngineError(f"table {statement.table!r} already exists")
        tree = BTree(self.pager, None, charge=self._charge)
        info = TableInfo(
            name=statement.table,
            columns=statement.columns,
            root_page=tree.root_page,
        )
        self._tables[statement.table] = info
        self._save_table(info)
        return 0

    def _insert(self, statement: Insert) -> int:
        info = self._table(statement.table)
        if statement.columns is None:
            if len(statement.values) != len(info.columns):
                raise EngineError(
                    f"expected {len(info.columns)} values, got {len(statement.values)}"
                )
            row = tuple(statement.values)
        else:
            if len(statement.columns) != len(statement.values):
                raise EngineError("column/value count mismatch")
            row_map = dict(zip(statement.columns, statement.values))
            row = tuple(row_map.get(col.name) for col in info.columns)
        self._typecheck(info, row)
        raw = encode_row(row)
        self._charge(int(ENCODE_BASE_NS + ENCODE_PER_BYTE_NS * len(raw)))
        tree = BTree(self.pager, info.root_page, charge=self._charge)
        tree.insert(_rowid_key(info.next_rowid), raw)
        info.root_page = tree.root_page
        info.next_rowid += 1
        return 1

    def _typecheck(self, info: TableInfo, row: tuple[Literal, ...]) -> None:
        for col, value in zip(info.columns, row):
            if value is None:
                continue
            if col.col_type is ColumnType.INTEGER and not isinstance(value, int):
                raise EngineError(f"column {col.name!r} expects INTEGER")
            if col.col_type is ColumnType.TEXT and not isinstance(value, str):
                raise EngineError(f"column {col.name!r} expects TEXT")

    def _rows(self, info: TableInfo):
        tree = BTree(self.pager, info.root_page, charge=self._charge)
        for key, raw in tree.scan():
            self._charge(int(ENCODE_BASE_NS + ENCODE_PER_BYTE_NS * len(raw)))
            yield key, decode_row(raw)

    def _select(self, statement: Select) -> list[tuple]:
        info = self._table(statement.table)
        projection = (
            None
            if statement.columns is None
            else [info.column_index(c) for c in statement.columns]
        )
        where_index = (
            info.column_index(statement.where.column) if statement.where else None
        )
        results: list[tuple] = []
        for _, row in self._rows(info):
            if statement.where is not None:
                self._charge(PREDICATE_NS)
                if not statement.where.matches(row[where_index]):
                    continue
            results.append(
                row if projection is None else tuple(row[i] for i in projection)
            )
            if statement.limit is not None and len(results) >= statement.limit:
                break
        return results

    def _update(self, statement: Update) -> int:
        info = self._table(statement.table)
        assignment_indices = [
            (info.column_index(col), value) for col, value in statement.assignments
        ]
        where_index = (
            info.column_index(statement.where.column) if statement.where else None
        )
        changes: list[tuple[bytes, tuple]] = []
        for key, row in self._rows(info):
            if statement.where is not None:
                self._charge(PREDICATE_NS)
                if not statement.where.matches(row[where_index]):
                    continue
            new_row = list(row)
            for index, value in assignment_indices:
                new_row[index] = value
            changes.append((key, tuple(new_row)))
        tree = BTree(self.pager, info.root_page, charge=self._charge)
        for key, new_row in changes:
            self._typecheck(info, new_row)
            raw = encode_row(new_row)
            self._charge(int(ENCODE_BASE_NS + ENCODE_PER_BYTE_NS * len(raw)))
            tree.insert(key, raw)
        info.root_page = tree.root_page
        return len(changes)

    def _delete(self, statement: Delete) -> int:
        info = self._table(statement.table)
        where_index = (
            info.column_index(statement.where.column) if statement.where else None
        )
        doomed: list[bytes] = []
        for key, row in self._rows(info):
            if statement.where is not None:
                self._charge(PREDICATE_NS)
                if not statement.where.matches(row[where_index]):
                    continue
            doomed.append(key)
        tree = BTree(self.pager, info.root_page, charge=self._charge)
        for key in doomed:
            tree.delete(key)
        info.root_page = tree.root_page
        return len(doomed)

    def close(self) -> None:
        """Close the database (open explicit transactions are an error)."""
        if self._explicit_txn:
            raise EngineError("close with open transaction")
        self.pager.close()
