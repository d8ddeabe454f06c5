"""SQL front end of the minisql engine: tokenizer, parser, AST.

Supported subset (enough for the §5.2.2 workload and general use):

* ``CREATE TABLE t (col TYPE, ...)`` with INTEGER and TEXT columns
* ``INSERT INTO t VALUES (...)`` / ``INSERT INTO t (cols) VALUES (...)``
* ``SELECT * | col, ... FROM t [WHERE col OP literal] [LIMIT n]``
* ``UPDATE t SET col = literal, ... [WHERE ...]``
* ``DELETE FROM t [WHERE ...]``
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``

Comparison operators: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional, Union

Literal = Union[int, str, None]


class SqlError(ValueError):
    """Syntax or semantic error in a statement."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>-?\d+)
  | (?P<str>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|;)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # num | str | ident | op
    text: str

    @property
    def upper(self) -> str:
        return self.text.upper()


def tokenize(sql: str) -> list[Token]:
    """Split a statement into tokens."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup != "ws":
            tokens.append(Token(match.lastgroup, match.group()))
    return tokens


# -- AST ---------------------------------------------------------------------


class ColumnType(enum.Enum):
    """Supported column types."""

    INTEGER = "INTEGER"
    TEXT = "TEXT"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    col_type: ColumnType


@dataclass(frozen=True)
class Condition:
    """``column OP literal``."""

    column: str
    op: str
    value: Literal

    def matches(self, value: Literal) -> bool:
        """Evaluate against a row's column value."""
        other = self.value
        if value is None or other is None:
            return False
        if self.op == "=":
            return value == other
        if self.op in ("!=", "<>"):
            return value != other
        if type(value) is not type(other):
            return False
        if self.op == "<":
            return value < other
        if self.op == "<=":
            return value <= other
        if self.op == ">":
            return value > other
        if self.op == ">=":
            return value >= other
        raise SqlError(f"unknown operator {self.op}")


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Optional[tuple[str, ...]]
    values: tuple[Literal, ...]


@dataclass(frozen=True)
class Select:
    table: str
    columns: Optional[tuple[str, ...]]  # None = *
    where: Optional[Condition] = None
    limit: Optional[int] = None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Literal], ...]
    where: Optional[Condition] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Condition] = None


@dataclass(frozen=True)
class Begin:
    pass


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


Statement = Union[CreateTable, Insert, Select, Update, Delete, Begin, Commit, Rollback]


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of statement")
        self._pos += 1
        return token

    def expect_kw(self, keyword: str) -> None:
        token = self.next()
        if token.kind != "ident" or token.upper != keyword:
            raise SqlError(f"expected {keyword}, got {token.text!r}")

    def accept_kw(self, keyword: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "ident" and token.upper == keyword:
            self._pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        token = self.next()
        if token.kind != "op" or token.text != op:
            raise SqlError(f"expected {op!r}, got {token.text!r}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "op" and token.text == op:
            self._pos += 1
            return True
        return False

    def ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise SqlError(f"expected identifier, got {token.text!r}")
        return token.text

    def literal(self) -> Literal:
        token = self.next()
        if token.kind == "num":
            return int(token.text)
        if token.kind == "str":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "ident" and token.upper == "NULL":
            return None
        raise SqlError(f"expected literal, got {token.text!r}")

    # -- statements ----------------------------------------------------------

    def parse(self) -> Statement:
        token = self.peek()
        if token is None:
            raise SqlError("empty statement")
        keyword = token.upper
        if keyword == "CREATE":
            statement = self._create()
        elif keyword == "INSERT":
            statement = self._insert()
        elif keyword == "SELECT":
            statement = self._select()
        elif keyword == "UPDATE":
            statement = self._update()
        elif keyword == "DELETE":
            statement = self._delete()
        elif keyword == "BEGIN":
            self.next()
            statement = Begin()
        elif keyword == "COMMIT":
            self.next()
            statement = Commit()
        elif keyword == "ROLLBACK":
            self.next()
            statement = Rollback()
        else:
            raise SqlError(f"unknown statement {token.text!r}")
        self.accept_op(";")
        if self.peek() is not None:
            raise SqlError(f"trailing input at {self.peek().text!r}")
        return statement

    def _create(self) -> CreateTable:
        self.expect_kw("CREATE")
        self.expect_kw("TABLE")
        table = self.ident()
        self.expect_op("(")
        columns: list[ColumnDef] = []
        while True:
            name = self.ident()
            type_name = self.ident().upper()
            try:
                col_type = ColumnType(type_name)
            except ValueError:
                raise SqlError(f"unknown column type {type_name}") from None
            columns.append(ColumnDef(name, col_type))
            if self.accept_op(")"):
                break
            self.expect_op(",")
        return CreateTable(table=table, columns=tuple(columns))

    def _insert(self) -> Insert:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.ident()
        columns: Optional[tuple[str, ...]] = None
        if self.accept_op("("):
            names = [self.ident()]
            while self.accept_op(","):
                names.append(self.ident())
            self.expect_op(")")
            columns = tuple(names)
        self.expect_kw("VALUES")
        self.expect_op("(")
        values = [self.literal()]
        while self.accept_op(","):
            values.append(self.literal())
        self.expect_op(")")
        return Insert(table=table, columns=columns, values=tuple(values))

    def _select(self) -> Select:
        self.expect_kw("SELECT")
        columns: Optional[tuple[str, ...]]
        if self.accept_op("*"):
            columns = None
        else:
            names = [self.ident()]
            while self.accept_op(","):
                names.append(self.ident())
            columns = tuple(names)
        self.expect_kw("FROM")
        table = self.ident()
        where = self._where()
        limit = None
        if self.accept_kw("LIMIT"):
            token = self.next()
            if token.kind != "num":
                raise SqlError("LIMIT expects a number")
            limit = int(token.text)
        return Select(table=table, columns=columns, where=where, limit=limit)

    def _update(self) -> Update:
        self.expect_kw("UPDATE")
        table = self.ident()
        self.expect_kw("SET")
        assignments: list[tuple[str, Literal]] = []
        while True:
            column = self.ident()
            self.expect_op("=")
            assignments.append((column, self.literal()))
            if not self.accept_op(","):
                break
        return Update(table=table, assignments=tuple(assignments), where=self._where())

    def _delete(self) -> Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        return Delete(table=self.ident(), where=self._where())

    def _where(self) -> Optional[Condition]:
        if not self.accept_kw("WHERE"):
            return None
        column = self.ident()
        token = self.next()
        if token.kind != "op" or token.text not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise SqlError(f"bad comparison operator {token.text!r}")
        return Condition(column=column, op=token.text, value=self.literal())


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement."""
    return _Parser(tokenize(sql)).parse()
