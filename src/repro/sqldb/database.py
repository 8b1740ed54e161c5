"""The public front door of the relational engine: :class:`Database`.

Wraps the catalog + executor with statement routing and snapshot-based
transactions (BEGIN / COMMIT / ROLLBACK). Single-threaded by design — the
paper's NL2Transaction scenario needs atomicity, not concurrency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SQLTransactionError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import Catalog, Column, Table, TableSchema
from repro.sqldb.executor import Executor, ResultSet
from repro.sqldb.parser import parse_sql
from repro.sqldb.semantic import SemanticRuntime
from repro.sqldb.types import SQLType

# Re-export under the name most callers expect.
Result = ResultSet


def _sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal for :meth:`Database.dump`."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


class Database:
    """An in-memory SQL database.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT)")
    >>> _ = db.execute("INSERT INTO p VALUES (1, 'ada'), (2, 'bob')")
    >>> db.execute("SELECT name FROM p ORDER BY id DESC").rows
    [('bob',), ('ada',)]
    """

    def __init__(self, semantic: Optional[SemanticRuntime] = None) -> None:
        self.catalog = Catalog()
        self._executor = Executor(self.catalog, semantic=semantic)
        self._snapshot: Optional[Catalog] = None

    @property
    def semantic(self) -> SemanticRuntime:
        """The semantic-operator runtime (created on first access)."""
        return self._executor.semantic

    # ------------------------------------------------------------- execution

    @property
    def in_transaction(self) -> bool:
        return self._snapshot is not None

    def execute(self, sql: str) -> Result:
        """Execute a script; returns the result of the *last* statement."""
        statements = parse_sql(sql)
        if not statements:
            return Result(columns=[], rows=[])
        result = Result(columns=[], rows=[])
        for statement in statements:
            result = self._execute_statement(statement)
        return result

    def execute_many(self, sql: str) -> List[Result]:
        """Execute a script; returns one result per statement."""
        return [self._execute_statement(s) for s in parse_sql(sql)]

    def _execute_statement(self, statement: ast.Statement) -> Result:
        if isinstance(statement, ast.Begin):
            if self._snapshot is not None:
                raise SQLTransactionError("transaction already in progress")
            self._snapshot = self.catalog.snapshot()
            return Result(columns=[], rows=[])
        if isinstance(statement, ast.Commit):
            if self._snapshot is None:
                raise SQLTransactionError("COMMIT without BEGIN")
            self._snapshot = None
            return Result(columns=[], rows=[])
        if isinstance(statement, ast.Rollback):
            if self._snapshot is None:
                raise SQLTransactionError("ROLLBACK without BEGIN")
            self.catalog.tables = self._snapshot.tables
            self._executor.catalog = self.catalog
            self._snapshot = None
            return Result(columns=[], rows=[])
        if isinstance(statement, ast.Select) and self._executor._set_at_a_time():
            from repro.sqldb.planner import optimize_semantic, select_contains_semantic

            if select_contains_semantic(statement):
                statement = optimize_semantic(statement, self.catalog)
        return self._executor.execute(statement)

    def explain(self, sql: str) -> str:
        """Render the (rewritten) plan of the first SELECT in ``sql``,
        discounting semantic-operator cost by the runtime's observed cache
        hit rate."""
        from repro.sqldb.planner import explain

        statements = parse_sql(sql)
        selects = [s for s in statements if isinstance(s, ast.Select)]
        if not selects:
            raise SQLTransactionError("EXPLAIN requires a SELECT statement")
        hit_rate = (
            self._executor._semantic.hit_rate()
            if self._executor._semantic is not None
            else 0.0
        )
        return explain(
            selects[0],
            self.catalog,
            semantic_hit_rate=hit_rate,
            optimize=self._executor._set_at_a_time(),
        )

    def query(self, sql: str) -> List[Tuple[object, ...]]:
        """Convenience: execute and return just the rows."""
        return self.execute(sql).rows

    def query_scalar(self, sql: str) -> object:
        """Convenience: first column of first row (None when empty)."""
        return self.execute(sql).scalar()

    # ------------------------------------------------------------ structure

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def table_names(self) -> List[str]:
        return sorted(self.catalog.names())

    def has_table(self, name: str) -> bool:
        return self.catalog.has(name)

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, SQLType]],
        primary_key: Optional[str] = None,
    ) -> Table:
        """Programmatic CREATE TABLE (used by dataset generators)."""
        cols = tuple(
            Column(
                name=col_name,
                sql_type=col_type,
                primary_key=(primary_key is not None and col_name == primary_key),
                not_null=(primary_key is not None and col_name == primary_key),
            )
            for col_name, col_type in columns
        )
        table = Table(TableSchema(name=name, columns=cols))
        self.catalog.create(table)
        return table

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[object]]) -> int:
        """Programmatic bulk insert, all rows or none; returns the number of
        rows inserted."""
        self.catalog.get(table_name).insert_many(rows)
        return len(rows)

    def schema_text(self, include_stats: bool = False) -> str:
        """Render the full schema as CREATE TABLE text — this is the
        "table information" block that gets put in LLM prompts (Fig 2)."""
        parts: List[str] = []
        for name in self.table_names():
            table = self.catalog.get(name)
            col_sql = []
            for column in table.schema.columns:
                piece = f"{column.name} {column.sql_type.value}"
                if column.primary_key:
                    piece += " PRIMARY KEY"
                elif column.not_null:
                    piece += " NOT NULL"
                col_sql.append(piece)
            parts.append(f"CREATE TABLE {name} ({', '.join(col_sql)});")
            if include_stats:
                parts.append(f"-- {name}: {len(table)} rows")
        return "\n".join(parts)

    def statistics(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Per-table, per-column statistics (for table understanding)."""
        return {name: self.catalog.get(name).statistics() for name in self.table_names()}

    def dump(self) -> str:
        """Serialize the full database as a SQL script (schema + data).

        The inverse of :meth:`from_script`; used for persistence and for
        shipping reproducible fixtures.
        """
        parts: List[str] = []
        for name in self.table_names():
            table = self.catalog.get(name)
            col_sql = []
            for column in table.schema.columns:
                piece = f"{column.name} {column.sql_type.value}"
                if column.primary_key:
                    piece += " PRIMARY KEY"
                elif column.not_null:
                    piece += " NOT NULL"
                col_sql.append(piece)
            parts.append(f"CREATE TABLE {name} ({', '.join(col_sql)});")
            for row in table.rows:
                values = ", ".join(_sql_literal(v) for v in row)
                parts.append(f"INSERT INTO {name} VALUES ({values});")
        return "\n".join(parts)

    @classmethod
    def from_script(cls, sql: str, semantic: Optional[SemanticRuntime] = None) -> "Database":
        """Build a database by executing a SQL script (see :meth:`dump`)."""
        db = cls(semantic=semantic)
        db.execute(sql)
        return db

    def clone(self) -> "Database":
        """Deep-enough copy: shares nothing mutable with the original
        (the semantic runtime — provider and cache — is shared; answers
        are deterministic per prompt, so sharing is observationally pure)."""
        other = Database()
        other.catalog = self.catalog.snapshot()
        other._executor = Executor(other.catalog, semantic=self._executor._semantic)
        return other
