"""LLM as databases (Section II-D2, ref [60] "querying LLMs with SQL").

Virtual tables declare how each column's values are *extracted from the
LLM*: a key column enumerates entities, and every other column has a
question template the LLM answers per entity. ``execute`` materializes the
referenced virtual tables through LLM sub-queries (the paper's "decomposed
sub-queries extract information from corresponding LLMs, just like
searching from tables") and then runs the actual SQL on the relational
engine.

Because extraction goes through the capability model, a weak model yields
a *wrong database* — and downstream SQL faithfully reports wrong answers,
which is precisely the reliability concern Section III-E raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.prompts.templates import qa_prompt
from repro.serving import CompletionProvider
from repro.sqldb import Database, Result
from repro.sqldb import ast_nodes as ast
from repro.sqldb.parser import parse_statement
from repro.sqldb.types import SQLType


@dataclass(frozen=True)
class VirtualColumn:
    """One LLM-backed column: name, type, and its question template."""

    name: str
    sql_type: SQLType
    question_template: str  # '{entity}' placeholder

    def question(self, entity: str) -> str:
        return self.question_template.format(entity=entity)


@dataclass(frozen=True)
class VirtualTable:
    """A table whose rows are materialized by querying the LLM."""

    name: str
    key_column: str
    entities: Tuple[str, ...]
    columns: Tuple[VirtualColumn, ...]

    @property
    def all_column_specs(self) -> List[Tuple[str, SQLType]]:
        return [(self.key_column, SQLType.TEXT)] + [
            (c.name, c.sql_type) for c in self.columns
        ]


class LLMDatabase:
    """SQL façade over LLM-extracted knowledge."""

    def __init__(self, client: CompletionProvider, model: Optional[str] = None) -> None:
        self.client = client
        self.model = model
        self.tables: Dict[str, VirtualTable] = {}
        self._db = Database()
        self._materialized: Set[str] = set()

    def register(self, table: VirtualTable) -> None:
        """Register a virtual table (names must be unique)."""
        if table.name.lower() in self.tables:
            raise ValueError(f"virtual table {table.name!r} already registered")
        self.tables[table.name.lower()] = table

    def import_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, SQLType]],
        rows: Sequence[Sequence[object]],
        primary_key: Optional[str] = None,
    ) -> int:
        """Load a *real* relational table next to the virtual ones.

        This is the paper's intro claim made concrete: external knowledge
        (the LLM-backed virtual tables) joins against traditional relational
        data in one SQL query. Returns the number of rows imported."""
        self._db.create_table(name, columns, primary_key=primary_key)
        self._db.insert_rows(name, rows)
        return len(rows)

    # ------------------------------------------------------- materialization

    def materialize(self, table_name: str, force: bool = False) -> int:
        """Extract a virtual table's rows from the LLM; returns row count."""
        key = table_name.lower()
        if key not in self.tables:
            raise KeyError(f"no virtual table {table_name!r}")
        if key in self._materialized and not force:
            return len(self._db.table(table_name))
        table = self.tables[key]
        if force and self._db.has_table(table.name):
            self._db.execute(f"DROP TABLE {table.name}")
            self._materialized.discard(key)
        self._db.create_table(table.name, table.all_column_specs, primary_key=table.key_column)
        rows = []
        for entity in table.entities:
            row: List[object] = [entity]
            for column in table.columns:
                completion = self.client.complete(
                    qa_prompt(column.question(entity)), model=self.model
                )
                row.append(self._coerce(completion.text, column.sql_type))
            rows.append(row)
        self._db.insert_rows(table.name, rows)
        self._materialized.add(key)
        return len(rows)

    @staticmethod
    def _coerce(text: str, sql_type: SQLType) -> object:
        if sql_type is SQLType.INTEGER:
            try:
                return int(float(text))
            except ValueError:
                return None
        if sql_type is SQLType.REAL:
            try:
                return float(text)
            except ValueError:
                return None
        return text

    # ------------------------------------------------------------ execution

    def execute(self, sql: str) -> Result:
        """Run SQL over virtual tables, materializing them on demand."""
        statement = parse_statement(sql)
        for table_name in self._referenced_tables(statement):
            if table_name.lower() in self.tables:
                self.materialize(table_name)
        return self._db.execute(sql)

    def extraction_cost(self) -> float:
        """Dollars spent on LLM extraction so far."""
        return self.client.meter.cost

    @staticmethod
    def _referenced_tables(statement: ast.Statement) -> List[str]:
        tables: List[str] = []

        def visit_source(source) -> None:
            if isinstance(source, ast.TableName):
                tables.append(source.name)
            elif isinstance(source, ast.Join):
                visit_source(source.left)
                visit_source(source.right)
            elif isinstance(source, ast.SubquerySource):
                visit_select(source.select)

        def visit_select(select: ast.Select) -> None:
            visit_source(select.source)
            for set_op in select.set_ops:
                visit_select(set_op.select)
            exprs = [i.expr for i in select.items]
            if select.where is not None:
                exprs.append(select.where)
            for expr in exprs:
                for node in ast.walk_expr(expr):
                    if isinstance(node, (ast.InSelect, ast.Exists, ast.ScalarSubquery)):
                        visit_select(node.select)

        if isinstance(statement, ast.Select):
            visit_select(statement)
        return tables


def film_virtual_table(films: Sequence[str]) -> VirtualTable:
    """The stock example: a films table extracted from the LLM's knowledge."""
    return VirtualTable(
        name="films",
        key_column="title",
        entities=tuple(films),
        columns=(
            VirtualColumn(
                name="director",
                sql_type=SQLType.TEXT,
                question_template="Who directed {entity}?",
            ),
            VirtualColumn(
                name="released",
                sql_type=SQLType.INTEGER,
                question_template="In which year was {entity} released?",
            ),
        ),
    )
