"""Catalog objects: columns, table schemas, tables and statistics.

Tables store rows as lists of tuples, in insertion order, and index the
primary key for key ranges. Statistics (row count, distinct counts,
min/max) back both the cost model in :mod:`repro.sqldb.planner` and the table
understanding application (Section II-C2).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SQLCatalogError, SQLIntegrityError
from repro.sqldb.types import SQLType, coerce, sort_key

#: A cut in the primary-key order: (a :func:`sort_key`, whether the cut
#: falls after the rows holding that key rather than before them).
Bound = Tuple[tuple, bool]


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    sql_type: SQLType
    primary_key: bool = False
    not_null: bool = False


@dataclass(frozen=True)
class TableSchema:
    """Immutable description of a table's structure."""

    name: str
    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        seen = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SQLCatalogError(f"duplicate column {column.name!r} in table {self.name!r}")
            seen.add(lowered)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Position of a column by (case-insensitive) name."""
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise SQLCatalogError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.name.lower() == lowered for c in self.columns)

    @property
    def primary_key_index(self) -> Optional[int]:
        for i, column in enumerate(self.columns):
            if column.primary_key:
                return i
        return None


class Table:
    """A heap of rows plus integrity enforcement and cheap statistics."""

    def __init__(self, schema: TableSchema, rows: Optional[Iterable[Sequence[object]]] = None) -> None:
        self.schema = schema
        self.rows: List[Tuple[object, ...]] = []
        self._pk_values: set = set()
        # (rows, sorted keys, their positions): built lazily, dropped by writes.
        self._index: Optional[Tuple[list, tuple, tuple]] = None
        if rows:
            self.insert_many(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, values: Sequence[object]) -> None:
        """Insert one row, coercing values and enforcing constraints."""
        self.insert_many((values,))

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        """Insert rows all or none: every row is coerced and checked (NOT
        NULL, a NaN key, a key already in the table or earlier in
        ``rows``) before the first is stored."""
        checked: List[Tuple[object, ...]] = []
        keys: set = set()
        pk = self.schema.primary_key_index
        for values in rows:
            if len(values) != len(self.schema.columns):
                raise SQLIntegrityError(
                    f"table {self.schema.name!r} expects {len(self.schema.columns)} values, "
                    f"got {len(values)}"
                )
            row = tuple(coerce(v, c.sql_type) for v, c in zip(values, self.schema.columns))
            self._check_not_null(row)
            if pk is not None:
                key = row[pk]
                if key in self._pk_values or key in keys:
                    raise SQLIntegrityError(
                        f"duplicate primary key {key!r} in table {self.schema.name!r}"
                    )
                keys.add(key)
            checked.append(row)
        self._pk_values |= keys
        self.rows.extend(checked)
        self._index = None

    def _check_not_null(self, row: Tuple[object, ...]) -> None:
        """NULL violates NOT NULL and the primary key; so does a NaN key,
        which equals nothing, itself included (sqlite stores it as NULL)."""
        for value, column in zip(row, self.schema.columns):
            if value is None and (column.not_null or column.primary_key):
                raise SQLIntegrityError(
                    f"NULL violates NOT NULL on {self.schema.name}.{column.name}"
                )
            if column.primary_key and value != value:
                raise SQLIntegrityError(
                    f"NaN violates PRIMARY KEY on {self.schema.name}.{column.name}"
                )

    def replace_rows(self, rows: Iterable[Tuple[object, ...]]) -> None:
        """Replace the full row set (used by UPDATE/DELETE); re-checks NOT
        NULL and the primary key, and leaves the table as it was if either
        fails."""
        new_rows = list(rows)
        for row in new_rows:
            self._check_not_null(row)
        pk = self.schema.primary_key_index
        if pk is not None:
            keys = [r[pk] for r in new_rows]
            if len(keys) != len(set(keys)):
                raise SQLIntegrityError(
                    f"duplicate primary key after update in table {self.schema.name!r}"
                )
            self._pk_values = set(keys)
        self.rows = new_rows
        self._index = None

    def key_range(self, low: Optional[Bound] = None, high: Optional[Bound] = None) -> List[Tuple[object, ...]]:
        """The rows between the primary-key cuts ``low`` and ``high``
        (None: open), in heap order."""
        if low is None and high is None:
            return self.rows
        index = self._index
        if index is None:
            rows, pk = self.rows, self.schema.primary_key_index
            keys = [sort_key(row[pk]) for row in rows]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            index = self._index = (rows, tuple(keys[i] for i in order), tuple(order))
        rows, keys, order = index
        start = 0 if low is None else (bisect_right if low[1] else bisect_left)(keys, low[0])
        stop = len(keys) if high is None else (bisect_right if high[1] else bisect_left)(keys, high[0])
        return [rows[i] for i in sorted(order[start:stop])]

    def snapshot(self) -> "Table":
        """Cheap copy for transaction rollback (rows are immutable tuples)."""
        clone = Table(self.schema)
        clone.rows = list(self.rows)
        clone._pk_values = set(self._pk_values)
        return clone

    # -- statistics ----------------------------------------------------------

    def column_values(self, name: str) -> List[object]:
        idx = self.schema.index_of(name)
        return [row[idx] for row in self.rows]

    def statistics(self) -> Dict[str, Dict[str, object]]:
        """Per-column stats: count, nulls, distinct, min, max.

        Drives the planner's selectivity estimates and the table
        understanding serializers.
        """
        stats: Dict[str, Dict[str, object]] = {}
        for column in self.schema.columns:
            values = self.column_values(column.name)
            non_null = [v for v in values if v is not None]
            entry: Dict[str, object] = {
                "count": len(values),
                "nulls": len(values) - len(non_null),
                "distinct": len(set(non_null)),
            }
            numeric = [v for v in non_null if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if numeric and len(numeric) == len(non_null):
                entry["min"] = min(numeric)
                entry["max"] = max(numeric)
                entry["mean"] = sum(numeric) / len(numeric)
            stats[column.name] = entry
        return stats


@dataclass
class Catalog:
    """Name → table mapping with case-insensitive lookup."""

    tables: Dict[str, Table] = field(default_factory=dict)

    def _key(self, name: str) -> str:
        return name.lower()

    def create(self, table: Table, if_not_exists: bool = False) -> None:
        """Register a table; raises on duplicates unless if_not_exists."""
        key = self._key(table.schema.name)
        if key in self.tables:
            if if_not_exists:
                return
            raise SQLCatalogError(f"table {table.schema.name!r} already exists")
        self.tables[key] = table

    def drop(self, name: str, if_exists: bool = False) -> None:
        """Remove a table; raises on unknown names unless if_exists."""
        key = self._key(name)
        if key not in self.tables:
            if if_exists:
                return
            raise SQLCatalogError(f"no such table: {name!r}")
        del self.tables[key]

    def get(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        key = self._key(name)
        if key not in self.tables:
            raise SQLCatalogError(f"no such table: {name!r}")
        return self.tables[key]

    def has(self, name: str) -> bool:
        return self._key(name) in self.tables

    def names(self) -> List[str]:
        return [t.schema.name for t in self.tables.values()]

    def snapshot(self) -> "Catalog":
        return Catalog(tables={k: t.snapshot() for k, t in self.tables.items()})
