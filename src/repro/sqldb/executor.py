"""Query execution for :mod:`repro.sqldb`.

The executor is a straightforward tuple-at-a-time interpreter: FROM produces
an environment stream (nested-loop joins), WHERE filters it, grouping folds
it, and projection/ORDER BY/LIMIT shape the output. Subqueries re-enter the
executor with the current environment as the outer scope, which is what makes
correlated ``EXISTS``/``IN`` work.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SQLCatalogError, SQLError, SQLTypeError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import Bound, Catalog, Column, Table, TableSchema
from repro.sqldb.semantic import (
    SemanticRuntime,
    classify_prompt,
    extract_prompt,
    filter_prompt,
    match_prompt,
    truthy_answer,
)
from repro.sqldb.types import SQLType, coerce, sort_key

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class ResultSet:
    """Columns + rows produced by a SELECT (or rowcount for DML)."""

    columns: List[str]
    rows: List[Tuple[object, ...]]
    rowcount: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """First column of the first row, or None when empty."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> List[object]:
        idx = [c.lower() for c in self.columns].index(name.lower())
        return [row[idx] for row in self.rows]


@dataclass
class Binding:
    """One FROM-clause source bound to an alias."""

    alias: str
    columns: List[str]  # lower-cased column names in order
    row: Tuple[object, ...]


@dataclass
class Environment:
    """A scope for name resolution; chains to the outer query's scope."""

    bindings: List[Binding] = field(default_factory=list)
    parent: Optional["Environment"] = None
    aliases: Dict[str, object] = field(default_factory=dict)  # output aliases

    def child(self, bindings: List[Binding]) -> "Environment":
        return Environment(bindings=bindings, parent=self)

    def lookup(self, name: str, table: Optional[str]) -> object:
        found = self._lookup_local(name, table)
        if found is not _MISSING:
            return found
        if self.parent is not None:
            return self.parent.lookup(name, table)
        where = f"{table}.{name}" if table else name
        raise SQLCatalogError(f"no such column: {where}")

    def _lookup_local(self, name: str, table: Optional[str]) -> object:
        lowered = name.lower()
        if table is not None:
            table_l = table.lower()
            for binding in self.bindings:
                if binding.alias.lower() == table_l and lowered in binding.columns:
                    return binding.row[binding.columns.index(lowered)]
            return _MISSING
        matches = [
            (b, b.columns.index(lowered)) for b in self.bindings if lowered in b.columns
        ]
        if len(matches) > 1:
            raise SQLCatalogError(f"ambiguous column reference: {name}")
        if matches:
            binding, idx = matches[0]
            return binding.row[idx]
        if lowered in self.aliases:
            return self.aliases[lowered]
        return _MISSING


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(value: object, context: str) -> float:
    if _is_number(value):
        return value  # type: ignore[return-value]
    raise SQLTypeError(f"{context} expects a number, got {value!r}")


# op -> the (low, high) cut `key op c` puts after (True) or before (False) c, or None.
_CUTS = {"<": (None, False), "<=": (None, True), ">": (True, None), ">=": (False, None), "=": (False, True)}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
# Conjuncts that may do more than reject a row: an LLM call, a subquery.
_EFFECTFUL = ast.SEMANTIC_NODE_TYPES + (ast.InSelect, ast.Exists, ast.ScalarSubquery)


def _constant(expr: ast.Expr) -> object:
    """A literal's value (unary minus folded), or None."""
    if isinstance(expr, ast.Unary) and expr.op == "-":
        value = _constant(expr.operand)
        return -value if _is_number(value) else None
    return expr.value if isinstance(expr, ast.Literal) else None


def key_bounds(
    where: Optional[ast.Expr], schema: TableSchema, binding: str
) -> Tuple[Optional[Bound], Optional[Bound]]:
    """The (low, high) cuts of :meth:`Table.key_range` that ``where``'s
    top-level ``pk BETWEEN c AND c`` and ``pk op c`` / ``c op pk`` conjuncts
    confine a scan of ``schema`` (bound as ``binding``) to: they compare by
    :func:`sort_key` as the range does, and a row outside it fails one AND
    conjunct. Stops at a conjunct that may call the LLM or run a subquery,
    so those still see every row a full scan shows them."""
    low: Optional[Bound] = None
    high: Optional[Bound] = None
    pk = schema.primary_key_index
    column = schema.columns[pk] if pk is not None else None
    for conjunct in ast.conjuncts(where) if column is not None else ():
        if any(isinstance(node, _EFFECTFUL) for node in ast.walk_expr(conjunct)):
            break
        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            limits = [(">=", conjunct.operand, conjunct.low), ("<=", conjunct.operand, conjunct.high)]
        elif isinstance(conjunct, ast.Binary) and conjunct.op in _MIRRORED:
            limits = [
                (conjunct.op, conjunct.left, conjunct.right),
                (_MIRRORED[conjunct.op], conjunct.right, conjunct.left),
            ]
        else:
            continue
        for op, ref, constant in limits:
            if not isinstance(ref, ast.ColumnRef) or (
                f"{ref.table or binding}.{ref.name}".lower() != f"{binding}.{column.name}".lower()
            ):
                continue
            value = _constant(constant)
            if value is None or op == "=" and (not _is_number(value) or column.sql_type is SQLType.BOOLEAN):
                continue  # NULL rejects every row; 1 = TRUE holds but sort keys differ
            (after_low, after_high), cut = _CUTS[op], sort_key(value)
            if after_low is not None:
                low = max(low or (cut, after_low), (cut, after_low))
            if after_high is not None:
                high = min(high or (cut, after_high), (cut, after_high))
    return low, high


class Executor:
    """Executes parsed statements against a :class:`Catalog`."""

    def __init__(self, catalog: Catalog, semantic: Optional[SemanticRuntime] = None) -> None:
        self.catalog = catalog
        self._semantic = semantic
        self._answers: Dict[str, str] = {}  # prompt -> prefetched, this statement

    @property
    def semantic(self) -> SemanticRuntime:
        """The semantic-operator runtime, created on first LLM touch so
        queries without semantic operators never build a provider."""
        if self._semantic is None:
            self._semantic = SemanticRuntime()
        return self._semantic

    def _set_at_a_time(self) -> bool:
        """Whether semantic operators are evaluated set-at-a-time (prefetch
        whole column batches) rather than per row."""
        return self._semantic is None or self._semantic.batch

    # ------------------------------------------------------------------ DDL

    def execute(self, statement: ast.Statement, env: Optional[Environment] = None) -> ResultSet:
        self._answers = {}
        if isinstance(statement, ast.Select):
            return self.execute_select(statement, env)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            return ResultSet(columns=[], rows=[])
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        raise SQLError(f"executor cannot handle {type(statement).__name__}")

    def _execute_create(self, stmt: ast.CreateTable) -> ResultSet:
        columns = tuple(
            Column(name=c.name, sql_type=c.sql_type, primary_key=c.primary_key, not_null=c.not_null)
            for c in stmt.columns
        )
        table = Table(TableSchema(name=stmt.name, columns=columns))
        self.catalog.create(table, if_not_exists=stmt.if_not_exists)
        return ResultSet(columns=[], rows=[])

    # ------------------------------------------------------------------ DML

    def _execute_insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.catalog.get(stmt.table)
        schema = table.schema
        if stmt.columns is not None:
            indexes = [schema.index_of(c) for c in stmt.columns]
        else:
            indexes = list(range(len(schema.columns)))

        def widen(partial: Sequence[object]) -> List[object]:
            if len(partial) != len(indexes):
                raise SQLError(
                    f"INSERT into {stmt.table!r}: {len(indexes)} columns but "
                    f"{len(partial)} values"
                )
            full: List[object] = [None] * len(schema.columns)
            for idx, value in zip(indexes, partial):
                full[idx] = value
            return full

        if stmt.select is not None:
            rows = [widen(row) for row in self.execute_select(stmt.select).rows]
        else:
            assert stmt.rows is not None
            empty = Environment()
            rows = [widen([self.eval_expr(e, empty) for e in value_row]) for value_row in stmt.rows]
        # All rows or none, as in sqlite: a later row's violation leaves no
        # earlier row of the statement stored.
        table.insert_many(rows)
        return ResultSet(columns=[], rows=[], rowcount=len(rows))

    def _table_env(self, table: Table, row: Tuple[object, ...]) -> Environment:
        binding = Binding(
            alias=table.schema.name,
            columns=[c.lower() for c in table.schema.column_names],
            row=row,
        )
        return Environment(bindings=[binding])

    def _execute_update(self, stmt: ast.Update) -> ResultSet:
        table = self.catalog.get(stmt.table)
        schema = table.schema
        assignment_idx = [(schema.index_of(c), e) for c, e in stmt.assignments]
        new_rows: List[Tuple[object, ...]] = []
        count = 0
        for row in table.rows:
            env = self._table_env(table, row)
            if stmt.where is None or self._truthy(self.eval_expr(stmt.where, env)):
                mutable = list(row)
                for idx, expr in assignment_idx:
                    value = self.eval_expr(expr, env)
                    mutable[idx] = coerce(value, schema.columns[idx].sql_type)
                new_rows.append(tuple(mutable))
                count += 1
            else:
                new_rows.append(row)
        table.replace_rows(new_rows)
        return ResultSet(columns=[], rows=[], rowcount=count)

    def _execute_delete(self, stmt: ast.Delete) -> ResultSet:
        table = self.catalog.get(stmt.table)
        kept: List[Tuple[object, ...]] = []
        count = 0
        for row in table.rows:
            env = self._table_env(table, row)
            if stmt.where is None or self._truthy(self.eval_expr(stmt.where, env)):
                count += 1
            else:
                kept.append(row)
        table.replace_rows(kept)
        return ResultSet(columns=[], rows=[], rowcount=count)

    # --------------------------------------------------------------- SELECT

    def execute_select(self, select: ast.Select, outer: Optional[Environment] = None) -> ResultSet:
        result = self._execute_simple_select(select, outer)
        for set_op in select.set_ops:
            right = self.execute_select(set_op.select, outer)
            result = self._apply_set_op(result, right, set_op)
        # ORDER BY / LIMIT of the outermost select apply after set ops; for
        # simple selects they were already applied inside, so only reapply
        # when set ops are present.
        if select.set_ops:
            result = self._order_limit_rows(result, select)
        return result

    def _apply_set_op(self, left: ResultSet, right: ResultSet, set_op: ast.SetOp) -> ResultSet:
        if len(left.columns) != len(right.columns):
            raise SQLError(
                f"{set_op.op} operands have different column counts: "
                f"{len(left.columns)} vs {len(right.columns)}"
            )
        if set_op.op == "UNION":
            rows = left.rows + right.rows
            if not set_op.all:
                rows = _dedupe(rows)
        elif set_op.op == "INTERSECT":
            right_set = set(right.rows)
            rows = _dedupe([r for r in left.rows if r in right_set])
        elif set_op.op == "EXCEPT":
            right_set = set(right.rows)
            rows = _dedupe([r for r in left.rows if r not in right_set])
        else:  # pragma: no cover - parser restricts ops
            raise SQLError(f"unknown set operation {set_op.op}")
        return ResultSet(columns=left.columns, rows=rows)

    def _order_limit_rows(self, result: ResultSet, select: ast.Select) -> ResultSet:
        rows = result.rows
        if select.order_by:
            col_lookup = {c.lower(): i for i, c in enumerate(result.columns)}

            def key_fn(row: Tuple[object, ...]) -> tuple:
                keys = []
                for item in select.order_by:
                    expr = item.expr
                    if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name.lower() in col_lookup:
                        value = row[col_lookup[expr.name.lower()]]
                    elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                        value = row[expr.value - 1]
                    else:
                        raise SQLError("ORDER BY after set operation must use output columns")
                    keys.append(sort_key(value))
                return tuple(keys)

            descending = [item.descending for item in select.order_by]
            rows = _multikey_sort(rows, key_fn, descending)
        if select.offset is not None:
            rows = rows[select.offset :]
        if select.limit is not None:
            rows = rows[: select.limit]
        return ResultSet(columns=result.columns, rows=rows)

    def _execute_simple_select(self, select: ast.Select, outer: Optional[Environment]) -> ResultSet:
        # When set operations follow, ORDER BY / LIMIT / OFFSET belong to
        # the compound result and are applied by the caller, not here.
        defer_shaping = bool(select.set_ops)
        # 1. FROM (a bare table reads only the key range WHERE confines it to)
        if select.source is not None:
            envs = self._scan(select.source, outer, select.where)
        else:
            envs = [Environment(bindings=[], parent=outer)]

        # 2. WHERE
        if select.where is not None:
            envs = self._filter_where(select.where, envs)

        grouped = bool(select.group_by) or select.having is not None or any(
            ast.contains_aggregate(item.expr) for item in select.items
        )

        output_columns = self._output_columns(select, envs, outer)

        # Set-at-a-time: warm the semantic cache for LLM expressions in the
        # projection / ORDER BY with one batch per operator, so the per-row
        # evaluation below never issues per-row provider calls.
        if not grouped:
            post_where = [
                item.expr for item in select.items if not isinstance(item.expr, ast.Star)
            ]
            post_where.extend(item.expr for item in select.order_by)
            semantic_exprs = [e for e in post_where if ast.contains_semantic(e)]
            if semantic_exprs:
                self._prefetch_semantic(semantic_exprs, envs)

        if grouped:
            rows_with_env = self._execute_grouped(select, envs)
        else:
            rows_with_env = []
            for env in envs:
                row = tuple(
                    value
                    for item in select.items
                    for value in self._project_item(item, env)
                )
                rows_with_env.append((row, env))

        # DISTINCT before ORDER BY (SQL semantics: DISTINCT applies to result).
        if select.distinct:
            seen = set()
            deduped = []
            for row, env in rows_with_env:
                if row not in seen:
                    seen.add(row)
                    deduped.append((row, env))
            rows_with_env = deduped

        # ORDER BY: may reference output aliases or source columns.
        if select.order_by and not defer_shaping:
            rows_with_env = self._order_rows(select, rows_with_env, output_columns)

        rows = [row for row, _env in rows_with_env]
        if not defer_shaping:
            if select.offset is not None:
                rows = rows[select.offset :]
            if select.limit is not None:
                rows = rows[: select.limit]
        return ResultSet(columns=output_columns, rows=rows)

    def _order_rows(
        self,
        select: ast.Select,
        rows_with_env: List[Tuple[Tuple[object, ...], Environment]],
        output_columns: List[str],
    ) -> List[Tuple[Tuple[object, ...], Environment]]:
        col_lookup = {c.lower(): i for i, c in enumerate(output_columns)}

        def key_fn(pair: Tuple[Tuple[object, ...], Environment]) -> tuple:
            row, env = pair
            keys = []
            for item in select.order_by:
                expr = item.expr
                value: object
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    value = row[expr.value - 1]
                elif (
                    isinstance(expr, ast.ColumnRef)
                    and expr.table is None
                    and expr.name.lower() in col_lookup
                ):
                    value = row[col_lookup[expr.name.lower()]]
                else:
                    if ast.contains_aggregate(expr):
                        value = self._eval_group_expr(expr, env)
                    else:
                        value = self.eval_expr(expr, env)
                keys.append(sort_key(value))
            return tuple(keys)

        descending = [item.descending for item in select.order_by]
        return _multikey_sort(rows_with_env, key_fn, descending)

    def _project_item(self, item: ast.SelectItem, env: Environment) -> List[object]:
        if isinstance(item.expr, ast.Star):
            values: List[object] = []
            for binding in env.bindings:
                if item.expr.table is not None and binding.alias.lower() != item.expr.table.lower():
                    continue
                values.extend(binding.row)
            return values
        return [self.eval_expr(item.expr, env)]

    def _output_columns(
        self, select: ast.Select, envs: List[Environment], outer: Optional[Environment]
    ) -> List[str]:
        names: List[str] = []
        # For star expansion we need binding column names even with zero rows;
        # regenerate bindings from the source when the env list is empty.
        template = envs[0] if envs else self._empty_env(select.source, outer)
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                for binding in template.bindings:
                    if item.expr.table is not None and binding.alias.lower() != item.expr.table.lower():
                        continue
                    names.extend(binding.columns)
                continue
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(str(item.expr))
        return names

    def _empty_env(self, source: Optional[ast.TableRef], outer: Optional[Environment]) -> Environment:
        if source is None:
            return Environment(bindings=[], parent=outer)
        bindings = self._source_bindings(source)
        return Environment(bindings=bindings, parent=outer)

    def _source_bindings(self, source: ast.TableRef) -> List[Binding]:
        """Bindings with empty rows, used only for schema discovery."""
        if isinstance(source, ast.TableName):
            table = self.catalog.get(source.name)
            cols = [c.lower() for c in table.schema.column_names]
            return [Binding(alias=source.binding, columns=cols, row=tuple([None] * len(cols)))]
        if isinstance(source, ast.SubquerySource):
            # Names only: executing the subquery here would bill its
            # semantic operators a second time.
            cols = [c.lower() for c in self._output_columns(source.select, [], None)]
            return [Binding(alias=source.alias, columns=cols, row=tuple([None] * len(cols)))]
        if isinstance(source, ast.Join):
            return self._source_bindings(source.left) + self._source_bindings(source.right)
        raise SQLError(f"unknown FROM source {type(source).__name__}")

    # ---------------------------------------------------------------- scans

    def _scan(self, source: ast.TableRef, outer: Optional[Environment], where=None) -> List[Environment]:
        binding_rows = self._scan_bindings(source, outer, where)
        return [Environment(bindings=bindings, parent=outer) for bindings in binding_rows]

    def _scan_bindings(
        self, source: ast.TableRef, outer: Optional[Environment], where: Optional[ast.Expr] = None
    ) -> List[List[Binding]]:
        if isinstance(source, ast.TableName):
            table = self.catalog.get(source.name)
            cols = [c.lower() for c in table.schema.column_names]
            alias = source.binding
            rows = table.key_range(*key_bounds(where, table.schema, alias))
            return [[Binding(alias=alias, columns=cols, row=row)] for row in rows]
        if isinstance(source, ast.SubquerySource):
            inner = self.execute_select(source.select, outer)
            cols = [c.lower() for c in inner.columns]
            return [[Binding(alias=source.alias, columns=cols, row=row)] for row in inner.rows]
        if isinstance(source, ast.Join):
            left_rows = self._scan_bindings(source.left, outer)
            right_rows = self._scan_bindings(source.right, outer)
            return self._join(source, left_rows, right_rows, outer)
        raise SQLError(f"unknown FROM source {type(source).__name__}")

    def _join(
        self,
        join: ast.Join,
        left_rows: List[List[Binding]],
        right_rows: List[List[Binding]],
        outer: Optional[Environment],
    ) -> List[List[Binding]]:
        if join.kind == "SEMANTIC":
            return self._semantic_join(join, left_rows, right_rows, outer)
        right_template = right_rows[0] if right_rows else self._source_bindings(join.right)
        hash_plan = self._hash_join_plan(join, left_rows, right_rows, outer)
        if hash_plan is not None:
            return self._hash_join(join, left_rows, right_rows, right_template, outer, hash_plan)
        out: List[List[Binding]] = []
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = left + right
                if join.on is not None:
                    env = Environment(bindings=combined, parent=outer)
                    if not self._truthy(self.eval_expr(join.on, env)):
                        continue
                matched = True
                out.append(combined)
            if join.kind == "LEFT" and not matched:
                null_right = [
                    Binding(alias=b.alias, columns=b.columns, row=tuple([None] * len(b.columns)))
                    for b in right_template
                ]
                out.append(left + null_right)
        return out

    def _hash_join_plan(
        self,
        join: ast.Join,
        left_rows: List[List[Binding]],
        right_rows: List[List[Binding]],
        outer: Optional[Environment],
    ) -> Optional[Tuple[ast.Expr, ast.Expr, Optional[ast.Expr]]]:
        """Detect an equi-join: ON is ``expr = expr`` (optionally AND-ed with
        a residual) where one side evaluates against the left bindings and
        the other against the right. Returns (left key, right key, residual)
        or None to fall back to the nested loop."""
        if join.kind not in ("INNER", "LEFT") or join.on is None:
            return None
        if not left_rows or not right_rows:
            return None
        # Split a top-level AND chain into one equality + residual.
        conjuncts: List[ast.Expr] = []
        stack = [join.on]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Binary) and node.op == "AND":
                stack.extend((node.left, node.right))
            else:
                conjuncts.append(node)
        equality = next(
            (
                c
                for c in conjuncts
                if isinstance(c, ast.Binary) and c.op == "="
            ),
            None,
        )
        if equality is None:
            return None
        residual: Optional[ast.Expr] = None
        for conjunct in conjuncts:
            if conjunct is equality:
                continue
            residual = (
                conjunct
                if residual is None
                else ast.Binary(op="AND", left=residual, right=conjunct)
            )

        def side_of(expr: ast.Expr) -> Optional[str]:
            """'left'/'right' if the expression evaluates purely against
            exactly one side's bindings (no outer references), else None —
            ambiguity falls back to the nested loop (which reports it)."""
            resolved = []
            for rows, side in ((left_rows, "left"), (right_rows, "right")):
                try:
                    # No parent env: outer/other-side references must fail.
                    self.eval_expr(expr, Environment(bindings=rows[0]))
                    resolved.append(side)
                except SQLError:
                    continue
            return resolved[0] if len(resolved) == 1 else None

        left_side = side_of(equality.left)
        right_side = side_of(equality.right)
        if left_side == "left" and right_side == "right":
            return equality.left, equality.right, residual
        if left_side == "right" and right_side == "left":
            return equality.right, equality.left, residual
        return None

    def _hash_join(
        self,
        join: ast.Join,
        left_rows: List[List[Binding]],
        right_rows: List[List[Binding]],
        right_template: List[Binding],
        outer: Optional[Environment],
        plan: Tuple[ast.Expr, ast.Expr, Optional[ast.Expr]],
    ) -> List[List[Binding]]:
        """Equi-join via a hash table on the right side — O(n + m) instead
        of the nested loop's O(n * m) for large inputs."""
        left_key, right_key, residual = plan
        table: Dict[object, List[List[Binding]]] = {}
        for right in right_rows:
            key = self.eval_expr(right_key, Environment(bindings=right, parent=outer))
            if key is None:
                continue  # NULL never equi-joins
            table.setdefault(_join_key(key), []).append(right)
        out: List[List[Binding]] = []
        for left in left_rows:
            key = self.eval_expr(left_key, Environment(bindings=left, parent=outer))
            matched = False
            if key is not None:
                for right in table.get(_join_key(key), []):
                    combined = left + right
                    if residual is not None:
                        env = Environment(bindings=combined, parent=outer)
                        if not self._truthy(self.eval_expr(residual, env)):
                            continue
                    matched = True
                    out.append(combined)
            if join.kind == "LEFT" and not matched:
                null_right = [
                    Binding(alias=b.alias, columns=b.columns, row=tuple([None] * len(b.columns)))
                    for b in right_template
                ]
                out.append(left + null_right)
        return out

    # --------------------------------------------------- semantic operators

    def _filter_where(self, where: ast.Expr, envs: List[Environment]) -> List[Environment]:
        """Apply WHERE. With semantic operators in set-at-a-time mode, split
        the top-level AND chain: cheap relational conjuncts filter first
        (shrinking the LLM's candidate set), then each semantic conjunct is
        prefetched as one batch over the survivors and applied per row from
        the cache. Row-set identical to evaluating ``where`` per row:
        :meth:`_truthy` accepts a row iff every conjunct is truthy,
        regardless of conjunct order.
        """
        if not self._set_at_a_time() or not ast.contains_semantic(where):
            return [e for e in envs if self._truthy(self.eval_expr(where, e))]
        relational: List[ast.Expr] = []
        semantic: List[ast.Expr] = []
        for conjunct in ast.conjuncts(where):
            (semantic if ast.contains_semantic(conjunct) else relational).append(conjunct)
        for conjunct in relational:
            envs = [e for e in envs if self._truthy(self.eval_expr(conjunct, e))]
        for conjunct in semantic:
            self._prefetch_semantic([conjunct], envs)
            envs = [e for e in envs if self._truthy(self.eval_expr(conjunct, e))]
        return envs

    def _semantic_join(
        self,
        join: ast.Join,
        left_rows: List[List[Binding]],
        right_rows: List[List[Binding]],
        outer: Optional[Environment],
    ) -> List[List[Binding]]:
        """SEMANTIC_JOIN: nested-loop pairing where MATCHES(...) conjuncts
        go to the LLM. Set-at-a-time mode filters pairs by the relational ON
        conjuncts first, then dispatches one batch per semantic conjunct
        over the surviving pairs; naive mode evaluates ``join.on`` per pair
        exactly as written."""
        if join.on is None:  # pragma: no cover - parser guarantees ON
            raise SQLError("SEMANTIC_JOIN requires an ON clause")
        if not self._set_at_a_time():
            out: List[List[Binding]] = []
            for left in left_rows:
                for right in right_rows:
                    combined = left + right
                    env = Environment(bindings=combined, parent=outer)
                    if self._truthy(self.eval_expr(join.on, env)):
                        out.append(combined)
            return out
        relational = [c for c in ast.conjuncts(join.on) if not ast.contains_semantic(c)]
        semantic = [c for c in ast.conjuncts(join.on) if ast.contains_semantic(c)]
        survivors: List[Tuple[List[Binding], Environment]] = []
        for left in left_rows:
            for right in right_rows:
                combined = left + right
                env = Environment(bindings=combined, parent=outer)
                if all(self._truthy(self.eval_expr(c, env)) for c in relational):
                    survivors.append((combined, env))
        for conjunct in semantic:
            self._prefetch_semantic([conjunct], [env for _b, env in survivors])
            survivors = [
                (bindings, env)
                for bindings, env in survivors
                if self._truthy(self.eval_expr(conjunct, env))
            ]
        return [bindings for bindings, _env in survivors]

    def _prefetch_semantic(self, exprs: Sequence[ast.Expr], envs: List[Environment]) -> None:
        """Warm the semantic cache: one provider batch per semantic operator
        node across all rows. Innermost nodes go first so an outer node's
        operand (itself semantic) resolves from the cache while its prompts
        are being built."""
        if not envs or not self._set_at_a_time():
            return
        nodes: List[ast.Expr] = []
        for expr in exprs:
            nodes.extend(ast.semantic_nodes(expr))
        nodes.sort(key=lambda n: len(ast.semantic_nodes(n)))
        for node in nodes:
            prompts: List[str] = []
            for env in envs:
                try:
                    prompt = self._semantic_prompt(node, env)
                except SQLError:
                    # Prefetch is best-effort; real evaluation will report.
                    continue
                if prompt is not None:
                    prompts.append(prompt)
            if prompts:
                self._answers.update(zip(prompts, self.semantic.prefetch(prompts)))

    def _semantic_prompt(self, node: ast.Expr, env: Environment) -> Optional[str]:
        """The exact prompt :meth:`eval_expr` would issue for ``node`` in
        ``env`` — None when NULL operands make the node NULL without any
        LLM call. Shared by prefetch and per-row paths: byte-identical
        prompts are what make cache hits (and bit-equivalence) exact."""
        if isinstance(node, ast.SemanticFilter):
            value = self.eval_expr(node.operand, env)
            return None if value is None else filter_prompt(node.predicate, value)
        if isinstance(node, ast.SemanticMatch):
            left = self.eval_expr(node.left, env)
            right = self.eval_expr(node.right, env)
            if left is None or right is None:
                return None
            return match_prompt(left, right)
        assert isinstance(node, ast.LLMFunc)
        value = self.eval_expr(node.operand, env)
        if value is None:
            return None
        if node.name == "LLM_CLASSIFY":
            return classify_prompt(value, node.params)
        return extract_prompt(value, node.params[0])

    # ------------------------------------------------------------- grouping

    def _execute_grouped(
        self, select: ast.Select, envs: List[Environment]
    ) -> List[Tuple[Tuple[object, ...], Environment]]:
        groups: Dict[tuple, List[Environment]] = {}
        order: List[tuple] = []
        if select.group_by:
            for env in envs:
                key = tuple(self.eval_expr(e, env) for e in select.group_by)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(env)
        else:
            key = ()
            groups[key] = list(envs)
            order.append(key)

        rows_with_env: List[Tuple[Tuple[object, ...], Environment]] = []
        for key in order:
            group_envs = groups[key]
            representative = group_envs[0] if group_envs else Environment()
            representative = _GroupEnvironment.wrap(representative, group_envs, self)
            if select.having is not None:
                if not self._truthy(self._eval_group_expr(select.having, representative)):
                    continue
            row: List[object] = []
            for item in select.items:
                if isinstance(item.expr, ast.Star):
                    raise SQLError("SELECT * cannot be combined with GROUP BY/aggregates")
                row.append(self._eval_group_expr(item.expr, representative))
            rows_with_env.append((tuple(row), representative))
        return rows_with_env

    def _eval_group_expr(self, expr: ast.Expr, env: Environment) -> object:
        """Evaluate an expression that may contain aggregate calls."""
        if isinstance(expr, ast.FuncCall) and expr.name in _AGGREGATES:
            if not isinstance(env, _GroupEnvironment):
                raise SQLError(f"aggregate {expr.name} used outside GROUP BY context")
            return env.aggregate(expr)
        if isinstance(expr, ast.Binary):
            if expr.op in ("AND", "OR"):
                return self._eval_logic(
                    expr.op,
                    lambda: self._eval_group_expr(expr.left, env),
                    lambda: self._eval_group_expr(expr.right, env),
                )
            return self._apply_binary(
                expr.op,
                self._eval_group_expr(expr.left, env),
                self._eval_group_expr(expr.right, env),
            )
        if isinstance(expr, ast.Unary):
            return self._apply_unary(expr.op, self._eval_group_expr(expr.operand, env))
        if isinstance(expr, ast.FuncCall):
            args = [self._eval_group_expr(a, env) for a in expr.args]
            return self._apply_function(expr.name, args)
        if isinstance(expr, ast.CaseWhen):
            for cond, result in expr.whens:
                if self._truthy(self._eval_group_expr(cond, env)):
                    return self._eval_group_expr(result, env)
            return self._eval_group_expr(expr.default, env) if expr.default else None
        return self.eval_expr(expr, env)

    # ---------------------------------------------------------- expressions

    def eval_expr(self, expr: ast.Expr, env: Environment) -> object:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            return env.lookup(expr.name, expr.table)
        if isinstance(expr, ast.Unary):
            return self._apply_unary(expr.op, self.eval_expr(expr.operand, env))
        if isinstance(expr, ast.Binary):
            if expr.op in ("AND", "OR"):
                return self._eval_logic(
                    expr.op,
                    lambda: self.eval_expr(expr.left, env),
                    lambda: self.eval_expr(expr.right, env),
                )
            return self._apply_binary(
                expr.op, self.eval_expr(expr.left, env), self.eval_expr(expr.right, env)
            )
        if isinstance(expr, ast.FuncCall):
            if expr.name in _AGGREGATES:
                return self._eval_group_expr(expr, env)
            args = [self.eval_expr(a, env) for a in expr.args]
            return self._apply_function(expr.name, args)
        if isinstance(expr, ast.InList):
            return self._eval_in_list(expr, env)
        if isinstance(expr, ast.InSelect):
            value = self.eval_expr(expr.operand, env)
            result = self.execute_select(expr.select, env)
            if len(result.columns) != 1:
                raise SQLError("IN subquery must return exactly one column")
            members = {row[0] for row in result.rows}
            if value is None:
                return None
            hit = value in members
            return (not hit) if expr.negated else hit
        if isinstance(expr, ast.Exists):
            result = self.execute_select(expr.select, env)
            hit = bool(result.rows)
            return (not hit) if expr.negated else hit
        if isinstance(expr, ast.ScalarSubquery):
            result = self.execute_select(expr.select, env)
            if len(result.columns) != 1:
                raise SQLError("scalar subquery must return exactly one column")
            return result.rows[0][0] if result.rows else None
        if isinstance(expr, ast.Between):
            value = self.eval_expr(expr.operand, env)
            low = self.eval_expr(expr.low, env)
            high = self.eval_expr(expr.high, env)
            if value is None or low is None or high is None:
                return None
            hit = sort_key(low) <= sort_key(value) <= sort_key(high)
            return (not hit) if expr.negated else hit
        if isinstance(expr, ast.Like):
            value = self.eval_expr(expr.operand, env)
            pattern = self.eval_expr(expr.pattern, env)
            if value is None or pattern is None:
                return None
            hit = bool(_like_to_regex(str(pattern)).match(str(value)))
            return (not hit) if expr.negated else hit
        if isinstance(expr, ast.IsNull):
            value = self.eval_expr(expr.operand, env)
            hit = value is None
            return (not hit) if expr.negated else hit
        if isinstance(expr, ast.CaseWhen):
            for cond, result_expr in expr.whens:
                if self._truthy(self.eval_expr(cond, env)):
                    return self.eval_expr(result_expr, env)
            return self.eval_expr(expr.default, env) if expr.default is not None else None
        if isinstance(expr, (ast.SemanticFilter, ast.SemanticMatch)):
            prompt = self._semantic_prompt(expr, env)
            if prompt is None:
                return None  # NULL operand: NULL predicate, no LLM call
            return truthy_answer(self._answer(prompt))
        if isinstance(expr, ast.LLMFunc):
            prompt = self._semantic_prompt(expr, env)
            if prompt is None:
                return None
            return self._answer(prompt)
        if isinstance(expr, ast.Star):
            raise SQLError("'*' is only valid in a select list or COUNT(*)")
        raise SQLError(f"cannot evaluate expression {type(expr).__name__}")

    def _answer(self, prompt: str) -> str:
        """A prompt this statement prefetched is read back, not asked
        again: the runtime counts and looks it up once per statement."""
        answer = self._answers.get(prompt)
        return self.semantic.answer(prompt) if answer is None else answer

    def _eval_in_list(self, expr: ast.InList, env: Environment) -> object:
        value = self.eval_expr(expr.operand, env)
        if value is None:
            return None
        members = [self.eval_expr(i, env) for i in expr.items]
        hit = any(m is not None and _sql_equal(value, m) for m in members)
        return (not hit) if expr.negated else hit

    @staticmethod
    def _truthy(value: object) -> bool:
        """WHERE semantics: NULL and FALSE reject the row."""
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        return bool(value)

    def _eval_logic(self, op: str, left_fn: Callable[[], object], right_fn: Callable[[], object]) -> object:
        """Kleene three-valued AND/OR with short-circuiting."""
        left = _to_bool3(left_fn())
        if op == "AND":
            if left is False:
                return False
            right = _to_bool3(right_fn())
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        # OR
        if left is True:
            return True
        right = _to_bool3(right_fn())
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    def _apply_unary(self, op: str, value: object) -> object:
        if op == "NOT":
            b = _to_bool3(value)
            return None if b is None else (not b)
        if value is None:
            return None
        if op == "-":
            return -_numeric(value, "unary -")
        if op == "+":
            return +_numeric(value, "unary +")
        raise SQLError(f"unknown unary operator {op}")

    def _apply_binary(self, op: str, left: object, right: object) -> object:
        if op == "||":
            if left is None or right is None:
                return None
            return _stringify(left) + _stringify(right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if left is None or right is None:
                return None
            if op == "=":
                return _sql_equal(left, right)
            if op == "<>":
                return not _sql_equal(left, right)
            # Cross-type ordering uses sort_key's fixed type ranking.
            lk, rk = sort_key(left), sort_key(right)
            if op == "<":
                return lk < rk
            if op == "<=":
                return lk <= rk
            if op == ">":
                return lk > rk
            return lk >= rk
        if left is None or right is None:
            return None
        lnum = _numeric(left, f"operator {op}")
        rnum = _numeric(right, f"operator {op}")
        if op == "+":
            return lnum + rnum
        if op == "-":
            return lnum - rnum
        if op == "*":
            return lnum * rnum
        if op == "/":
            if rnum == 0:
                return None
            if isinstance(lnum, int) and isinstance(rnum, int):
                return lnum // rnum if lnum % rnum == 0 else lnum / rnum
            return lnum / rnum
        if op == "%":
            if rnum == 0:
                return None
            return lnum % rnum
        raise SQLError(f"unknown binary operator {op}")

    def _apply_function(self, name: str, args: List[object]) -> object:
        if name == "COALESCE":
            for a in args:
                if a is not None:
                    return a
            return None
        if name == "NULLIF":
            if len(args) != 2:
                raise SQLError("NULLIF expects 2 arguments")
            return None if _sql_equal(args[0], args[1]) else args[0]
        if name.startswith("CAST_"):
            return coerce(args[0], SQLType(name[len("CAST_") :]))
        # NULL-propagating scalar functions.
        if any(a is None for a in args):
            return None
        if name == "UPPER":
            return _stringify(args[0]).upper()
        if name == "LOWER":
            return _stringify(args[0]).lower()
        if name == "LENGTH":
            return len(_stringify(args[0]))
        if name == "TRIM":
            return _stringify(args[0]).strip()
        if name == "ABS":
            return abs(_numeric(args[0], "ABS"))
        if name == "ROUND":
            digits = int(_numeric(args[1], "ROUND")) if len(args) > 1 else 0
            return round(_numeric(args[0], "ROUND"), digits)
        if name == "FLOOR":
            return math.floor(_numeric(args[0], "FLOOR"))
        if name == "CEIL":
            return math.ceil(_numeric(args[0], "CEIL"))
        if name == "SUBSTR":
            text = _stringify(args[0])
            start = int(_numeric(args[1], "SUBSTR")) - 1
            if start < 0:
                start = max(len(text) + start + 1, 0)
            if len(args) > 2:
                length = int(_numeric(args[2], "SUBSTR"))
                return text[start : start + length]
            return text[start:]
        if name == "REPLACE":
            if len(args) != 3:
                raise SQLError("REPLACE expects 3 arguments")
            return _stringify(args[0]).replace(_stringify(args[1]), _stringify(args[2]))
        if name == "INSTR":
            return _stringify(args[0]).find(_stringify(args[1])) + 1
        raise SQLError(f"unknown function {name}")


class _GroupEnvironment(Environment):
    """Environment standing for a whole group during aggregation."""

    def __init__(self, representative: Environment, group: List[Environment], executor: Executor):
        super().__init__(
            bindings=representative.bindings,
            parent=representative.parent,
            aliases=representative.aliases,
        )
        self.group = group
        self.executor = executor

    @classmethod
    def wrap(
        cls, representative: Environment, group: List[Environment], executor: Executor
    ) -> "_GroupEnvironment":
        if isinstance(representative, cls):
            return representative
        return cls(representative, group, executor)

    def aggregate(self, call: ast.FuncCall) -> object:
        if call.name == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            return len(self.group)
        if len(call.args) != 1:
            raise SQLError(f"{call.name} expects exactly one argument")
        values = [self.executor.eval_expr(call.args[0], env) for env in self.group]
        values = [v for v in values if v is not None]
        if call.distinct:
            seen = set()
            unique = []
            for v in values:
                if v not in seen:
                    seen.add(v)
                    unique.append(v)
            values = unique
        if call.name == "COUNT":
            return len(values)
        if not values:
            return None
        if call.name == "SUM":
            return sum(_numeric(v, "SUM") for v in values)
        if call.name == "AVG":
            return sum(_numeric(v, "AVG") for v in values) / len(values)
        if call.name == "MIN":
            return min(values, key=sort_key)
        if call.name == "MAX":
            return max(values, key=sort_key)
        raise SQLError(f"unknown aggregate {call.name}")


def _to_bool3(value: object) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _sql_equal(left: object, right: object) -> bool:
    if _is_number(left) and _is_number(right):
        return float(left) == float(right)  # type: ignore[arg-type]
    if isinstance(left, bool) and isinstance(right, bool):
        return left == right
    return left == right


def _stringify(value: object) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _join_key(value: object) -> object:
    """Hash-join key normalization. Python already hashes 1, 1.0 and True
    to the same bucket, matching SQL numeric equality, so the value itself
    is the key; NULLs are filtered before this is called."""
    return value


def _dedupe(rows: List[Tuple[object, ...]]) -> List[Tuple[object, ...]]:
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _multikey_sort(items: list, key_fn, descending: List[bool]) -> list:
    """Stable multi-key sort with per-key direction."""
    decorated = [(key_fn(item), i, item) for i, item in enumerate(items)]
    # Sort by keys right-to-left for stability.
    for idx in range(len(descending) - 1, -1, -1):
        decorated.sort(key=lambda t: t[0][idx], reverse=descending[idx])
    return [item for _k, _i, item in decorated]
