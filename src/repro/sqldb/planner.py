"""Plan inspection and an analytic cost model for SELECT statements.

The cost model serves three purposes in the reproduction:

* ``EXPLAIN``-style plan rendering for debugging generated SQL (Fig 2);
* a deterministic "execution time" oracle: the training-data generation
  experiment (Fig 3 / Section II-A2) needs ⟨query, execution_time⟩ pairs, and
  the paper's authors measured a real DBMS. We substitute an analytic cost
  model over table statistics — the prediction task (learn execution time
  from query features) is preserved because the mapping is non-trivial but
  learnable;
* driving the semantic-operator rewrite (:func:`optimize_semantic`): one
  LLM call costs orders of magnitude more than a row scan
  (:data:`_SEMANTIC_CALL_MS` vs :data:`_SCAN_MS`), so the planner pushes
  cheap relational conjuncts ahead of LLM predicates and below joins — the
  estimated LLM call count is proportional to the rows that survive the
  relational work, discounted by the expected semantic-cache hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import Catalog
from repro.sqldb.executor import key_bounds
from repro.sqldb.parser import parse_statement
from repro.sqldb.semantic import CALL_OVERHEAD_MS, PER_ITEM_MS


@dataclass(frozen=True)
class EstimatedCost:
    """Breakdown of the analytic cost model for one SELECT."""

    scan_rows: float
    join_rows: float
    sort_rows: float
    group_rows: float
    subquery_cost: float
    total_ms: float
    semantic_calls: float = 0.0
    semantic_ms: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "scan_rows": self.scan_rows,
            "join_rows": self.join_rows,
            "sort_rows": self.sort_rows,
            "group_rows": self.group_rows,
            "subquery_cost": self.subquery_cost,
            "total_ms": self.total_ms,
            "semantic_calls": self.semantic_calls,
            "semantic_ms": self.semantic_ms,
        }


@dataclass(frozen=True)
class SemanticOpCost:
    """Estimated LLM cost of one semantic operator in a plan."""

    kind: str  # 'filter' | 'join' | 'udf'
    label: str  # rendered operator, e.g. "SEMANTIC_FILTER(body, '...')"
    calls: float  # expected provider items after the cache discount
    ms: float  # batched dispatch estimate


# Calibration constants (ms per processed row, per phase). Arbitrary but
# fixed: the learning task only needs a stable, feature-dependent target.
_SCAN_MS = 0.0005
_JOIN_MS = 0.0020
_SORT_MS = 0.0008
_GROUP_MS = 0.0010
_BASE_MS = 0.05

# One LLM call is ~5 orders of magnitude above a row scan; a batched
# operator pays one dispatch overhead plus a per-item charge (mirroring
# SemanticRuntime's simulated-latency model).
_SEMANTIC_CALL_MS = CALL_OVERHEAD_MS
_SEMANTIC_ITEM_MS = PER_ITEM_MS

_SELECTIVITY = 0.4  # each predicate conjunct keeps 40% of rows


def _as_select(query: Union[str, ast.Select]) -> ast.Select:
    if isinstance(query, ast.Select):
        return query
    stmt = parse_statement(query)
    if not isinstance(stmt, ast.Select):
        raise TypeError("cost estimation requires a SELECT statement")
    return stmt


def _source_tables(source: Optional[ast.TableRef]) -> List[ast.TableName]:
    """The base tables this FROM clause scans *directly*. A FROM-subquery's
    inner tables are intentionally NOT included: they belong to the
    subquery, whose cost `_collect_subqueries` already charges — recursing
    here double-counted every FROM-subquery table."""
    if source is None:
        return []
    if isinstance(source, ast.TableName):
        return [source]
    if isinstance(source, ast.Join):
        return _source_tables(source.left) + _source_tables(source.right)
    return []


def _flat_refs(source: Optional[ast.TableRef]) -> List[ast.TableRef]:
    """The top-level FROM items (join-tree leaves), left to right."""
    if source is None:
        return []
    if isinstance(source, ast.Join):
        return _flat_refs(source.left) + _flat_refs(source.right)
    return [source]


def _ref_rows(ref: ast.TableRef, catalog: Catalog) -> float:
    """Estimated rows one FROM item feeds into the join tree."""
    if isinstance(ref, ast.TableName):
        if catalog.has(ref.name):
            return float(max(len(catalog.get(ref.name)), 1))
        return 100.0  # Unknown table: nominal size.
    if isinstance(ref, ast.SubquerySource):
        return _select_out_rows(ref.select, catalog)
    return 100.0


def _select_out_rows(select: ast.Select, catalog: Catalog) -> float:
    """Estimated output cardinality of a (sub)select."""
    sizes = [_ref_rows(r, catalog) for r in _flat_refs(select.source)]
    if not sizes:
        return 1.0
    acc = sizes[0]
    for size in sizes[1:]:
        acc = max(acc, size)
    acc *= _SELECTIVITY ** _predicate_count(select)
    if select.limit is not None:
        acc = min(acc, float(select.limit))
    return max(acc, 1.0)


def _collect_subqueries(select: ast.Select) -> List[ast.Select]:
    out: List[ast.Select] = []
    exprs: List[ast.Expr] = [i.expr for i in select.items]
    if select.where is not None:
        exprs.append(select.where)
    if select.having is not None:
        exprs.append(select.having)
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.InSelect, ast.Exists, ast.ScalarSubquery)):
                out.append(node.select)
    if select.source is not None:
        stack: List[ast.TableRef] = [select.source]
        while stack:
            ref = stack.pop()
            if isinstance(ref, ast.SubquerySource):
                out.append(ref.select)
            elif isinstance(ref, ast.Join):
                stack.extend((ref.left, ref.right))
    for set_op in select.set_ops:
        out.append(set_op.select)
    return out


def _is_predicate_conjunct(conjunct: ast.Expr) -> bool:
    """Does this top-level AND conjunct constrain rows at all?"""
    for node in ast.walk_expr(conjunct):
        if isinstance(node, ast.Binary) and node.op in ("=", "<>", "<", "<=", ">", ">="):
            return True
        if isinstance(node, (ast.Like, ast.Between, ast.InList, ast.IsNull)):
            return True
        if isinstance(node, (ast.SemanticFilter, ast.SemanticMatch)):
            return True
    return False


def _predicate_count(select: ast.Select) -> int:
    """Number of top-level AND conjuncts of WHERE that filter rows.

    Counting every comparison in the tree (the old behaviour) treated the
    branches of ``a = 1 OR b = 2`` as two independent conjuncts and
    squared the selectivity of a predicate that actually *widens* the
    filter; a disjunction is one conjunct however many comparisons it
    contains.
    """
    if select.where is None:
        return 0
    return sum(1 for c in ast.conjuncts(select.where) if _is_predicate_conjunct(c))


# ----------------------------------------------------------------- costing


def _batched_ms(calls: float) -> float:
    """Latency of one set-at-a-time dispatch of ``calls`` prompts."""
    if calls <= 0:
        return 0.0
    return _SEMANTIC_CALL_MS + calls * _SEMANTIC_ITEM_MS


def _node_kind(node: ast.Expr) -> str:
    if isinstance(node, ast.SemanticFilter):
        return "filter"
    if isinstance(node, ast.SemanticMatch):
        return "join"
    return "udf"


def _cost_detail(
    select: ast.Select, catalog: Catalog, hit_rate: float
) -> Tuple[EstimatedCost, List[SemanticOpCost]]:
    hit = min(max(hit_rate, 0.0), 1.0)
    ops: List[SemanticOpCost] = []

    def charge(node: ast.Expr, rows: float, kind: Optional[str] = None) -> None:
        calls = rows * (1.0 - hit)
        ops.append(
            SemanticOpCost(
                kind=kind or _node_kind(node),
                label=str(node),
                calls=calls,
                ms=_batched_ms(calls),
            )
        )

    def walk_source(source: Optional[ast.TableRef]) -> Tuple[float, float, float]:
        """Returns (out_rows, scan_rows, join_rows) for a FROM tree."""
        if source is None:
            return 0.0, 0.0, 0.0
        if isinstance(source, (ast.TableName, ast.SubquerySource)):
            rows = _ref_rows(source, catalog)
            return rows, rows, 0.0
        assert isinstance(source, ast.Join)
        l_out, l_scan, l_join = walk_source(source.left)
        r_out, r_scan, r_join = walk_source(source.right)
        pair = l_out * r_out
        if source.kind == "SEMANTIC" and source.on is not None:
            # Relational ON conjuncts prune pairs before the LLM sees them.
            on_conjuncts = ast.conjuncts(source.on)
            relational = sum(
                1
                for c in on_conjuncts
                if not ast.contains_semantic(c) and _is_predicate_conjunct(c)
            )
            candidates = pair * (_SELECTIVITY ** relational)
            for conjunct in on_conjuncts:
                if ast.contains_semantic(conjunct):
                    for node in ast.semantic_nodes(conjunct):
                        charge(node, candidates, kind="join")
        return max(l_out, r_out), l_scan + r_scan, l_join + r_join + pair

    out_rows, scan_rows, join_rows = walk_source(select.source)

    # WHERE conjuncts in *written* order: a semantic conjunct's LLM call
    # count is the rows that reach it, so reordering relational conjuncts
    # ahead of it genuinely lowers the estimate.
    rows = out_rows
    if select.where is not None:
        for conjunct in ast.conjuncts(select.where):
            if ast.contains_semantic(conjunct):
                for node in ast.semantic_nodes(conjunct):
                    charge(node, rows)
                rows *= _SELECTIVITY
            elif _is_predicate_conjunct(conjunct):
                rows *= _SELECTIVITY
    out_rows = rows

    # LLM expressions past WHERE run once per output row.
    post_where: List[ast.Expr] = [
        i.expr for i in select.items if not isinstance(i.expr, ast.Star)
    ]
    post_where.extend(select.group_by)
    if select.having is not None:
        post_where.append(select.having)
    post_where.extend(o.expr for o in select.order_by)
    for expr in post_where:
        for node in ast.semantic_nodes(expr):
            charge(node, out_rows)

    sort_rows = out_rows if select.order_by else 0.0
    group_rows = out_rows if (select.group_by or select.having) else 0.0

    subquery_cost = 0.0
    for sub in _collect_subqueries(select):
        subquery_cost += _cost_detail(sub, catalog, hit)[0].total_ms

    semantic_calls = sum(op.calls for op in ops)
    semantic_ms = sum(op.ms for op in ops)
    total = (
        _BASE_MS
        + scan_rows * _SCAN_MS
        + join_rows * _JOIN_MS
        + sort_rows * _SORT_MS
        + group_rows * _GROUP_MS
        + subquery_cost
        + semantic_ms
    )
    cost = EstimatedCost(
        scan_rows=scan_rows,
        join_rows=join_rows,
        sort_rows=sort_rows,
        group_rows=group_rows,
        subquery_cost=subquery_cost,
        total_ms=round(total, 6),
        semantic_calls=round(semantic_calls, 6),
        semantic_ms=round(semantic_ms, 6),
    )
    return cost, ops


def estimate_cost(
    query: Union[str, ast.Select],
    catalog: Catalog,
    semantic_hit_rate: float = 0.0,
) -> EstimatedCost:
    """Estimate the execution cost of ``query`` against ``catalog``.

    Selectivity model: each conjunct predicate keeps 40% of rows; joins are
    assumed key/foreign-key (output = max input side); GROUP BY reduces to
    the product of distinct counts capped by input size. Semantic operators
    charge one batched LLM dispatch sized by the rows that reach them,
    discounted by ``semantic_hit_rate`` (the expected semantic-cache hit
    rate).
    """
    return _cost_detail(_as_select(query), catalog, semantic_hit_rate)[0]


# ----------------------------------------------------- semantic plan rewrite


def select_contains_semantic(select: ast.Select) -> bool:
    """True if any part of the statement needs the LLM."""
    for expr in _select_exprs(select):
        if ast.contains_semantic(expr):
            return True
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.InSelect, ast.Exists, ast.ScalarSubquery)):
                if select_contains_semantic(node.select):
                    return True
    stack: List[ast.TableRef] = [select.source] if select.source is not None else []
    while stack:
        ref = stack.pop()
        if isinstance(ref, ast.Join):
            if ref.kind == "SEMANTIC":
                return True
            if ref.on is not None and ast.contains_semantic(ref.on):
                return True
            stack.extend((ref.left, ref.right))
        elif isinstance(ref, ast.SubquerySource):
            if select_contains_semantic(ref.select):
                return True
    return any(select_contains_semantic(s.select) for s in select.set_ops)


def _select_exprs(select: ast.Select) -> List[ast.Expr]:
    exprs = [i.expr for i in select.items if not isinstance(i.expr, ast.Star)]
    if select.where is not None:
        exprs.append(select.where)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(select.group_by)
    exprs.extend(o.expr for o in select.order_by)
    return exprs


def _pushable_bindings(source: Optional[ast.TableRef]) -> Dict[str, ast.TableName]:
    """Base-table bindings a single-table predicate may be pushed into:
    reachable through INNER/CROSS/SEMANTIC joins, or the *left* side of a
    LEFT join (filtering the null-padded right side would change results).
    """
    out: Dict[str, ast.TableName] = {}

    def walk(ref: Optional[ast.TableRef], pushable: bool) -> None:
        if isinstance(ref, ast.Join):
            walk(ref.left, pushable)
            walk(ref.right, pushable and ref.kind != "LEFT")
        elif isinstance(ref, ast.TableName) and pushable:
            out[ref.binding.lower()] = ref

    walk(source, True)
    return out


def _column_owners(
    source: Optional[ast.TableRef], catalog: Catalog
) -> Tuple[Dict[str, Optional[str]], bool]:
    """Map unqualified column name -> owning binding (None if ambiguous).
    The second value is True when some FROM item's columns are unknown
    (subquery or uncataloged table) — unqualified references are then
    unresolvable and nothing unqualified may be pushed."""
    owners: Dict[str, Optional[str]] = {}
    opaque = False
    for leaf in _flat_refs(source):
        if isinstance(leaf, ast.TableName) and catalog.has(leaf.name):
            binding = leaf.binding.lower()
            for col in catalog.get(leaf.name).schema.column_names:
                key = col.lower()
                if key in owners and owners[key] != binding:
                    owners[key] = None
                else:
                    owners.setdefault(key, binding)
        else:
            opaque = True
    return owners, opaque


def _conjunct_binding(
    conjunct: ast.Expr,
    owners: Dict[str, Optional[str]],
    opaque: bool,
) -> Optional[str]:
    """The single binding this conjunct reads, or None when it reads zero
    or several bindings, contains a subquery, or cannot be resolved."""
    refs: List[ast.ColumnRef] = []
    for node in ast.walk_expr(conjunct):
        if isinstance(node, (ast.InSelect, ast.Exists, ast.ScalarSubquery)):
            return None  # correlated evaluation must stay above the join
        if isinstance(node, ast.ColumnRef):
            refs.append(node)
    if not refs:
        return None
    bindings = set()
    for ref in refs:
        if ref.table is not None:
            bindings.add(ref.table.lower())
        elif not opaque and owners.get(ref.name.lower()) is not None:
            bindings.add(owners[ref.name.lower()])
        else:
            return None
    return bindings.pop() if len(bindings) == 1 else None


def _push_into_source(
    source: ast.TableRef, pushed: Dict[str, List[ast.Expr]]
) -> ast.TableRef:
    def walk(ref: ast.TableRef, pushable: bool) -> ast.TableRef:
        if isinstance(ref, ast.Join):
            return replace(
                ref,
                left=walk(ref.left, pushable),
                right=walk(ref.right, pushable and ref.kind != "LEFT"),
            )
        if isinstance(ref, ast.TableName) and pushable:
            predicates = pushed.get(ref.binding.lower())
            if predicates:
                inner = ast.Select(
                    items=[ast.SelectItem(expr=ast.Star())],
                    source=ast.TableName(name=ref.name, alias=ref.alias),
                    where=ast.conjoin(list(predicates)),
                )
                return ast.SubquerySource(select=inner, alias=ref.binding)
        return ref

    return walk(source, True)


def _take_pushable(
    conjuncts: List[ast.Expr],
    eligible: Dict[str, ast.TableName],
    owners: Dict[str, Optional[str]],
    opaque: bool,
    pushed: Dict[str, List[ast.Expr]],
) -> List[ast.Expr]:
    """File each relational conjunct that reads exactly one ``eligible``
    binding under that binding in ``pushed``; return the rest in order."""
    kept: List[ast.Expr] = []
    for conjunct in conjuncts:
        binding = (
            None
            if ast.contains_semantic(conjunct)
            else _conjunct_binding(conjunct, owners, opaque)
        )
        if binding is not None and binding in eligible:
            pushed.setdefault(binding, []).append(conjunct)
        else:
            kept.append(conjunct)
    return kept


def _take_join_guards(
    source: ast.TableRef,
    owners: Dict[str, Optional[str]],
    opaque: bool,
    pushed: Dict[str, List[ast.Expr]],
) -> ast.TableRef:
    """Strip the pushable ON conjuncts off every SEMANTIC join in
    ``source`` (into ``pushed``). A SEMANTIC join is inner, so a guard on
    one of its own tables holds for a pair iff it holds for that table's
    row; joins under the right side of a LEFT join keep their ON whole."""

    def walk(ref: ast.TableRef, pushable: bool) -> ast.TableRef:
        if not isinstance(ref, ast.Join):
            return ref
        on = ref.on
        if ref.kind == "SEMANTIC" and pushable:
            kept = _take_pushable(
                ast.conjuncts(on), _pushable_bindings(ref), owners, opaque, pushed
            )
            on = ast.conjoin(kept)  # never empty: the parser requires a MATCHES
        return replace(
            ref,
            left=walk(ref.left, pushable),
            right=walk(ref.right, pushable and ref.kind != "LEFT"),
            on=on,
        )

    return walk(source, True)


def optimize_semantic(select: ast.Select, catalog: Catalog) -> ast.Select:
    """Rewrite a semantic SELECT so relational work runs before LLM work.

    Two result-preserving transformations:

    1. **Conjunct reordering** — the top-level AND chain of WHERE is
       stably reordered with relational conjuncts first. WHERE accepts a
       row iff every conjunct is truthy, so order cannot change the row
       set; it only changes how many rows survive to each LLM predicate.
    2. **Predicate pushdown** — a relational conjunct reading exactly one
       base table is pushed below the joins into that table's scan
       (wrapping it in a filtered FROM-subquery), shrinking the pair sets
       a SEMANTIC_JOIN offers to the LLM. This applies to WHERE conjuncts
       and to the ON conjuncts of a SEMANTIC join (a guard such as
       ``p.id BETWEEN 1 AND 4`` is then checked once per row, not once
       per pair). Pushing through INNER/CROSS/SEMANTIC joins and the left
       side of LEFT joins is sound; the right side of a LEFT join is left
       alone. Conjuncts that read both sides or contain a subquery stay
       where they were written.

    Statements without semantic operators (and compound set-operation
    statements) are returned unchanged. The input is never mutated.
    """
    if select.set_ops or not select_contains_semantic(select):
        return select
    relational: List[ast.Expr] = []
    semantic: List[ast.Expr] = []
    for conjunct in ast.conjuncts(select.where):
        (semantic if ast.contains_semantic(conjunct) else relational).append(conjunct)
    new_source = select.source
    if new_source is not None:
        owners, opaque = _column_owners(new_source, catalog)
        pushed: Dict[str, List[ast.Expr]] = {}
        new_source = _take_join_guards(new_source, owners, opaque, pushed)
        relational = _take_pushable(
            relational, _pushable_bindings(new_source), owners, opaque, pushed
        )
        if pushed:
            new_source = _push_into_source(new_source, pushed)
    return replace(select, where=ast.conjoin(relational + semantic), source=new_source)


# ----------------------------------------------------------------- features


def query_features(query: Union[str, ast.Select], catalog: Optional[Catalog] = None) -> Dict[str, float]:
    """Extract numeric features of a SELECT for learned cost models.

    These are the features the paper's ⟨query, execution_time⟩ generation
    scenario (Fig 3) exposes to the LLM via the prompt.
    """
    select = _as_select(query)
    tables = _source_tables(select.source)
    subqueries = _collect_subqueries(select)
    semantic_ops = sum(len(ast.semantic_nodes(e)) for e in _select_exprs(select))
    if select.source is not None:
        stack: List[ast.TableRef] = [select.source]
        while stack:
            ref = stack.pop()
            if isinstance(ref, ast.Join):
                if ref.on is not None:
                    semantic_ops += len(ast.semantic_nodes(ref.on))
                stack.extend((ref.left, ref.right))
    features: Dict[str, float] = {
        "num_tables": float(len(tables)),
        "num_joins": float(max(len(tables) - 1, 0)),
        "num_predicates": float(_predicate_count(select)),
        "num_subqueries": float(len(subqueries)),
        "has_group_by": 1.0 if select.group_by else 0.0,
        "has_order_by": 1.0 if select.order_by else 0.0,
        "has_distinct": 1.0 if select.distinct else 0.0,
        "num_output_columns": float(len(select.items)),
        "has_limit": 1.0 if select.limit is not None else 0.0,
        "num_aggregates": float(
            sum(1 for i in select.items if ast.contains_aggregate(i.expr))
        ),
        "num_semantic_ops": float(semantic_ops),
    }
    if catalog is not None:
        total = sum(len(catalog.get(t.name)) for t in tables if catalog.has(t.name))
        features["total_input_rows"] = float(total)
    return features


# ------------------------------------------------------------------ explain


def explain(
    query: Union[str, ast.Select],
    catalog: Catalog,
    semantic_hit_rate: float = 0.0,
    optimize: bool = True,
) -> str:
    """Render a simple textual plan with cost annotations.

    Semantic statements are first passed through :func:`optimize_semantic`
    (unless ``optimize=False``), so the rendered plan is the one the
    engine actually runs; each semantic operator gets a line with its
    estimated LLM call count and latency under the assumed cache hit rate.
    """
    select = _as_select(query)
    if optimize and select_contains_semantic(select):
        select = optimize_semantic(select, catalog)
    cost, ops = _cost_detail(select, catalog, semantic_hit_rate)
    lines: List[str] = [f"SELECT (est {cost.total_ms:.3f} ms)"]
    if ops:
        lines.append(
            f"  LLM COST {cost.semantic_calls:.1f} calls, {cost.semantic_ms:.1f} ms "
            f"(assuming {semantic_hit_rate:.0%} cache hits)"
        )

    def render_source(source: Optional[ast.TableRef], depth: int, where=None) -> None:
        pad = "  " * depth
        if source is None:
            lines.append(f"{pad}NO TABLE")
            return
        if isinstance(source, ast.TableName):
            table = catalog.get(source.name) if catalog.has(source.name) else None
            bounds = (None, None) if table is None else key_bounds(where, table.schema, source.binding)
            if bounds == (None, None):
                lines.append(f"{pad}SCAN {source.name} ({-1 if table is None else len(table)} rows)")
            else:
                key = table.schema.columns[table.schema.primary_key_index].name
                read = len(table.key_range(*bounds))
                lines.append(f"{pad}RANGE SCAN {source.name} ON {key} ({read} of {len(table)} rows)")
        elif isinstance(source, ast.SubquerySource):
            lines.append(f"{pad}SUBQUERY AS {source.alias}")
            render_source(source.select.source, depth + 1, source.select.where)
            if source.select.where is not None:
                lines.append(f"{pad}  FILTER {source.select.where}")
        elif isinstance(source, ast.Join):
            lines.append(f"{pad}{source.kind} JOIN")
            render_source(source.left, depth + 1)
            render_source(source.right, depth + 1)

    render_source(select.source, 1, select.where)
    if select.where is not None:
        lines.append(f"  FILTER {select.where}")
    if select.group_by:
        lines.append("  GROUP BY " + ", ".join(str(e) for e in select.group_by))
    if select.order_by:
        lines.append("  ORDER BY " + ", ".join(str(o) for o in select.order_by))
    if select.limit is not None:
        lines.append(f"  LIMIT {select.limit}")
    for op in ops:
        lines.append(
            f"  SEMANTIC {op.kind.upper()} {op.label} "
            f"(est {op.calls:.1f} LLM calls, {op.ms:.1f} ms)"
        )
    return "\n".join(lines)
