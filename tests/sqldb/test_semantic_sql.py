"""Semantic operators through every layer: parse → plan → execute.

Covers the grammar (round-trips and error reporting), the planner (cost
model, conjunct reordering, predicate pushdown, the two cardinality-bug
regressions), the runtime (dedupe/batch/cache), and the executor's
bit-equivalence contract against the naive per-row reference evaluator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.database import Database
from repro.sqldb.parser import parse_statement
from repro.sqldb.planner import (
    estimate_cost,
    explain,
    optimize_semantic,
    query_features,
    select_contains_semantic,
)
from repro.sqldb.semantic import (
    SemanticRuntime,
    filter_prompt,
    render_value,
    truthy_answer,
)

SCRIPT = """
CREATE TABLE reviews (id INTEGER PRIMARY KEY, product_id INTEGER, title TEXT,
 body TEXT, stars INTEGER);
INSERT INTO reviews VALUES
 (1, 1, 'acme laptop review', 'asked for a refund after the battery died', 1),
 (2, 1, 'great value', 'great battery life and fast shipping', 5),
 (3, 2, 'espresso woes', 'refund requested, the machine arrived damaged', 2),
 (4, 2, 'daily driver', 'love this espresso machine, five stars', 5),
 (5, 1, 'empty', NULL, 3);
CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT, descr TEXT);
INSERT INTO products VALUES
 (1, 'Acme Laptop', 'name: Acme Laptop; category: electronics; year: 2021'),
 (2, 'Bolt Espresso Machine', 'name: Bolt Espresso Machine; category: kitchen; year: 2019');
"""


def _pair():
    """(optimized db, naive db) built from the same script."""
    return (
        Database.from_script(SCRIPT, semantic=SemanticRuntime()),
        Database.from_script(SCRIPT, semantic=SemanticRuntime.naive()),
    )


# ------------------------------------------------------------------ parsing


class TestSemanticGrammar:
    def test_semantic_filter_shape(self):
        stmt = parse_statement(
            "SELECT id FROM reviews WHERE SEMANTIC_FILTER(body, 'mentions a refund')"
        )
        assert isinstance(stmt.where, ast.SemanticFilter)
        assert stmt.where.predicate == "mentions a refund"

    def test_semantic_join_shape(self):
        stmt = parse_statement(
            "SELECT * FROM a SEMANTIC_JOIN b ON MATCHES(a.x, b.y) AND a.id = 1"
        )
        assert isinstance(stmt.source, ast.Join)
        assert stmt.source.kind == "SEMANTIC"
        assert any(
            isinstance(n, ast.SemanticMatch) for n in ast.walk_expr(stmt.source.on)
        )

    def test_llm_udf_shapes(self):
        stmt = parse_statement(
            "SELECT LLM_CLASSIFY(d, 'a', 'b') AS k, LLM_EXTRACT(d, 'year') FROM t"
        )
        classify = stmt.items[0].expr
        extract = stmt.items[1].expr
        assert isinstance(classify, ast.LLMFunc) and classify.params == ["a", "b"]
        assert isinstance(extract, ast.LLMFunc) and extract.params == ["year"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE SEMANTIC_FILTER(body, 'mentions a refund') AND stars > 3",
            "SELECT * FROM a SEMANTIC_JOIN b ON MATCHES(a.x, b.y)",
            "SELECT LLM_CLASSIFY(d, 'x', 'y') FROM t",
            "SELECT LLM_EXTRACT(d, 'field name') FROM t ORDER BY 1",
            "SELECT * FROM a SEMANTIC_JOIN b ON MATCHES(a.x, b.y) AND b.n < 3",
        ],
    )
    def test_round_trip(self, sql):
        once = str(parse_statement(sql))
        twice = str(parse_statement(once))
        assert once == twice

    @pytest.mark.parametrize(
        "sql, fragment",
        [
            ("SELECT SEMANTIC_FILTER(body, 42) FROM t", "string literal"),
            ("SELECT SEMANTIC_FILTER(body, '') FROM t", "must not be empty"),
            ("SELECT SEMANTIC_FILTER(body, '   ') FROM t", "must not be empty"),
            ("SELECT LLM_CLASSIFY(d, 'only') FROM t", "at least two label"),
            ("SELECT LLM_EXTRACT(d, 'a', 'b') FROM t", "exactly one field-name"),
            ("SELECT * FROM a SEMANTIC_JOIN b ON a.x = b.y", "MATCHES"),
        ],
    )
    def test_malformed_operators_raise(self, sql, fragment):
        with pytest.raises(SQLSyntaxError, match=fragment):
            parse_statement(sql)

    @settings(max_examples=40, deadline=None)
    @given(
        predicate=st.text(
            alphabet="abcdefgh '", min_size=1, max_size=20
        ).map(str.strip).filter(bool)
    )
    def test_predicate_text_round_trips(self, predicate):
        escaped = predicate.replace("'", "''")
        stmt = parse_statement(
            f"SELECT id FROM t WHERE SEMANTIC_FILTER(body, '{escaped}')"
        )
        assert stmt.where.predicate == predicate
        again = parse_statement(str(stmt))
        assert again.where.predicate == predicate


# ----------------------------------------------------------------- planning


class TestPlannerSemanticCost:
    def test_semantic_dwarfs_relational(self):
        db, _ = _pair()
        plain = estimate_cost("SELECT id FROM reviews WHERE stars > 3", db.catalog)
        semantic = estimate_cost(
            "SELECT id FROM reviews WHERE SEMANTIC_FILTER(body, 'mentions a refund')",
            db.catalog,
        )
        assert semantic.semantic_calls > 0
        assert semantic.total_ms > plain.total_ms * 100

    def test_written_conjunct_order_changes_estimate(self):
        db, _ = _pair()
        semantic_first = estimate_cost(
            "SELECT id FROM reviews WHERE SEMANTIC_FILTER(body, 'x y z') AND stars > 3",
            db.catalog,
        )
        relational_first = estimate_cost(
            "SELECT id FROM reviews WHERE stars > 3 AND SEMANTIC_FILTER(body, 'x y z')",
            db.catalog,
        )
        assert relational_first.semantic_calls < semantic_first.semantic_calls
        assert relational_first.total_ms < semantic_first.total_ms

    def test_cache_hit_rate_discounts_calls(self):
        db, _ = _pair()
        sql = "SELECT id FROM reviews WHERE SEMANTIC_FILTER(body, 'x')"
        cold = estimate_cost(sql, db.catalog, semantic_hit_rate=0.0)
        warm = estimate_cost(sql, db.catalog, semantic_hit_rate=0.8)
        assert warm.semantic_calls < cold.semantic_calls
        assert warm.total_ms < cold.total_ms

    def test_optimize_reorders_where(self):
        db, _ = _pair()
        stmt = parse_statement(
            "SELECT id FROM reviews WHERE SEMANTIC_FILTER(title, 'x') AND id < 0 + id"
        )
        rewritten = optimize_semantic(stmt, db.catalog)
        parts = [str(c) for c in ast.conjuncts(rewritten.where)]
        assert "SEMANTIC_FILTER" in parts[-1]
        # Estimated cost never goes up under the rewrite.
        assert (
            estimate_cost(rewritten, db.catalog).total_ms
            <= estimate_cost(stmt, db.catalog).total_ms
        )

    def test_optimize_pushes_single_table_predicate(self):
        db, _ = _pair()
        stmt = parse_statement(
            "SELECT p.name FROM products AS p SEMANTIC_JOIN reviews AS r "
            "ON MATCHES(p.name, r.title) WHERE r.stars >= 4"
        )
        rewritten = optimize_semantic(stmt, db.catalog)
        assert rewritten.where is None
        leaves = []
        stack = [rewritten.source]
        while stack:
            ref = stack.pop()
            if isinstance(ref, ast.Join):
                stack.extend((ref.left, ref.right))
            else:
                leaves.append(ref)
        subs = [l for l in leaves if isinstance(l, ast.SubquerySource)]
        assert len(subs) == 1
        assert subs[0].alias == "r"
        assert "stars" in str(subs[0].select.where)

    def test_no_push_into_left_join_right_side(self):
        db, _ = _pair()
        stmt = parse_statement(
            "SELECT p.name FROM products AS p LEFT JOIN reviews AS r "
            "ON p.id = r.product_id "
            "WHERE SEMANTIC_FILTER(p.name, 'laptop') AND r.stars >= 4"
        )
        rewritten = optimize_semantic(stmt, db.catalog)
        # r.stars stays in WHERE: filtering below a LEFT join's right side
        # would resurrect null-padded rows.
        assert rewritten.where is not None and "stars" in str(rewritten.where)

    def test_non_semantic_statement_untouched(self):
        db, _ = _pair()
        stmt = parse_statement("SELECT id FROM reviews WHERE stars > 3")
        assert not select_contains_semantic(stmt)
        assert optimize_semantic(stmt, db.catalog) is stmt

    def test_optimize_pushes_join_guards_out_of_on(self):
        db, _ = _pair()
        stmt = parse_statement(
            "SELECT p.name FROM products AS p SEMANTIC_JOIN reviews AS r "
            "ON MATCHES(p.name, r.title) AND p.id BETWEEN 1 AND 1 "
            "AND r.id BETWEEN 2 AND 4 AND p.id < r.product_id "
            "AND r.stars > (SELECT MIN(stars) FROM reviews)"
        )
        written = str(stmt)
        rewritten = optimize_semantic(stmt, db.catalog)
        assert str(stmt) == written  # the input is never mutated
        join = rewritten.source
        assert isinstance(join, ast.Join) and join.kind == "SEMANTIC"
        assert (join.left.alias, join.right.alias) == ("p", "r")
        assert str(join.left.select.where) == "p.id BETWEEN 1 AND 1"
        assert str(join.right.select.where) == "r.id BETWEEN 2 AND 4"
        # Both-sides and subquery conjuncts stay in ON, in written order.
        kept = [str(c) for c in ast.conjuncts(join.on)]
        assert kept[0] == "MATCHES(p.name, r.title)"
        assert kept[1] == "(p.id < r.product_id)"
        assert "SELECT" in kept[2] and len(kept) == 3

    def test_no_join_guard_push_under_left_join_right_side(self):
        db, _ = _pair()
        stmt = parse_statement(
            "SELECT a.id FROM reviews AS a LEFT JOIN "
            "(products AS p SEMANTIC_JOIN reviews AS r "
            "ON MATCHES(p.name, r.title) AND r.id <= 2) ON a.product_id = p.id"
        )
        rewritten = optimize_semantic(stmt, db.catalog)
        assert str(rewritten) == str(stmt)


class TestPlannerRegressions:
    def test_from_subquery_tables_not_double_counted(self):
        db, _ = _pair()
        flat = estimate_cost("SELECT id FROM reviews", db.catalog)
        wrapped = estimate_cost(
            "SELECT id FROM (SELECT * FROM reviews) AS sub", db.catalog
        )
        # The subquery's scan is charged once (as subquery cost), not again
        # as an outer base-table scan of the same 5 rows.
        assert wrapped.subquery_cost > 0
        assert wrapped.scan_rows == flat.scan_rows
        features = query_features(
            "SELECT id FROM (SELECT * FROM reviews) AS sub", db.catalog
        )
        assert features["num_tables"] == 0.0
        assert features["num_subqueries"] == 1.0

    def test_or_branches_are_one_conjunct(self):
        one = query_features("SELECT 1 FROM t WHERE a = 1 OR b = 2")
        assert one["num_predicates"] == 1.0
        two = query_features("SELECT 1 FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
        assert two["num_predicates"] == 2.0
        db, _ = _pair()
        disjunct = estimate_cost(
            "SELECT id FROM reviews WHERE stars = 1 OR stars = 5", db.catalog
        )
        conjunct = estimate_cost(
            "SELECT id FROM reviews WHERE stars = 1 AND id = 5", db.catalog
        )
        # An OR widens the filter; it must not be charged as two AND-ed cuts.
        assert disjunct.sort_rows == 0.0  # sanity: no ORDER BY
        assert disjunct.total_ms >= conjunct.total_ms

    def test_semantic_ops_feature(self):
        features = query_features(
            "SELECT LLM_EXTRACT(d, 'y') FROM t WHERE SEMANTIC_FILTER(d, 'x')"
        )
        assert features["num_semantic_ops"] == 2.0


class TestExplainGoldens:
    def test_reordered_filter_plan(self):
        db, _ = _pair()
        text = explain(
            "SELECT id FROM reviews "
            "WHERE SEMANTIC_FILTER(body, 'mentions a refund') AND stars <= 2 "
            "ORDER BY id",
            db.catalog,
            semantic_hit_rate=0.5,
        )
        assert "LLM COST" in text
        assert "(assuming 50% cache hits)" in text
        assert "SUBQUERY AS reviews" in text  # stars <= 2 pushed into the scan
        assert "FILTER (stars <= 2)" in text
        assert "SEMANTIC FILTER SEMANTIC_FILTER(body, 'mentions a refund')" in text
        assert "LLM calls" in text
        assert "ORDER BY id" in text

    def test_semantic_join_plan(self):
        db, _ = _pair()
        text = explain(
            "SELECT p.name FROM products AS p SEMANTIC_JOIN reviews AS r "
            "ON MATCHES(p.name, r.title) AND r.stars >= 4",
            db.catalog,
        )
        assert "SEMANTIC JOIN" in text
        assert "SCAN products (2 rows)" in text
        assert "SEMANTIC JOIN MATCHES(p.name, r.title)" in text

    def test_semantic_join_guards_are_filtered_scans(self):
        db, _ = _pair()
        text = explain(
            "SELECT p.name FROM products AS p SEMANTIC_JOIN reviews AS r "
            "ON MATCHES(p.name, r.title) AND p.id BETWEEN 1 AND 1 "
            "AND r.id BETWEEN 2 AND 4",
            db.catalog,
        )
        assert text.splitlines()[2:] == [
            "  SEMANTIC JOIN",
            "    SUBQUERY AS p",
            "      RANGE SCAN products ON id (1 of 2 rows)",
            "      FILTER p.id BETWEEN 1 AND 1",
            "    SUBQUERY AS r",
            "      RANGE SCAN reviews ON id (3 of 5 rows)",
            "      FILTER r.id BETWEEN 2 AND 4",
            # One guard on each side: (2 * 0.4 -> at least 1) x (5 * 0.4) pairs.
            "  SEMANTIC JOIN MATCHES(p.name, r.title) (est 2.0 LLM calls, 57.0 ms)",
        ]

    def test_unoptimized_render_keeps_written_order(self):
        db, _ = _pair()
        sql = (
            "SELECT id FROM reviews "
            "WHERE SEMANTIC_FILTER(body, 'refund') AND stars <= 2"
        )
        raw = explain(sql, db.catalog, optimize=False)
        assert "SUBQUERY" not in raw
        assert "FILTER (SEMANTIC_FILTER(body, 'refund') AND (stars <= 2))" in raw


# ------------------------------------------------------------------ runtime


class TestSemanticRuntime:
    def test_render_value(self):
        assert render_value(None) == "NULL"
        assert render_value(True) == "TRUE"
        assert render_value(3.0) == "3"
        assert render_value("a\nb   c") == "a b c"

    def test_truthy_answer(self):
        assert truthy_answer(" Yes.")
        assert truthy_answer("yes")
        assert not truthy_answer("no")
        assert not truthy_answer("")

    def test_batch_dedupes_and_caches(self):
        runtime = SemanticRuntime()
        prompts = [filter_prompt("mentions a refund", f"value {i % 3}") for i in range(9)]
        first = runtime.answer_many(list(prompts))
        assert runtime.stats.provider_calls == 1
        assert runtime.stats.provider_items == 3  # deduped
        second = [runtime.answer(p) for p in prompts]
        assert second == first
        assert runtime.stats.provider_calls == 1  # all cache hits
        assert runtime.stats.cache_hits >= 9

    def test_naive_mode_pays_per_prompt(self):
        runtime = SemanticRuntime.naive()
        prompts = [filter_prompt("mentions a refund", "same value")] * 4
        runtime.answer_many(list(prompts))
        assert runtime.stats.provider_calls == 4
        assert runtime.stats.cache_hits == 0

    def test_modes_agree_bitwise(self):
        opt, naive = SemanticRuntime(), SemanticRuntime.naive()
        prompts = [filter_prompt("mentions a refund", f"text {i} refund") for i in range(6)]
        assert opt.answer_many(list(prompts)) == naive.answer_many(list(prompts))


# ---------------------------------------------------------------- execution


WORKLOAD = [
    "SELECT id FROM reviews WHERE SEMANTIC_FILTER(body, 'mentions a refund') "
    "AND stars <= 2 ORDER BY id",
    "SELECT id FROM reviews WHERE stars <= 2 AND "
    "SEMANTIC_FILTER(body, 'mentions a refund') ORDER BY id",
    "SELECT p.name, r.title FROM products AS p SEMANTIC_JOIN reviews AS r "
    "ON MATCHES(p.name, r.title) AND r.stars <= 2 ORDER BY p.name, r.title",
    "SELECT id, LLM_CLASSIFY(descr, 'electronics', 'kitchen') AS kind "
    "FROM products ORDER BY id",
    "SELECT id, LLM_EXTRACT(descr, 'year') AS year FROM products ORDER BY id",
    "SELECT COUNT(*) FROM reviews WHERE SEMANTIC_FILTER(body, 'mentions a refund')",
]


class TestExecutorEquivalence:
    @pytest.mark.parametrize("sql", WORKLOAD)
    def test_optimized_matches_naive(self, sql):
        db_opt, db_naive = _pair()
        assert db_opt.query(sql) == db_naive.query(sql)

    def test_null_operand_is_null_not_llm_call(self):
        db, _ = _pair()
        rows = db.query(
            "SELECT id, LLM_EXTRACT(body, 'year') FROM reviews WHERE id = 5"
        )
        assert rows == [(5, None)]

    def test_optimized_issues_fewer_provider_items(self):
        db_opt, db_naive = _pair()
        sql = WORKLOAD[0]
        db_opt.query(sql)
        db_naive.query(sql)
        assert (
            db_opt.semantic.stats.provider_items
            < db_naive.semantic.stats.provider_items
        )
        assert db_opt.semantic.stats.batches >= 1

    def test_rerun_is_fully_cached(self):
        db_opt, _ = _pair()
        sql = WORKLOAD[0]
        db_opt.query(sql)
        items_before = db_opt.semantic.stats.provider_items
        db_opt.query(sql)
        assert db_opt.semantic.stats.provider_items == items_before

    def test_extract_pulls_structured_field(self):
        db, naive = _pair()
        rows = db.query("SELECT LLM_EXTRACT(descr, 'year') FROM products ORDER BY id")
        assert rows == [("2021",), ("2019",)]
        assert rows == naive.query(
            "SELECT LLM_EXTRACT(descr, 'year') FROM products ORDER BY id"
        )

    def test_classify_uses_given_labels(self):
        db, _ = _pair()
        rows = db.query(
            "SELECT LLM_CLASSIFY(descr, 'electronics', 'kitchen') FROM products ORDER BY id"
        )
        assert all(value in ("electronics", "kitchen") for (value,) in rows)

    @settings(max_examples=25, deadline=None)
    @given(
        p_lo=st.integers(0, 3),
        p_len=st.integers(-1, 2),
        r_lo=st.integers(0, 6),
        r_len=st.integers(-1, 5),
        both_sides=st.booleans(),
    )
    def test_join_guard_pushdown_matches_naive(self, p_lo, p_len, r_lo, r_len, both_sides):
        db_opt, db_naive = _pair()
        sql = (
            "SELECT p.name, r.title FROM products AS p SEMANTIC_JOIN reviews AS r "
            f"ON MATCHES(p.name, r.title) AND p.id BETWEEN {p_lo} AND {p_lo + p_len} "
            f"AND r.id BETWEEN {r_lo} AND {r_lo + r_len}"
            + (" AND p.id < r.product_id" if both_sides else "")
            + " ORDER BY p.name, r.title"
        )
        assert db_opt.query(sql) == db_naive.query(sql)
        # The LLM saw at most the guarded pairs, each once.
        guarded = db_naive.query(
            "SELECT COUNT(*) FROM products AS p, reviews AS r "
            f"WHERE p.id BETWEEN {p_lo} AND {p_lo + p_len} "
            f"AND r.id BETWEEN {r_lo} AND {r_lo + r_len}"
        )[0][0]
        assert db_opt.semantic.stats.provider_items <= guarded

    def test_case_and_punctuation_variants_are_distinct_prompts(self):
        """Prompts that differ only in case or punctuation share one
        embedding; reuse must go by the prompt text, not by similarity 1.0."""
        script = """
        CREATE TABLE items (id INTEGER PRIMARY KEY, descr TEXT);
        INSERT INTO items VALUES
         (1, 'name: Widget; year: 2015; price: 50'),
         (2, 'name: Widget; year: 2015; price. 50'),
         (3, 'name: Widget; year: 2015; PRICE: 50'),
         (4, 'name: Widget; year: 2015; price: 50');
        """
        db_opt = Database.from_script(script, semantic=SemanticRuntime())
        db_naive = Database.from_script(script, semantic=SemanticRuntime.naive())
        for row_id in (1, 2, 3, 4):
            sql = f"SELECT id, LLM_EXTRACT(descr, 'price') FROM items WHERE id = {row_id}"
            assert db_opt.query(sql) == db_naive.query(sql)
        assert db_naive.query("SELECT LLM_EXTRACT(descr, 'price') FROM items WHERE id = 2") != (
            db_naive.query("SELECT LLM_EXTRACT(descr, 'price') FROM items WHERE id = 1")
        )
        # One provider item per distinct prompt text: rows 1 and 4 share one.
        assert db_opt.semantic.stats.provider_items == 3

    def test_clone_shares_runtime(self):
        db_opt, _ = _pair()
        db_opt.query(WORKLOAD[0])
        calls = db_opt.semantic.stats.provider_calls
        clone = db_opt.clone()
        assert clone.query(WORKLOAD[0]) == db_opt.query(WORKLOAD[0])
        # The clone reused the original's warm cache: no new provider calls.
        assert db_opt.semantic.stats.provider_calls == calls


class TestFromSubquerySchema:
    """An empty result still needs its column names; reading them off a
    FROM-subquery must not execute (and bill) the subquery again."""

    SCRIPT = """
    CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT);
    INSERT INTO t VALUES
     (1, 'asked for a refund'), (2, 'great battery'), (3, 'refund requested'),
     (4, 'love it'), (5, 'arrived damaged'), (6, 'five stars');
    """
    FILTERED = (
        "SELECT s.id FROM (SELECT * FROM t WHERE SEMANTIC_FILTER(body, 'mentions a refund')) "
        "AS s WHERE s.id > 100"
    )

    def test_naive_mode_bills_each_row_once(self):
        db = Database.from_script(self.SCRIPT, semantic=SemanticRuntime.naive())
        result = db.execute(self.FILTERED)
        assert (result.columns, result.rows) == (["id"], [])
        assert db.semantic.stats.provider_calls == 6
        assert db.semantic.stats.prompts == 6

    def test_optimized_mode_scans_once(self):
        db = Database.from_script(self.SCRIPT, semantic=SemanticRuntime())
        assert db.execute(self.FILTERED).rows == []
        # One prefetch of the six prompts; each row reads its prefetched
        # answer back, which is neither a second prompt nor a cache hit.
        assert db.semantic.stats.provider_items == 6
        assert db.semantic.stats.prompts == 6
        assert db.semantic.stats.cache_hits == 0
        assert db.semantic.hit_rate() == 0.0
        assert db.semantic.cache.stats.lookups == 6
        # A rerun is answered by the cache the first run filled: 6 hits.
        before = db.semantic.snapshot()
        assert db.execute(self.FILTERED).rows == []
        rerun = db.semantic.delta(before)
        assert (rerun.prompts, rerun.cache_hits, rerun.provider_items) == (6, 6, 0)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM (SELECT id, body AS b FROM t WHERE id > {k}) AS s",
            "SELECT s.* FROM (SELECT id AS k FROM t UNION SELECT id FROM t) AS s WHERE s.k > {k}",
            "SELECT * FROM (SELECT * FROM t) AS s, (SELECT id AS x FROM t) AS u "
            "WHERE s.id = u.x AND s.id > {k}",
            "SELECT a.id FROM t AS a WHERE EXISTS (SELECT * FROM "
            "(SELECT id AS x FROM t AS u WHERE u.id = a.id AND u.id > {k}) AS s)",
            "SELECT a.id, (SELECT COUNT(*) FROM (SELECT * FROM t AS u WHERE u.id = a.id + {k}) "
            "AS s) AS n FROM t AS a",
        ],
        ids=["alias", "set-op", "star-join", "correlated-exists", "correlated-scalar"],
    )
    def test_empty_result_keeps_the_columns(self, sql):
        db = Database.from_script(self.SCRIPT)
        full = db.execute(sql.format(k=0))
        empty = db.execute(sql.format(k=100))
        assert full.rows and empty.columns == full.columns
        # The correlated FROM-subqueries come back empty per outer row.
        assert not empty.rows or all(row[-1] == 0 for row in empty.rows)
