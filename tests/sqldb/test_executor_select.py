"""SELECT execution semantics."""

import pytest

from repro.errors import SQLCatalogError, SQLError


class TestProjectionAndFilter:
    def test_select_all_rows(self, people_db):
        assert len(people_db.query("SELECT * FROM person")) == 4

    def test_where_filter(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE age > 30")
        assert sorted(r[0] for r in rows) == ["ada", "cyd"]

    def test_where_null_rejects_row(self, people_db):
        # dee has NULL city; NULL = 'london' is unknown, row filtered out.
        rows = people_db.query("SELECT name FROM person WHERE city = 'london' OR city = 'paris'")
        assert sorted(r[0] for r in rows) == ["ada", "bob", "cyd"]

    def test_is_null(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE city IS NULL")
        assert rows == [("dee",)]

    def test_expression_projection(self, people_db):
        rows = people_db.query("SELECT age * 2 FROM person WHERE id = 1")
        assert rows == [(72,)]

    def test_output_column_names(self, people_db):
        result = people_db.execute("SELECT name AS who, age FROM person LIMIT 1")
        assert result.columns == ["who", "age"]

    def test_star_expansion_names(self, people_db):
        result = people_db.execute("SELECT * FROM orders LIMIT 1")
        assert result.columns == ["order_id", "person_id", "amount"]

    def test_select_without_from(self, people_db):
        assert people_db.query("SELECT 1 + 2") == [(3,)]

    def test_like(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE name LIKE 'a%'")
        assert rows == [("ada",)]

    def test_like_underscore(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE name LIKE '_ob'")
        assert rows == [("bob",)]

    def test_between(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE age BETWEEN 29 AND 36 ORDER BY name")
        assert [r[0] for r in rows] == ["ada", "bob", "dee"]

    def test_in_list(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE id IN (1, 3) ORDER BY id")
        assert [r[0] for r in rows] == ["ada", "cyd"]

    def test_not_in_list(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE id NOT IN (1, 2, 3)")
        assert rows == [("dee",)]

    def test_case_when(self, people_db):
        rows = people_db.query(
            "SELECT name, CASE WHEN age >= 40 THEN 'senior' ELSE 'junior' END FROM person WHERE id IN (1,3) ORDER BY id"
        )
        assert rows == [("ada", "junior"), ("cyd", "senior")]

    def test_unknown_column_raises(self, people_db):
        with pytest.raises(SQLCatalogError):
            people_db.query("SELECT ghost FROM person")

    def test_unknown_table_raises(self, people_db):
        with pytest.raises(SQLCatalogError):
            people_db.query("SELECT 1 FROM ghost")

    def test_ambiguous_column_raises(self, people_db):
        with pytest.raises(SQLCatalogError):
            people_db.query("SELECT id FROM person p JOIN person q ON p.id = q.id")


class TestOrderLimitDistinct:
    def test_order_by_asc(self, people_db):
        rows = people_db.query("SELECT name FROM person ORDER BY age, name")
        assert [r[0] for r in rows] == ["bob", "dee", "ada", "cyd"]

    def test_order_by_desc(self, people_db):
        rows = people_db.query("SELECT name FROM person ORDER BY age DESC, name DESC")
        assert [r[0] for r in rows] == ["cyd", "ada", "dee", "bob"]

    def test_order_by_alias(self, people_db):
        rows = people_db.query("SELECT age * -1 AS neg FROM person ORDER BY neg")
        assert [r[0] for r in rows] == [-41, -36, -29, -29]

    def test_order_by_ordinal(self, people_db):
        rows = people_db.query("SELECT name, age FROM person ORDER BY 2 DESC LIMIT 1")
        assert rows[0][0] == "cyd"

    def test_limit(self, people_db):
        assert len(people_db.query("SELECT * FROM person LIMIT 2")) == 2

    def test_offset(self, people_db):
        rows = people_db.query("SELECT id FROM person ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in rows] == [2, 3]

    def test_distinct(self, people_db):
        rows = people_db.query("SELECT DISTINCT age FROM person WHERE age = 29")
        assert rows == [(29,)]

    def test_mixed_direction_stable(self, people_db):
        rows = people_db.query("SELECT city, name FROM person WHERE city IS NOT NULL ORDER BY city ASC, name DESC")
        assert rows == [("london", "cyd"), ("london", "ada"), ("paris", "bob")]


class TestJoins:
    def test_inner_join(self, people_db):
        rows = people_db.query(
            "SELECT p.name, o.amount FROM person p JOIN orders o ON p.id = o.person_id ORDER BY o.order_id"
        )
        assert rows[0] == ("ada", 25.0)
        assert len(rows) == 4

    def test_left_join_pads_nulls(self, people_db):
        rows = people_db.query(
            "SELECT p.name, o.amount FROM person p LEFT JOIN orders o ON p.id = o.person_id "
            "WHERE o.amount IS NULL"
        )
        assert rows == [("dee", None)]

    def test_cross_join_count(self, people_db):
        assert len(people_db.query("SELECT * FROM person, orders")) == 16

    def test_join_with_extra_condition(self, people_db):
        rows = people_db.query(
            "SELECT p.name FROM person p JOIN orders o ON p.id = o.person_id AND o.amount > 40"
        )
        assert sorted(r[0] for r in rows) == ["ada", "cyd"]

    def test_three_way_join(self, people_db):
        rows = people_db.query(
            "SELECT p.name FROM person p JOIN orders o ON p.id = o.person_id "
            "JOIN person q ON q.id = o.person_id WHERE q.name = 'ada'"
        )
        assert len(rows) == 2


class TestAggregation:
    def test_count_star(self, people_db):
        assert people_db.query_scalar("SELECT COUNT(*) FROM person") == 4

    def test_count_column_skips_nulls(self, people_db):
        assert people_db.query_scalar("SELECT COUNT(city) FROM person") == 3

    def test_count_distinct(self, people_db):
        assert people_db.query_scalar("SELECT COUNT(DISTINCT city) FROM person") == 2

    def test_sum_avg_min_max(self, people_db):
        row = people_db.query("SELECT SUM(age), AVG(age), MIN(age), MAX(age) FROM person")[0]
        assert row == (135, 33.75, 29, 41)

    def test_aggregate_on_empty_input_is_null(self, people_db):
        row = people_db.query("SELECT SUM(age), MAX(age) FROM person WHERE id > 99")[0]
        assert row == (None, None)

    def test_count_on_empty_input_is_zero(self, people_db):
        assert people_db.query_scalar("SELECT COUNT(*) FROM person WHERE id > 99") == 0

    def test_group_by(self, people_db):
        rows = people_db.query(
            "SELECT city, COUNT(*) FROM person WHERE city IS NOT NULL GROUP BY city ORDER BY city"
        )
        assert rows == [("london", 2), ("paris", 1)]

    def test_group_by_expression(self, people_db):
        rows = people_db.query("SELECT age % 2, COUNT(*) FROM person GROUP BY age % 2 ORDER BY 1")
        assert rows == [(0, 1), (1, 3)]

    def test_having(self, people_db):
        rows = people_db.query(
            "SELECT city, COUNT(*) AS c FROM person GROUP BY city HAVING COUNT(*) > 1"
        )
        assert rows == [("london", 2)]

    def test_order_by_aggregate_alias(self, people_db):
        rows = people_db.query(
            "SELECT person_id, SUM(amount) AS total FROM orders GROUP BY person_id ORDER BY total DESC"
        )
        assert rows[0] == (1, 100.0)

    def test_arithmetic_over_aggregates(self, people_db):
        assert people_db.query_scalar("SELECT MAX(age) - MIN(age) FROM person") == 12

    def test_star_with_group_by_rejected(self, people_db):
        with pytest.raises(SQLError):
            people_db.query("SELECT * FROM person GROUP BY city")


class TestSubqueries:
    def test_in_subquery(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE id IN (SELECT person_id FROM orders WHERE amount > 40)"
        )
        assert sorted(r[0] for r in rows) == ["ada", "cyd"]

    def test_not_in_subquery(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE id NOT IN (SELECT person_id FROM orders)"
        )
        assert rows == [("dee",)]

    def test_scalar_subquery(self, people_db):
        rows = people_db.query("SELECT name FROM person WHERE age > (SELECT AVG(age) FROM person)")
        assert sorted(r[0] for r in rows) == ["ada", "cyd"]

    def test_correlated_exists(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person p WHERE EXISTS "
            "(SELECT 1 FROM orders o WHERE o.person_id = p.id AND o.amount > 60)"
        )
        assert rows == [("ada",)]

    def test_correlated_not_exists(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person p WHERE NOT EXISTS "
            "(SELECT 1 FROM orders o WHERE o.person_id = p.id)"
        )
        assert rows == [("dee",)]

    def test_correlated_scalar(self, people_db):
        rows = people_db.query(
            "SELECT name, (SELECT SUM(amount) FROM orders o WHERE o.person_id = p.id) FROM person p ORDER BY id"
        )
        assert rows[0] == ("ada", 100.0)
        assert rows[3] == ("dee", None)

    def test_derived_table(self, people_db):
        rows = people_db.query(
            "SELECT big.name FROM (SELECT name, age FROM person WHERE age > 30) AS big ORDER BY big.age"
        )
        assert [r[0] for r in rows] == ["ada", "cyd"]

    def test_empty_scalar_subquery_is_null(self, people_db):
        assert people_db.query_scalar("SELECT (SELECT age FROM person WHERE id = 99)") is None


class TestSetOperations:
    def test_union_dedup(self, people_db):
        rows = people_db.query(
            "SELECT city FROM person WHERE city = 'london' UNION SELECT city FROM person WHERE city = 'london'"
        )
        assert rows == [("london",)]

    def test_union_all_keeps_duplicates(self, people_db):
        rows = people_db.query(
            "SELECT city FROM person WHERE city = 'london' "
            "UNION ALL SELECT city FROM person WHERE city = 'london'"
        )
        assert len(rows) == 4

    def test_intersect(self, people_db):
        rows = people_db.query(
            "SELECT id FROM person WHERE age >= 29 INTERSECT SELECT id FROM person WHERE city = 'london'"
        )
        assert sorted(r[0] for r in rows) == [1, 3]

    def test_except(self, people_db):
        rows = people_db.query(
            "SELECT id FROM person EXCEPT SELECT person_id FROM orders"
        )
        assert rows == [(4,)]

    def test_union_column_count_mismatch(self, people_db):
        with pytest.raises(SQLError):
            people_db.query("SELECT id, name FROM person UNION SELECT id FROM person")

    def test_order_by_after_union(self, people_db):
        rows = people_db.query(
            "SELECT name FROM person WHERE id = 2 UNION SELECT name FROM person WHERE id = 1 ORDER BY name"
        )
        assert [r[0] for r in rows] == ["ada", "bob"]


class TestFunctionsAndExpressions:
    def test_string_functions(self, people_db):
        row = people_db.query(
            "SELECT UPPER(name), LOWER('ABC'), LENGTH(name), SUBSTR(name, 1, 2) FROM person WHERE id = 1"
        )[0]
        assert row == ("ADA", "abc", 3, "ad")

    def test_replace_instr_trim(self, people_db):
        row = people_db.query("SELECT REPLACE('a-b', '-', '+'), INSTR('hello', 'll'), TRIM('  x ')")[0]
        assert row == ("a+b", 3, "x")

    def test_numeric_functions(self, people_db):
        row = people_db.query("SELECT ABS(-3), ROUND(2.567, 1), FLOOR(2.9), CEIL(2.1)")[0]
        assert row == (3, 2.6, 2, 3)

    def test_coalesce(self, people_db):
        rows = people_db.query("SELECT COALESCE(city, 'unknown') FROM person WHERE id = 4")
        assert rows == [("unknown",)]

    def test_nullif(self, people_db):
        assert people_db.query_scalar("SELECT NULLIF(1, 1)") is None
        assert people_db.query_scalar("SELECT NULLIF(1, 2)") == 1

    def test_cast(self, people_db):
        assert people_db.query_scalar("SELECT CAST('12' AS INTEGER)") == 12

    def test_concat_operator(self, people_db):
        assert people_db.query_scalar("SELECT 'a' || 'b' || 1") == "ab1"

    def test_division_by_zero_is_null(self, people_db):
        assert people_db.query_scalar("SELECT 1 / 0") is None
        assert people_db.query_scalar("SELECT 1 % 0") is None

    def test_integer_division_stays_exact(self, people_db):
        assert people_db.query_scalar("SELECT 10 / 2") == 5
        assert people_db.query_scalar("SELECT 7 / 2") == 3.5

    def test_unknown_function(self, people_db):
        with pytest.raises(SQLError):
            people_db.query("SELECT FROBNICATE(1)")

    def test_three_valued_not(self, people_db):
        # NOT NULL is NULL → row rejected.
        assert people_db.query("SELECT 1 FROM person WHERE NOT (city = 'nowhere') AND id = 4") == []
