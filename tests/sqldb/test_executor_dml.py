"""INSERT / UPDATE / DELETE / DDL execution tests."""

import pytest

from repro.errors import SQLCatalogError, SQLError, SQLIntegrityError
from repro.sqldb import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)")
    return database


class TestInsert:
    def test_insert_values(self, db):
        result = db.execute("INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5)")
        assert result.rowcount == 2
        assert db.query_scalar("SELECT COUNT(*) FROM t") == 2

    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
        assert db.query("SELECT score FROM t") == [(None,)]

    def test_insert_wrong_arity(self, db):
        with pytest.raises(SQLError):
            db.execute("INSERT INTO t (id, name) VALUES (1)")

    def test_insert_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("CREATE TABLE u (id INTEGER, name TEXT, score REAL)")
        db.execute("INSERT INTO u SELECT * FROM t")
        assert db.query("SELECT name FROM u") == [("a",)]

    def test_insert_expression_values(self, db):
        db.execute("INSERT INTO t VALUES (1 + 1, UPPER('x'), 2.0 * 3)")
        assert db.query("SELECT * FROM t") == [(2, "X", 6.0)]

    def test_pk_violation(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        with pytest.raises(SQLIntegrityError):
            db.execute("INSERT INTO t VALUES (1, 'b', 2.0)")

    def test_insert_into_missing_table(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("INSERT INTO ghost VALUES (1)")


class TestUpdate:
    def test_update_all(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
        result = db.execute("UPDATE t SET score = score + 1")
        assert result.rowcount == 2
        assert db.query("SELECT score FROM t ORDER BY id") == [(2.0,), (3.0,)]

    def test_update_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
        result = db.execute("UPDATE t SET name = 'z' WHERE id = 2")
        assert result.rowcount == 1
        assert db.query("SELECT name FROM t ORDER BY id") == [("a",), ("z",)]

    def test_update_self_reference(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 10.0)")
        db.execute("UPDATE t SET score = score * 2 WHERE score = 10.0")
        assert db.query_scalar("SELECT score FROM t") == 20.0

    def test_update_coerces_type(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("UPDATE t SET score = 5")
        value = db.query_scalar("SELECT score FROM t")
        assert value == 5.0 and isinstance(value, float)

    def test_update_pk_collision_rolls_nothing(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
        with pytest.raises(SQLIntegrityError):
            db.execute("UPDATE t SET id = 1 WHERE id = 2")

    @pytest.mark.parametrize(
        "sql",
        ["UPDATE t SET id = NULL WHERE id = 1", "UPDATE t SET name = NULL"],
        ids=["primary-key", "not-null"],
    )
    def test_update_to_null_is_refused_and_changes_nothing(self, sql):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        with pytest.raises(SQLIntegrityError, match="NULL violates NOT NULL"):
            db.execute(sql)
        assert db.query("SELECT * FROM t") == [(1, "a"), (2, "b")]


class TestDelete:
    def test_delete_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0)")
        result = db.execute("DELETE FROM t WHERE score >= 2.0")
        assert result.rowcount == 2
        assert db.query("SELECT id FROM t") == [(1,)]

    def test_delete_all(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("DELETE FROM t")
        assert db.query_scalar("SELECT COUNT(*) FROM t") == 0

    def test_delete_then_reinsert_same_pk(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("INSERT INTO t VALUES (1, 'again', 9.0)")  # no raise
        assert db.query_scalar("SELECT name FROM t") == "again"


class TestDDL:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE extra (x INTEGER)")
        assert db.has_table("extra")
        db.execute("DROP TABLE extra")
        assert not db.has_table("extra")

    def test_create_duplicate(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("CREATE TABLE t (x INTEGER)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")  # no raise

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS nonexistent")  # no raise

    def test_schema_text(self, db):
        text = db.schema_text()
        assert "CREATE TABLE t" in text
        assert "id INTEGER PRIMARY KEY" in text

    def test_clone_is_isolated(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        clone = db.clone()
        clone.execute("DELETE FROM t")
        assert db.query_scalar("SELECT COUNT(*) FROM t") == 1
        assert clone.query_scalar("SELECT COUNT(*) FROM t") == 0
