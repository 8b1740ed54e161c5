"""The primary-key access path (``key_bounds`` + ``Table.key_range``).

A scan of a bare table reads only the rows its WHERE's key range selects
and then evaluates the unchanged WHERE on them. Two differential oracles
hold it to the full scan:

(a) our engine, the same query with the key hidden from the path
    (``id + 0`` in place of ``id``): same rows in the same order, for
    bounds of any literal type;
(b) stdlib ``sqlite3`` for integer keys and numeric bounds below 2**53:
    same row multiset.

Dialect differences excluded from (b): row order without ORDER BY
(sqlite returns rowid order, this engine heap order), and bounds that
are text, booleans or NULL (sqlite orders and compares them by its own
type affinity rules).
"""

import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLIntegrityError
from repro.sqldb import Database, SemanticRuntime

KEYS = st.integers(min_value=-30, max_value=30)
BIG = 2**53  # past this, distinct ints share one float sort key
OPS = ("<", "<=", ">", ">=", "=")

numeric_bounds = st.one_of(KEYS, KEYS.map(lambda k: k + 0.5), KEYS.map(lambda k: k - 0.25))
any_bounds = st.one_of(
    numeric_bounds,
    st.sampled_from(["'m'", "TRUE", "FALSE", "NULL", BIG + 1, float(BIG)]),
)


def _range(bounds):
    """One range conjunct over the key, as a template on ``{k}``."""
    between = st.tuples(bounds, bounds).map(lambda b: f"{{k}} BETWEEN {b[0]} AND {b[1]}")
    key_first = st.tuples(st.sampled_from(OPS), bounds).map(lambda c: f"{{k}} {c[0]} {c[1]}")
    key_last = st.tuples(bounds, st.sampled_from(OPS)).map(lambda c: f"{c[0]} {c[1]} {{k}}")
    return st.one_of(between, key_first, key_last)


def _where(bounds):
    """1-3 range conjuncts (repeated bounds on one key), with a non-key
    conjunct before, after, or not at all."""
    ranges = st.lists(_range(bounds), min_size=1, max_size=3)
    other = st.integers(min_value=-5, max_value=5).map(lambda c: f"v <= {c}")
    return st.tuples(ranges, st.sampled_from(["before", "after", "none"]), other).map(
        lambda t: ([t[2]] if t[1] == "before" else []) + t[0] + ([t[2]] if t[1] == "after" else [])
    )


mutation = st.one_of(
    st.tuples(st.just("INSERT INTO t VALUES ({0}, {1})"), KEYS, st.integers(-5, 5)),
    st.tuples(st.just("INSERT INTO t VALUES ({0}, {1}), ({2}, {1})"), KEYS, st.integers(-5, 5), KEYS),
    st.tuples(st.just("UPDATE t SET id = {0} WHERE id = {1}"), KEYS, KEYS),
    st.tuples(st.just("DELETE FROM t WHERE id BETWEEN {0} AND {1}"), KEYS, KEYS),
    st.tuples(st.just("UPDATE t SET v = {1} WHERE id >= {0}"), KEYS, st.integers(-5, 5)),
).map(lambda m: m[0].format(*m[1:]))

# Unsorted, gapped, negative keys; ``v`` in a small range so ``v <= c`` bites.
tables = st.lists(st.tuples(KEYS, st.integers(-5, 5)), max_size=20, unique_by=lambda r: r[0])
scripts = st.lists(st.tuples(mutation, st.booleans()), max_size=4)


def _query(conjuncts, key):
    return "SELECT id, v FROM t WHERE " + " AND ".join(c.format(k=key) for c in conjuncts)


def _ours(rows):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.insert_rows("t", rows)
    return db


def _run(db, sql):
    """Rowcount, or "refused" for an integrity error: both engines refuse
    the same writes (a duplicate key) and leave the table as it was."""
    try:
        return db.execute(sql).rowcount
    except (SQLIntegrityError, sqlite3.IntegrityError):
        return "refused"


def _replay(rows, script, check, mirror=lambda sql: None):
    """Apply ``script`` (each mutation alone, or inside BEGIN ... ROLLBACK)
    to a database of ``rows``, calling ``check(db)`` before and after
    every step, so that a key index built by one check meets the next
    write. ``mirror`` sends each statement to a second engine and returns
    its outcome, which must be ours (None: not compared)."""
    db = _ours(rows)
    check(db)
    for sql, rolled_back in script:
        if rolled_back:
            db.execute("BEGIN")
            mirror("BEGIN")
        outcome = _run(db, sql)
        assert mirror(sql) in (None, outcome), sql
        check(db)
        if rolled_back:
            db.execute("ROLLBACK")
            mirror("ROLLBACK")
            check(db)


@settings(max_examples=150, deadline=None)
@given(rows=tables, script=scripts, where=_where(any_bounds))
@example(rows=[(1, 0), (0, 0)], script=[], where=["{k} = TRUE"])
@example(rows=[(3, 0), (1, 0), (2, 0)], script=[], where=["{k} >= 2"])
@example(rows=[(1, 0), (2, 0)], script=[("UPDATE t SET id = 5 WHERE id = 1", False)], where=["{k} > 1"])
def test_range_scan_equals_the_hidden_key_scan(rows, script, where):
    sargable, hidden = _query(where, "id"), _query(where, "id + 0")

    def check(db):
        assert db.query(sargable) == db.query(hidden), sargable

    _replay(rows, script, check)


@settings(max_examples=100, deadline=None)
@given(rows=tables, script=scripts, where=_where(numeric_bounds))
@example(
    rows=[(2, 0)],
    script=[
        ("INSERT INTO t VALUES (1, 1), (1, 2)", False),
        ("INSERT INTO t VALUES (3, 1), (2, 2)", True),
    ],
    where=["{k} >= 0"],
)
def test_range_scan_matches_sqlite(rows, script, where):
    sql = _query(where, "id")
    lite = sqlite3.connect(":memory:", isolation_level=None)
    lite.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    lite.executemany("INSERT INTO t VALUES (?, ?)", rows)

    def check(db):
        assert sorted(db.query(sql)) == sorted(lite.execute(sql).fetchall()), sql

    def mirror(statement):
        outcome = _run(lite, statement)
        return None if statement in ("BEGIN", "ROLLBACK") else outcome

    _replay(rows, script, check, mirror)


def test_a_later_nan_key_refuses_the_whole_insert_like_sqlite():
    # sqlite stores a bound NaN as NULL, which NOT NULL refuses; the whole
    # statement goes, its first row too.
    lite = sqlite3.connect(":memory:", isolation_level=None)
    lite.execute("CREATE TABLE r (k REAL PRIMARY KEY NOT NULL, v INTEGER)")
    db = Database()
    db.execute("CREATE TABLE r (k REAL PRIMARY KEY NOT NULL, v INTEGER)")
    for engine in (lite, db):
        engine.execute("INSERT INTO r VALUES (1.0, 1)")
    with pytest.raises(sqlite3.IntegrityError):
        lite.execute("INSERT INTO r VALUES (?, ?), (?, ?)", (2.0, 2, float("nan"), 3))
    assert _run(db, "INSERT INTO r VALUES (2.0, 2), ('nan', 3)") == "refused"
    assert db.query("SELECT k, v FROM r") == lite.execute("SELECT k, v FROM r").fetchall() == [(1.0, 1)]


def test_ints_past_two_to_the_53_compare_as_floats():
    # 2**53 + 1 rounds to 2**53 as a float: BETWEEN and < say so, and so
    # must the range.
    db = _ours([(BIG + 2, 0), (BIG + 1, 0), (BIG, 0), (BIG - 1, 0)])
    for where in (f"id BETWEEN {BIG + 1} AND {BIG + 1}", f"id < {BIG + 1}", f"id = {BIG + 1}"):
        assert db.query(_query([where], "id")) == db.query(_query([where], "id + 0")), where


def test_equality_on_a_boolean_key_reads_every_row():
    # 1 = TRUE holds in SQL, but sort_key(1) != sort_key(TRUE).
    db = Database()
    db.execute("CREATE TABLE b (k BOOLEAN PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO b VALUES (FALSE, 0), (TRUE, 1)")
    assert db.query("SELECT v FROM b WHERE k = 1") == [(1,)]
    assert "RANGE" not in db.explain("SELECT v FROM b WHERE k = 1")


def test_a_nan_key_is_rejected_by_insert_and_update():
    # NaN equals nothing, itself included, so a set of keys would hold it
    # twice; sqlite stores a bound NaN as NULL, which a key refuses.
    db = Database()
    db.execute("CREATE TABLE r (k REAL PRIMARY KEY, v INTEGER)")
    with pytest.raises(SQLIntegrityError, match="NaN"):
        db.execute("INSERT INTO r VALUES ('nan', 1), ('nan', 2)")
    with pytest.raises(SQLIntegrityError, match="NaN"):
        db.execute("INSERT INTO r VALUES ('nan', 1)")
    db.execute("INSERT INTO r VALUES (1.0, 1), (3.0, 3)")
    with pytest.raises(SQLIntegrityError, match="NaN"):
        db.execute("UPDATE r SET k = 'nan'")
    with pytest.raises(SQLIntegrityError, match="NaN"):
        db.execute("UPDATE r SET k = 'nan' WHERE v = 3")
    assert db.query("SELECT k, v FROM r") == [(1.0, 1), (3.0, 3)]
    assert db.query("SELECT v FROM r WHERE k >= 1") == [(1,), (3,)]


class TestExplain:
    def test_range_scan_counts_the_rows_it_reads(self):
        db = _ours([(k, 0) for k in range(200, 0, -1)])
        text = db.explain("SELECT id FROM t WHERE id BETWEEN 41 AND 80 AND v <= 4")
        assert "  RANGE SCAN t ON id (40 of 200 rows)" in text.splitlines()

    @pytest.mark.parametrize(
        "where",
        [
            "id + 0 BETWEEN 41 AND 80",
            "id NOT BETWEEN 41 AND 80",
            "id BETWEEN v AND v + 1",
            "id = 'x'",
            "id <> 5",
            "id > 3 OR v = 1",
            "EXISTS (SELECT 1 FROM t AS u) AND id = 4",
            "u.id = 4",
        ],
    )
    def test_no_range_without_a_key_bound_before_any_subquery(self, where):
        db = _ours([(k, 0) for k in range(1, 9)])
        assert "  SCAN t (8 rows)" in db.explain(f"SELECT id FROM t WHERE {where}").splitlines()


def test_naive_mode_still_asks_the_llm_for_rows_outside_the_range():
    # Per row, a semantic conjunct written first runs before the range
    # rejects the row: the naive reference keeps paying for all of them.
    script = "CREATE TABLE d (id INTEGER PRIMARY KEY, body TEXT);" + "".join(
        f"INSERT INTO d VALUES ({i}, 'review {i}');" for i in range(1, 11)
    )
    db = Database.from_script(script, semantic=SemanticRuntime.naive())
    db.execute("SELECT id FROM d WHERE SEMANTIC_FILTER(body, 'is short') AND id <= 3")
    assert db.semantic.stats.provider_calls == 10
