"""Persistence tests: SQL dump/restore and vector collection save/load."""

import os

import numpy as np
import pytest

from repro.sqldb import Database
from repro.vectordb import Collection, Metric


class TestDatabaseDump:
    def test_roundtrip_preserves_data(self, concert_db):
        script = concert_db.dump()
        restored = Database.from_script(script)
        assert restored.table_names() == concert_db.table_names()
        for name in concert_db.table_names():
            original = sorted(map(repr, concert_db.query(f"SELECT * FROM {name}")))
            copied = sorted(map(repr, restored.query(f"SELECT * FROM {name}")))
            assert original == copied

    def test_roundtrip_preserves_constraints(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
        db.execute("INSERT INTO t VALUES (1, 'a')")
        restored = Database.from_script(db.dump())
        from repro.errors import SQLIntegrityError

        with pytest.raises(SQLIntegrityError):
            restored.execute("INSERT INTO t VALUES (1, 'dup')")

    def test_dump_escapes_quotes_and_nulls(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, note TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'it''s fine'), (2, NULL)")
        restored = Database.from_script(db.dump())
        assert restored.query("SELECT note FROM t ORDER BY id") == [("it's fine",), (None,)]

    def test_dump_preserves_floats_and_bools(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL, flag BOOLEAN)")
        db.execute("INSERT INTO t VALUES (1, 2.5, TRUE), (2, 0.1, FALSE)")
        restored = Database.from_script(db.dump())
        assert restored.query("SELECT x, flag FROM t ORDER BY id") == [(2.5, True), (0.1, False)]

    def test_dump_is_idempotent(self, concert_db):
        once = concert_db.dump()
        twice = Database.from_script(once).dump()
        assert once == twice


class TestCollectionPersistence:
    def _collection(self):
        rng = np.random.default_rng(0)
        c = Collection(dim=6, metric=Metric.COSINE)
        for i in range(25):
            c.add(
                f"i{i}",
                rng.normal(size=6),
                metadata={"group": i % 5},
                payload={"rank": i},
            )
        return c

    def test_dict_roundtrip_preserves_search(self):
        original = self._collection()
        restored = Collection.from_dict(original.to_dict())
        query = original.get_vector("i7")
        assert [h.id for h in original.search(query, k=5)] == [
            h.id for h in restored.search(query, k=5)
        ]

    def test_roundtrip_preserves_metadata_and_payload(self):
        restored = Collection.from_dict(self._collection().to_dict())
        assert restored.get_metadata("i3") == {"group": 3}
        assert restored.get_payload("i3") == {"rank": 3}

    def test_save_load_file(self, tmp_path):
        original = self._collection()
        path = str(tmp_path / "collection.json")
        original.save(path)
        restored = Collection.load(path)
        assert len(restored) == len(original)
        query = original.get_vector("i11")
        assert restored.search(query, k=1).hits[0].id == "i11"

    def test_filtered_search_after_restore(self, tmp_path):
        original = self._collection()
        path = str(tmp_path / "c.json")
        original.save(path)
        restored = Collection.load(path)
        report = restored.search(np.ones(6), k=3, where={"group": 2})
        assert all(h.metadata["group"] == 2 for h in report.hits)

    def test_save_is_atomic_failed_write_preserves_original(self, tmp_path):
        # The seed bug: save() opened the target for writing directly, so
        # a crash (or unserializable payload) mid-write left a torn file.
        # Now the payload lands in a temp file renamed over the target.
        original = self._collection()
        path = str(tmp_path / "c.json")
        original.save(path)
        poisoned = self._collection()
        poisoned.add("bad", np.ones(6), payload=object())  # not JSON-serializable
        with pytest.raises(TypeError):
            poisoned.save(path)
        restored = Collection.load(path)  # previous save still intact
        assert len(restored) == len(original)
        assert sorted(os.listdir(tmp_path)) == ["c.json"]  # no temp litter
