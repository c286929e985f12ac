"""Snapshot save/open tests: catalog, pages, histories, indexes, labels."""

import os

import pytest

from repro import Database
from repro.errors import SerializationError


@pytest.fixture
def populated(tmp_path):
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    for i in range(40):
        db.execute(f"INSERT INTO readings VALUES ({i}, GAUSSIAN({i}, 1))")
    db.execute("CREATE TABLE ann (tid INT, label TEXT UNCERTAIN)")
    db.execute("INSERT INTO ann VALUES (1, CATEGORICAL('snapshot-cat': 0.7, 'snapshot-dog': 0.3))")
    db.execute("CREATE INDEX ON readings (rid)")
    db.execute("CREATE PROB INDEX ON readings (value)")
    path = str(tmp_path / "db.rpdb")
    return db, path


class TestSnapshot:
    def test_roundtrip_rows(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        rows = db2.execute("SELECT rid FROM readings ORDER BY rid").to_dicts()
        assert [r["rid"] for r in rows] == list(range(40))

    def test_pdfs_survive(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        rows = db2.execute("SELECT * FROM readings").rows
        pdf = {t.certain["rid"]: t.pdf_of_attr("value") for t in rows}[7]
        assert pdf.params == {"mean": 7.0, "variance": 1.0}

    def test_categorical_labels_survive(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        rows = db2.execute("SELECT tid FROM ann WHERE label = 'snapshot-cat'")
        assert rows.rowcount == 1

    def test_indexes_rebuilt(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        plan = db2.execute("EXPLAIN SELECT rid FROM readings WHERE rid >= 30").plan_text
        assert "btree=rid[30,inf]" in plan
        plan = db2.execute(
            "EXPLAIN SELECT rid FROM readings WHERE value > 5 AND value < 6"
        ).plan_text
        assert "index=value@0" in plan

    def test_histories_survive(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        _, t = next(iter(db2.table("readings").scan()))
        (link,) = t.lineage[frozenset({"value"})]
        # the reopened store reads the base pdf from its heap record
        assert db2.catalog.store.pdf(link.ref) == t.pdf_of_attr("value")

    def test_writable_after_open(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        db2.execute("INSERT INTO readings VALUES (100, GAUSSIAN(0, 1))")
        db2.execute("DELETE FROM readings WHERE rid = 0")
        assert db2.execute("SELECT * FROM readings").rowcount == 40

    def test_tuple_ids_do_not_collide_after_open(self, populated):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        # Inserting must not re-register an existing ancestor id.
        for i in range(5):
            db2.execute(f"INSERT INTO readings VALUES ({200 + i}, GAUSSIAN(1, 1))")
        assert db2.execute("SELECT * FROM readings").rowcount == 45

    def test_save_open_save_open(self, populated, tmp_path):
        db, path = populated
        db.save(path)
        db2 = Database.open(path)
        path2 = str(tmp_path / "db2.rpdb")
        db2.save(path2)
        db3 = Database.open(path2)
        assert db3.execute("SELECT * FROM readings").rowcount == 40

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.rpdb")
        with open(path, "wb") as f:
            f.write(b"NOPE1234")
        with pytest.raises(SerializationError):
            Database.open(path)

    def test_empty_database(self, tmp_path):
        db = Database()
        path = str(tmp_path / "empty.rpdb")
        db.save(path)
        db2 = Database.open(path)
        assert db2.catalog.tables == {}

    def test_jumbo_records_survive(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE big (k INT, v REAL UNCERTAIN)")
        # A 600-point discrete pdf does not fit an ordinary page.
        points = ", ".join(f"{i}: {1/600}" for i in range(600))
        db.execute(f"INSERT INTO big VALUES (1, DISCRETE({points}))")
        path = str(tmp_path / "jumbo.rpdb")
        db.save(path)
        db2 = Database.open(path)
        rows = db2.execute("SELECT * FROM big").rows
        assert len(rows[0].pdf_of_attr("v").values) == 600
