"""End-to-end SQL tests through the Database facade."""

import pytest

from repro import Database
from repro.core.model import ModelConfig
from repro.errors import CatalogError, QueryError, SqlBindError
from repro.pdf import DiscretePdf, FlooredPdf, GaussianPdf

from .. import mass_at


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), "
        "(3, GAUSSIAN(13, 1))"
    )
    return db


class TestDdlDml:
    def test_create_insert_select(self, db):
        result = db.execute("SELECT * FROM readings")
        assert result.rowcount == 3
        assert result.columns == ["rid", "value"]

    def test_insert_named_columns(self, db):
        db.execute("INSERT INTO readings (rid, value) VALUES (4, GAUSSIAN(1, 1))")
        assert db.execute("SELECT * FROM readings").rowcount == 4

    def test_insert_null_pdf(self, db):
        db.execute("INSERT INTO readings VALUES (5, NULL)")
        rows = db.execute("SELECT * FROM readings").to_dicts()
        assert rows[-1]["value"] is None

    def test_plain_number_into_uncertain_becomes_point_mass(self, db):
        db.execute("INSERT INTO readings VALUES (6, 42)")
        rows = db.execute("SELECT value FROM readings WHERE rid = 6" .replace("rid", "rid"))
        # rid was projected away; check through a full select
        rows = db.execute("SELECT * FROM readings").to_dicts()
        point = [r for r in rows if r["rid"] == 6][0]["value"]
        assert isinstance(point, DiscretePdf)
        assert mass_at(point, 42) == pytest.approx(1.0)

    def test_delete(self, db):
        out = db.execute("DELETE FROM readings WHERE rid = 2")
        assert out.rowcount == 1
        assert db.execute("SELECT * FROM readings").rowcount == 2

    def test_delete_uncertain_predicate_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("DELETE FROM readings WHERE value > 5")

    def test_drop(self, db):
        db.execute("DROP TABLE readings")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM readings")

    def test_joint_dependency_insert(self):
        db = Database()
        db.execute(
            "CREATE TABLE objects (oid INT, x REAL, y REAL, DEPENDENCY (x, y))"
        )
        db.execute(
            "INSERT INTO objects VALUES (1, JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]]))"
        )
        rows = db.execute("SELECT * FROM objects").rows
        assert set(rows[0].pdfs[frozenset({"x", "y"})].attrs) == {"x", "y"}

    def test_pdf_into_certain_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("INSERT INTO readings VALUES (GAUSSIAN(1, 1), GAUSSIAN(1, 1))")


class TestSelection:
    def test_range_query(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE value > 18 AND value < 22"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [1, 2]

    def test_floors_are_symbolic(self, db):
        rows = db.execute("SELECT * FROM readings WHERE value > 18").rows
        assert isinstance(rows[0].pdf_of_attr("value"), FlooredPdf)

    def test_certain_filter(self, db):
        assert db.execute("SELECT * FROM readings WHERE rid >= 2").rowcount == 2

    def test_prob_threshold(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE PROB(value > 18 AND value < 22) >= 0.5"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [1]

    def test_prob_star(self, db):
        # All base tuples exist with probability 1.
        assert db.execute("SELECT rid FROM readings WHERE PROB(*) >= 1").rowcount == 3

    def test_or_predicate(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE rid = 1 OR rid = 3"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [1, 3]

    def test_order_and_limit(self, db):
        rows = db.execute(
            "SELECT rid FROM readings ORDER BY rid DESC LIMIT 2"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [3, 2]


class TestJoins:
    @pytest.fixture
    def db2(self, db):
        db.execute("CREATE TABLE sensors (sid INT, label TEXT)")
        db.execute("INSERT INTO sensors VALUES (1, 'hall'), (2, 'lab'), (3, 'roof')")
        return db

    def test_equi_join(self, db2):
        rows = db2.execute(
            "SELECT s.label, r.rid FROM sensors s, readings r WHERE s.sid = r.rid"
        ).to_dicts()
        assert len(rows) == 3

    def test_join_with_uncertain_filter(self, db2):
        rows = db2.execute(
            "SELECT s.label FROM sensors s, readings r "
            "WHERE s.sid = r.rid AND r.value > 20"
        ).rows
        labels = [t.certain["s.label"] for t in rows]
        assert labels == ["hall", "lab"]

    def test_ambiguous_column_rejected(self, db2):
        db2.execute("CREATE TABLE more (rid INT)")
        with pytest.raises(SqlBindError):
            db2.execute("SELECT rid FROM readings, more")

    def test_unknown_alias_rejected(self, db2):
        with pytest.raises(SqlBindError):
            db2.execute("SELECT zzz.label FROM sensors s")


class TestAggregatesSql:
    def test_count(self, db):
        pdf = db.execute("SELECT COUNT(*) FROM readings").scalar()
        assert mass_at(pdf, 3) == pytest.approx(1.0)

    def test_uncertain_count_after_selection(self, db):
        pdf = db.execute(
            "SELECT COUNT(*) FROM readings WHERE value > 18 AND value < 22"
        ).scalar()
        # The count is genuinely a distribution now.
        assert pdf.mass() == pytest.approx(1.0)
        assert pdf.variance() > 0

    def test_expected(self, db):
        value = db.execute("SELECT EXPECTED(value) FROM readings").scalar()
        assert value == pytest.approx(58.0)

    def test_sum(self, db):
        pdf = db.execute("SELECT SUM(value) FROM readings").scalar()
        assert pdf.mean() == pytest.approx(58.0)
        assert pdf.variance() == pytest.approx(10.0)

    def test_aggregate_alias(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM readings")
        assert result.columns == ["n"]

    def test_mixed_agg_and_plain_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT rid, COUNT(*) FROM readings")

    def test_empty_table_one_row_without_group_by_none_with(self):
        """Without keys the whole input is one group, even an empty input;
        GROUP BY over no rows has no groups."""
        db = Database()
        db.execute("CREATE TABLE empty (k INT, v REAL UNCERTAIN)")
        (row,) = db.execute("SELECT COUNT(*), EXPECTED(v) FROM empty").rows
        assert mass_at(row.pdfs[frozenset({"count"})], 0) == pytest.approx(1.0)
        assert row.certain["expected_v"] == 0.0
        assert db.execute("SELECT k, COUNT(*) FROM empty GROUP BY k").rows == []


class TestIndexedQueries:
    def test_btree_used(self, db):
        db.execute("CREATE INDEX ON readings (rid)")
        plan = db.execute("EXPLAIN SELECT rid FROM readings WHERE rid >= 2").plan_text
        assert "SeqScan(readings)" in plan and "btree=rid[2,inf]" in plan
        rows = db.execute("SELECT rid FROM readings WHERE rid >= 2").to_dicts()
        assert [r["rid"] for r in rows] == [2, 3]

    def test_pti_used(self, db):
        db.execute("CREATE PROB INDEX ON readings (value)")
        plan = db.execute(
            "EXPLAIN SELECT rid FROM readings WHERE value > 18 AND value < 22"
        ).plan_text
        assert "SeqScan(readings)" in plan and "index=value@0]" in plan

    def test_pti_threshold_pushdown(self, db):
        db.execute("CREATE PROB INDEX ON readings (value)")
        plan = db.execute(
            "EXPLAIN SELECT rid FROM readings WHERE PROB(value > 18 AND value < 22) >= 0.5"
        ).plan_text
        assert "SeqScan(readings)" in plan and "index=value@0.5]" in plan

    def test_indexed_and_unindexed_agree(self, db):
        base = db.execute(
            "SELECT rid FROM readings WHERE value > 18 AND value < 22"
        ).to_dicts()
        db.execute("CREATE PROB INDEX ON readings (value)")
        indexed = db.execute(
            "SELECT rid FROM readings WHERE value > 18 AND value < 22"
        ).to_dicts()
        assert sorted(r["rid"] for r in base) == sorted(r["rid"] for r in indexed)


class TestResultApi:
    def test_pretty(self, db):
        text = db.execute("SELECT * FROM readings").pretty()
        assert "rid" in text and "GAUSSIAN(20, 5)" in text

    def test_scalar_shape_check(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM readings").scalar()

    def test_explain_has_no_rows(self, db):
        result = db.execute("EXPLAIN SELECT * FROM readings")
        assert result.rows == [] and result.plan_text

    def test_io_counters_accessible(self, db):
        db.reset_io_stats()
        db.execute("SELECT * FROM readings")
        assert db.buffer_stats.hits + db.buffer_stats.misses > 0

    def test_categorical_sql_roundtrip(self):
        db = Database()
        db.execute("CREATE TABLE ann (tid INT, label TEXT UNCERTAIN)")
        db.execute(
            "INSERT INTO ann VALUES (1, CATEGORICAL('person': 0.7, 'place': 0.3))"
        )
        rows = db.execute("SELECT tid FROM ann WHERE label = 'person'").to_dicts()
        assert [r["tid"] for r in rows] == [1]
        assert db.execute("SELECT tid FROM ann WHERE label = 'zebra'").rowcount == 0
