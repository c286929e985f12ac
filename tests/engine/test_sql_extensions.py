"""Tests for the SQL extensions: UPDATE, GROUP BY, DISTINCT, BETWEEN/IN, CTAS."""

import pytest

from repro import Database
from repro.errors import CatalogError, QueryError, SqlBindError, SqlParseError
from repro.pdf import DiscretePdf, GaussianPdf

from .. import mass_at


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, site TEXT, value REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO readings VALUES "
        "(1, 'lab', GAUSSIAN(20, 5)), (2, 'lab', GAUSSIAN(25, 4)), "
        "(3, 'roof', GAUSSIAN(13, 1)), (4, 'roof', GAUSSIAN(50, 2))"
    )
    return db


class TestBetweenIn:
    def test_between_desugars(self, db):
        a = db.execute("SELECT rid FROM readings WHERE rid BETWEEN 2 AND 3").to_dicts()
        b = db.execute("SELECT rid FROM readings WHERE rid >= 2 AND rid <= 3").to_dicts()
        assert a == b

    def test_between_on_uncertain(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE value BETWEEN 18 AND 27"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [1, 2]

    def test_in_list(self, db):
        rows = db.execute("SELECT rid FROM readings WHERE rid IN (1, 4)").to_dicts()
        assert [r["rid"] for r in rows] == [1, 4]

    def test_in_strings(self, db):
        rows = db.execute("SELECT rid FROM readings WHERE site IN ('roof')").to_dicts()
        assert [r["rid"] for r in rows] == [3, 4]

    def test_in_single_value(self, db):
        rows = db.execute("SELECT rid FROM readings WHERE rid IN (2)").to_dicts()
        assert [r["rid"] for r in rows] == [2]


class TestUpdate:
    def test_update_certain(self, db):
        out = db.execute("UPDATE readings SET site = 'attic' WHERE rid = 1")
        assert out.rowcount == 1
        rows = db.execute("SELECT site FROM readings WHERE rid = 1" if False else
                          "SELECT rid, site FROM readings").to_dicts()
        by_rid = {r["rid"]: r["site"] for r in rows}
        assert by_rid[1] == "attic" and by_rid[2] == "lab"

    def test_update_pdf(self, db):
        db.execute("UPDATE readings SET value = GAUSSIAN(99, 1) WHERE rid = 2")
        rows = db.execute("SELECT rid, value FROM readings").rows
        pdf = {t.certain["rid"]: t.pdf_of_attr("value") for t in rows}[2]
        assert pdf.params == {"mean": 99.0, "variance": 1.0}

    def test_update_all_rows(self, db):
        out = db.execute("UPDATE readings SET site = 'x'")
        assert out.rowcount == 4

    def test_update_maintains_indexes(self, db):
        db.execute("CREATE INDEX ON readings (rid)")
        db.execute("CREATE PROB INDEX ON readings (value)")
        db.execute("UPDATE readings SET value = GAUSSIAN(999, 1) WHERE rid = 3")
        rows = db.execute(
            "SELECT rid FROM readings WHERE value > 990 AND value < 1010"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [3]

    def test_update_makes_fresh_ancestor(self, db):
        before = len(db.catalog.store)
        db.execute("UPDATE readings SET value = GAUSSIAN(1, 1) WHERE rid = 1")
        # Old ancestor released (unreferenced -> dropped), new one registered.
        assert len(db.catalog.store) == before

    def test_update_uncertain_predicate_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("UPDATE readings SET site = 'x' WHERE value > 5")

    def test_update_unknown_column_rejected(self, db):
        with pytest.raises(SqlBindError):
            db.execute("UPDATE readings SET nope = 1")


class TestGroupBy:
    def test_group_counts(self, db):
        rows = db.execute(
            "SELECT site, COUNT(*) FROM readings GROUP BY site"
        ).rows
        counts = {
            t.certain["site"]: mass_at(t.pdfs[frozenset({"count"})], 2)
            for t in rows
        }
        assert counts == {"lab": pytest.approx(1.0), "roof": pytest.approx(1.0)}

    def test_group_expected(self, db):
        rows = db.execute(
            "SELECT site, EXPECTED(value) FROM readings GROUP BY site"
        ).to_dicts()
        by_site = {r["site"]: r["expected_value"] for r in rows}
        assert by_site["lab"] == pytest.approx(45.0)
        assert by_site["roof"] == pytest.approx(63.0)

    def test_group_sum_distribution(self, db):
        rows = db.execute(
            "SELECT site, SUM(value) FROM readings GROUP BY site"
        ).rows
        sums = {t.certain["site"]: t.pdfs[frozenset({"sum_value"})] for t in rows}
        assert sums["lab"].mean() == pytest.approx(45.0)
        assert sums["lab"].variance() == pytest.approx(9.0)

    def test_group_after_uncertain_selection(self, db):
        rows = db.execute(
            "SELECT site, COUNT(*) FROM readings WHERE value > 20 GROUP BY site"
        ).rows
        counts = {t.certain["site"]: t.pdfs[frozenset({"count"})] for t in rows}
        # roof's Gaus(13,1) tuple is (essentially) filtered out;
        # Gaus(50,2) survives with mass ~1.
        assert counts["roof"].mean() == pytest.approx(1.0, abs=1e-6)
        # lab's count is a genuine distribution (two partial tuples).
        assert counts["lab"].variance() > 0

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT rid, COUNT(*) FROM readings GROUP BY site")

    def test_group_by_uncertain_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT COUNT(*) FROM readings GROUP BY value")

    def test_group_by_without_aggregates_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT site FROM readings GROUP BY site")

    def test_group_ordering_of_columns(self, db):
        result = db.execute(
            "SELECT COUNT(*), site FROM readings GROUP BY site"
        )
        assert result.columns == ["count", "site"]


class TestDistinctSql:
    def test_distinct_sites(self, db):
        rows = db.execute("SELECT DISTINCT site FROM readings").to_dicts()
        assert [r["site"] for r in rows] == ["lab", "roof"]

    def test_distinct_probability(self):
        db = Database()
        db.execute("CREATE TABLE t (tag TEXT, v REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO t VALUES ('a', DISCRETE(1: 0.5)), ('a', DISCRETE(2: 0.5))"
        )
        result = db.execute("SELECT DISTINCT tag FROM t")
        (row,) = result.rows
        assert db.existence_probability(row) == pytest.approx(0.75)

    def test_distinct_on_uncertain_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT DISTINCT value FROM readings")

    def test_distinct_with_aggregate_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT DISTINCT COUNT(*) FROM readings")


class TestCreateTableAs:
    def test_materialise_certain_query(self, db):
        db.execute("CREATE TABLE lab AS SELECT rid FROM readings WHERE site = 'lab'")
        rows = db.execute("SELECT * FROM lab").to_dicts()
        assert [r["rid"] for r in rows] == [1, 2]

    def test_materialise_uncertain_query(self, db):
        db.execute(
            "CREATE TABLE hot AS SELECT rid, value FROM readings WHERE value > 20"
        )
        rows = db.execute("SELECT * FROM hot").rows
        masses = {t.certain["rid"]: t.pdf_of_attr("value").mass() for t in rows}
        assert masses[4] == pytest.approx(1.0, abs=1e-6)
        assert 0 < masses[1] < 1

    def test_lineage_survives_materialisation(self, db):
        db.execute("CREATE TABLE hot AS SELECT rid, value FROM readings WHERE value > 20")
        _, t = next(iter(db.table("hot").scan()))
        (link,) = t.lineage[frozenset({"value"})]
        assert link.ref in db.catalog.store

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE readings AS SELECT rid FROM readings")

    def test_queryable_like_any_table(self, db):
        db.execute("CREATE TABLE hot AS SELECT rid, value FROM readings WHERE value > 20")
        n = db.execute("SELECT COUNT(*) FROM hot WHERE PROB(*) >= 0.999").scalar()
        assert mass_at(n, 1) == pytest.approx(1.0)  # only rid 4 is near-certain
