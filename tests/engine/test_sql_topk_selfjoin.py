"""Top-k by probability and SQL self-joins."""

import pytest

from repro import Database
from repro.errors import UnsupportedOperationError


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), "
        "(3, GAUSSIAN(19, 1))"
    )
    return db


class TestOrderByProb:
    def test_top_k(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE value > 18 AND value < 22 "
            "ORDER BY PROB(*) DESC LIMIT 2"
        ).to_dicts()
        # Gaus(19,1) has the most mass in (18,22), then Gaus(20,5).
        assert [r["rid"] for r in rows] == [3, 1]

    def test_ascending(self, db):
        rows = db.execute(
            "SELECT rid FROM readings WHERE value > 18 AND value < 22 "
            "ORDER BY PROB(*) ASC"
        ).to_dicts()
        assert [r["rid"] for r in rows] == [2, 1, 3]

    def test_plan_label(self, db):
        plan = db.execute(
            "EXPLAIN SELECT rid FROM readings ORDER BY PROB(*) DESC"
        ).plan_text
        assert "Sort(PROB(*) DESC)" in plan

    def test_full_mass_ties_keep_input_order(self, db):
        rows = db.execute("SELECT rid FROM readings ORDER BY PROB(*) DESC").to_dicts()
        assert [r["rid"] for r in rows] == [1, 2, 3]


class TestSelfJoin:
    def test_certain_self_join(self, db):
        rows = db.execute(
            "SELECT a.rid, b.rid FROM readings a, readings b WHERE a.rid = b.rid"
        ).to_dicts()
        assert len(rows) == 3
        assert all(r["a.rid"] == r["b.rid"] for r in rows)

    def test_discrete_self_join_is_diagonal(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO t VALUES (1, DISCRETE(1: 0.5, 2: 0.5))")
        # v on both sides is the SAME random variable: a.v = b.v always.
        result = db.execute(
            "SELECT a.k FROM t a, t b WHERE a.k = b.k AND a.v = b.v"
        )
        assert result.rowcount == 1
        assert db.existence_probability(result.rows[0]) == pytest.approx(1.0)
        # ...and a.v < b.v never holds.
        result = db.execute(
            "SELECT a.k FROM t a, t b WHERE a.k = b.k AND a.v < b.v"
        )
        assert result.rowcount == 0

    def test_continuous_self_join_raises_clearly(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO t VALUES (1, GAUSSIAN(0, 1))")
        with pytest.raises(UnsupportedOperationError):
            db.execute("SELECT a.k FROM t a, t b WHERE a.k = b.k AND a.v < b.v")

    def test_cross_rows_of_self_join_are_independent(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO t VALUES (1, DISCRETE(1: 0.5, 2: 0.5)), "
            "(2, DISCRETE(1: 0.5, 2: 0.5))"
        )
        # Different base tuples: a.v < b.v is an ordinary independent product.
        result = db.execute(
            "SELECT a.k, b.k FROM t a, t b WHERE a.k = 1 AND b.k = 2 AND a.v < b.v"
        )
        assert result.rowcount == 1
        assert db.existence_probability(result.rows[0]) == pytest.approx(0.25)
