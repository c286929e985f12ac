"""Transaction semantics at the SQL surface (in-memory databases).

The WAL suite (tests/fault/) covers durability; these tests pin the
logical semantics of BEGIN/COMMIT/ROLLBACK — statement grammar, precise
undo of every mutating statement kind, and autocommit behaviour.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.sql import parser
from repro.engine.sql import ast
from repro.errors import TransactionError


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE s (sid INT, temp REAL UNCERTAIN)")
    d.execute("INSERT INTO s VALUES (1, GAUSSIAN(20, 5))")
    d.execute("INSERT INTO s VALUES (2, UNIFORM(0, 10))")
    return d


def test_parser_accepts_transaction_statements():
    assert isinstance(parser.parse("BEGIN"), ast.Begin)
    assert isinstance(parser.parse("BEGIN TRANSACTION"), ast.Begin)
    assert isinstance(parser.parse("COMMIT"), ast.Commit)
    assert isinstance(parser.parse("ROLLBACK"), ast.Rollback)


def test_sql_begin_commit(db):
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(0, 1))")
    db.execute("COMMIT")
    assert len(db.execute("SELECT sid FROM s").rows) == 3


def test_sql_rollback_discards(db):
    before = db.dump_state()
    db.execute("BEGIN TRANSACTION")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(0, 1))")
    db.execute("ROLLBACK")
    assert db.dump_state() == before


def test_rollback_undoes_insert_and_history(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (3, DISCRETE(1:0.5, 2:0.5))")
    db.execute("ROLLBACK")
    # history store has no leaked entries, tuple ids not consumed
    assert db.dump_state() == before


def test_rollback_undoes_delete(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("DELETE FROM s WHERE sid = 1")
    assert len(db.execute("SELECT sid FROM s").rows) == 1
    db.execute("ROLLBACK")
    assert db.dump_state() == before
    assert len(db.execute("SELECT sid FROM s").rows) == 2


def test_rollback_undoes_update(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("UPDATE s SET temp = GAUSSIAN(99, 1) WHERE sid = 1")
    db.execute("ROLLBACK")
    assert db.dump_state() == before


def test_rollback_undoes_ddl(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("CREATE TABLE extra (x INT)")
    db.execute("INSERT INTO extra VALUES (1)")
    db.execute("ROLLBACK")
    assert db.dump_state() == before
    assert "extra" not in db.dump_state()["tables"]


def test_rollback_undoes_drop_table(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("DROP TABLE s")
    assert "s" not in db.dump_state()["tables"]
    db.execute("ROLLBACK")
    assert db.dump_state() == before


def test_rollback_undoes_indexes(db):
    """A rolled-back PROB index leaves no ladder column on any page, and
    the answers it would have pruned stay those of the unindexed scan."""
    queries = [
        "SELECT sid FROM s WHERE temp > 12 AND temp < 30",
        "SELECT sid FROM s WHERE PROB(temp > 12 AND temp < 30) >= 0.5",
    ]

    def answers():
        return [sorted(t.certain["sid"] for t in db.execute(q).rows) for q in queries]

    before, answered = db.dump_state(), answers()
    db.execute("BEGIN")
    db.execute("CREATE INDEX ON s (sid)")
    db.execute("CREATE PROB INDEX ON s (temp)")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(20, 1))")
    assert "index=temp@0.5" in db.execute("EXPLAIN " + queries[1]).plan_text
    db.execute("ROLLBACK")
    assert db.dump_state() == before
    t = db.table("s")
    assert not t.btrees and not t.ptis
    assert all("temp" not in syn.rows.columns for syn in t.synopses.values())
    assert "index=" not in db.execute("EXPLAIN " + queries[1]).plan_text
    assert answers() == answered == [[1], [1]]


def test_commit_then_rollback_only_undoes_new_work(db):
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(0, 1))")
    db.execute("COMMIT")
    committed = db.dump_state()
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (4, GAUSSIAN(0, 1))")
    db.execute("ROLLBACK")
    assert db.dump_state() == committed


def test_nested_begin_raises(db):
    db.execute("BEGIN")
    with pytest.raises(TransactionError):
        db.execute("BEGIN")
    db.execute("ROLLBACK")


def test_commit_outside_txn_raises(db):
    with pytest.raises(TransactionError):
        db.execute("COMMIT")
    with pytest.raises(TransactionError):
        db.execute("ROLLBACK")


def test_context_manager_commits(db):
    # Database is a context manager over its lifetime (close), while
    # begin/commit pair naturally with try/except at the call site.
    db.begin()
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(0, 1))")
    db.commit()
    assert len(db.execute("SELECT sid FROM s").rows) == 3


def test_queries_allowed_inside_transaction(db):
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(30, 1))")
    rows = db.execute("SELECT sid FROM s WHERE PROB(temp > 25) >= 0.9").rows
    assert [t.certain["sid"] for t in rows] == [3]
    db.execute("ROLLBACK")


def test_rollback_releases_tuple_ids(db):
    """Tuple ids consumed by an aborted txn are re-drawn by later inserts."""
    db.execute("BEGIN")
    db.execute("INSERT INTO s VALUES (3, GAUSSIAN(0, 1))")
    db.execute("ROLLBACK")
    db.execute("INSERT INTO s VALUES (4, GAUSSIAN(0, 1))")
    oracle = Database()
    oracle.execute("CREATE TABLE s (sid INT, temp REAL UNCERTAIN)")
    oracle.execute("INSERT INTO s VALUES (1, GAUSSIAN(20, 5))")
    oracle.execute("INSERT INTO s VALUES (2, UNIFORM(0, 10))")
    oracle.execute("INSERT INTO s VALUES (4, GAUSSIAN(0, 1))")
    assert db.dump_state() == oracle.dump_state()


def test_ctas_rolls_back(db):
    before = db.dump_state()
    db.execute("BEGIN")
    db.execute("CREATE TABLE hot AS SELECT sid, temp FROM s WHERE PROB(temp > 15) >= 0.5")
    db.execute("ROLLBACK")
    assert db.dump_state() == before
