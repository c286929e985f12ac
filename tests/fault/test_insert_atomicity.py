"""Durable halves of the ``insert_many`` contracts.

* A failed ``INSERT`` leaves nothing behind that recovery could pick up:
  reopening after it — cleanly or after a crash — yields exactly the state
  of an oracle that ran only the statements that committed.
* ``workloads.load_into`` on a durable database is durable: every batch is
  one committed transaction (one WAL append), and the reopened database
  equals the live one.  An in-memory load takes no transaction at all.
"""

from __future__ import annotations

import pytest

from repro.engine import faults
from repro.engine.database import Database
from repro.errors import SerializationError
from repro.workloads import TpchConfig, create_tables, load_into, table_row_counts
from repro.workloads import tpch_uncertain

from . import kill_wal

_COMMITTED_BEFORE = [
    "CREATE TABLE r (name TEXT, v REAL UNCERTAIN)",
    "CREATE PROB INDEX ON r (v)",
    "INSERT INTO r VALUES ('first', GAUSSIAN(1, 1))",
]
_FAILING = (
    "INSERT INTO r VALUES ('ok', UNIFORM(0, 1)), ('%s', GAUSSIAN(2, 1))" % ("x" * 70_000)
)
_COMMITTED_AFTER = [
    "INSERT INTO r VALUES ('second', GAUSSIAN(3, 1)), ('third', DISCRETE(1:0.25, 2:0.5))",
]


def _oracle(statements):
    db = Database()
    for sql in statements:
        db.execute(sql)
    return db.dump_state()


@pytest.mark.parametrize("crash", [False, True], ids=["closed", "crashed"])
def test_reopen_after_a_failed_insert_equals_the_committed_prefix(tmp_path, crash):
    path = str(tmp_path / "db")
    db = Database(path=path)
    for sql in _COMMITTED_BEFORE:
        db.execute(sql)
    with pytest.raises(SerializationError):
        db.execute(_FAILING)
    assert db.dump_state() == _oracle(_COMMITTED_BEFORE)
    for sql in _COMMITTED_AFTER:  # the failed statement wedged nothing
        db.execute(sql)
    live = db.dump_state()
    assert len(db.catalog.store) == 0  # base rows hold no reference
    if crash:
        kill_wal(db)
    else:
        db.close()

    recovered = Database(path=path)
    try:
        assert recovered.dump_state() == live == _oracle(_COMMITTED_BEFORE + _COMMITTED_AFTER)
        recovered.execute("INSERT INTO r VALUES ('fourth', GAUSSIAN(4, 1))")
        assert len(recovered.table("r")) == 4
    finally:
        recovered.close()


def test_failed_insert_in_an_explicit_transaction_commits_the_rest(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path=path)
    for sql in _COMMITTED_BEFORE:
        db.execute(sql)
    db.execute("BEGIN")
    with pytest.raises(SerializationError):
        db.execute(_FAILING)
    for sql in _COMMITTED_AFTER:
        db.execute(sql)
    db.execute("COMMIT")
    db.close()
    recovered = Database(path=path)
    try:
        assert recovered.dump_state() == _oracle(_COMMITTED_BEFORE + _COMMITTED_AFTER)
    finally:
        recovered.close()


def test_durable_load_into_survives_reopen(tmp_path, monkeypatch):
    monkeypatch.setattr(tpch_uncertain, "_LOAD_BATCH", 64)
    cfg = TpchConfig(scale_factor=0.00005, seed=1)
    path = str(tmp_path / "db")
    db = Database(path=path)
    create_tables(db)
    appends_before = faults.INJECTOR.counts().get("wal.append.before", 0)
    counts = load_into(db, cfg)
    appends = faults.INJECTOR.counts()["wal.append.before"] - appends_before
    assert counts == table_row_counts(cfg) == {"lineitem": 300, "orders": 75, "part": 10}
    # one commit per batch of 64 rows: 5 + 2 + 1
    assert appends == sum(-(-n // 64) for n in counts.values())
    assert not db.catalog.txn.active
    live = db.dump_state()
    db.close()

    reopened = Database(path=path)
    try:
        assert {n: len(reopened.table(n)) for n in counts} == counts
        assert reopened.dump_state() == live
    finally:
        reopened.close()


def test_in_memory_load_into_takes_no_transaction(monkeypatch):
    cfg = TpchConfig(scale_factor=0.00005, seed=1)
    db = Database()
    create_tables(db)

    def begin():
        raise AssertionError("an in-memory load must not open a transaction")

    monkeypatch.setattr(db.catalog.txn, "begin", begin)
    assert load_into(db, cfg) == table_row_counts(cfg)
