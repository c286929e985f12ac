"""Lazy B+trees: a restored B+tree is a name until its first read builds it.

A snapshot open, and a durable open that replays a log over a checkpoint,
leave every B+tree the file names unbuilt (``Table.btrees[attr] is None``).
Inserts, deletes and undos skip an unbuilt tree, and the first statement
that reads through it builds it from the heap as it then is.  The property:
DML that goes around the tree (``rid = k OR rid = -1`` bounds no B+tree)
leaves it unbuilt, DML through it (``rid = k``) builds it, ``rid =`` and
range selects at ``work_mem`` None and 1 return the never-closed database's
rows, and the built tree holds what a fresh build over the same heap holds.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ModelConfig
from repro.engine.database import Database

from .test_lazy_synopses import _rows

DDL = (
    "CREATE TABLE r (rid INT, cval REAL, uval REAL UNCERTAIN, pad TEXT)",
    "CREATE INDEX ON r (rid)",
)
#: widens each record, so that the smallest table spans several pages
PAD = "x" * 100

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "rollback"]),
        st.integers(0, 200),
        st.booleans(),  # through the B+tree (rid = k) or around it
        st.floats(-50, 50, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


def _insert(rid, mu):
    return f"INSERT INTO r VALUES ({rid}, {mu!r}, GAUSSIAN({mu!r}, 1), '{PAD}')"


def _where(rid, via_tree):
    return f"rid = {rid}" if via_tree else f"rid = {rid} OR rid = -1"


def _apply(db, op, next_rid):
    kind, target, via_tree, mu = op
    where = _where(target % next_rid, via_tree)
    if kind == "insert":
        db.execute(_insert(next_rid, mu))
    elif kind == "delete":
        db.execute(f"DELETE FROM r WHERE {where}")
    elif kind == "update":
        db.execute(f"UPDATE r SET uval = GAUSSIAN({mu!r}, 2) WHERE {where}")
    else:
        db.begin()
        db.execute(f"DELETE FROM r WHERE {where}")
        where = _where((target + 1) % next_rid, via_tree)
        db.execute(f"UPDATE r SET uval = GAUSSIAN({mu!r}, 2) WHERE {where}")
        db.execute(_insert(next_rid, mu))
        db.abort()


def _load(db, rows):
    db.execute("BEGIN")
    for rid, mu in enumerate(rows):
        db.execute(_insert(rid, mu))
    db.execute("COMMIT")


@settings(max_examples=12, deadline=None)
@given(
    rows=st.lists(st.floats(-50, 50, allow_nan=False), min_size=30, max_size=80),
    logged=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=10),
    dml=ops,
)
def test_unbuilt_btree_after_reopen_then_dml_and_lookups(rows, logged, dml):
    live = Database()
    with tempfile.TemporaryDirectory() as tmp:
        durable = Database(path=os.path.join(tmp, "db"))
        for db in (live, durable):
            for ddl in DDL:
                db.execute(ddl)
            _load(db, rows)
        durable.checkpoint()
        for db in (live, durable):  # the log: inserts, an update and a delete
            for i, mu in enumerate(logged):
                db.execute(_insert(len(rows) + i, mu))
            db.execute("UPDATE r SET uval = GAUSSIAN(3.0, 4.0) WHERE rid = 0")
            db.execute(f"DELETE FROM r WHERE rid = {len(rows) + 1}")
        durable.close()
        live.save(os.path.join(tmp, "r.snapshot"))
        shutil.copytree(os.path.join(tmp, "db"), os.path.join(tmp, "db1"))
        reopened = [
            Database.open(os.path.join(tmp, "r.snapshot")),
            Database.open(os.path.join(tmp, "r.snapshot"), config=ModelConfig(work_mem=1)),
            Database(path=os.path.join(tmp, "db")),
            Database(path=os.path.join(tmp, "db1"), config=ModelConfig(work_mem=1)),
        ]
        for db in reopened:
            assert db.table("r").btrees == {"rid": None}
        built = False
        next_rid = len(rows) + len(logged)
        for i, op in enumerate(dml):
            for db in [live, *reopened]:
                _apply(db, op, next_rid + i)
            built = built or (op[2] and op[0] != "insert")
            for db in reopened:
                assert (db.table("r").btrees["rid"] is not None) == built
        points = (0, 1, len(rows), len(rows) + 1, next_rid, next_rid + len(dml) - 1, -5)
        lookups = [f"rid = {k}" for k in points]
        lookups += [f"rid >= {len(rows) // 3} AND rid < {next_rid - 2}", f"rid > {len(rows)}"]
        for where in lookups:
            sql = f"SELECT rid, cval, uval FROM r WHERE {where}"
            expected = _rows(live.execute(sql))
            for db in reopened:
                assert _rows(db.execute(sql)) == expected, sql
        for db in reopened:
            assert _rows(db.execute("SELECT * FROM r")) == _rows(live.execute("SELECT * FROM r"))
            table = db.table("r")
            tree = table.btrees["rid"]
            tree.check_invariants()
            kept = sorted(tree.range_scan())
            del table.btrees["rid"]
            assert sorted(table.create_btree_index("rid").range_scan()) == kept
        for db in reopened[2:]:
            db.close()
