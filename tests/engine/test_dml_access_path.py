"""UPDATE / DELETE read through the planner's scan, and a B+tree narrows it.

An index may change how many pages a data-modifying statement reads, never
what it does: the rows it touches, the tuple ids the updated rows receive
and the resulting ``dump_state()`` are those of the full-table read.  The
scan decodes whole only the records that match, and a B+tree range is read
record by record, not page by page.
"""

import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.sql import ast
from repro.engine.sql.parser import parse
from repro.engine.sql.planner import Binder, convert_predicate
from repro.engine.table import Table
from repro.engine.storage.serialize import TuplePrefix

WHERES = st.one_of(
    st.just(""),
    st.builds(" WHERE rid = {}".format, st.integers(0, 30)),
    st.builds(
        lambda lo, n: f" WHERE rid >= {lo} AND rid < {lo + n}",
        st.integers(-2, 28),
        st.integers(0, 12),
    ),
    st.builds(" WHERE g = {}".format, st.integers(0, 3)),
    st.builds(" WHERE g > {}".format, st.integers(0, 3)),
    st.builds(" WHERE rid > {} AND g = {}".format, st.integers(0, 25), st.integers(0, 3)),
)
ASSIGNMENTS = st.one_of(
    st.builds("v = GAUSSIAN({}, 2)".format, st.integers(0, 50)),
    st.builds("g = {}".format, st.integers(0, 3)),
    st.builds("rid = {}".format, st.integers(0, 30)),  # moves the row inside the index
)
STATEMENTS = st.one_of(
    st.builds(
        "INSERT INTO t VALUES ({}, {}, GAUSSIAN({}, 3))".format,
        st.integers(0, 30),
        st.integers(0, 3),
        st.integers(0, 50),
    ),
    st.builds("UPDATE t SET {}{}".format, ASSIGNMENTS, WHERES),
    st.builds("DELETE FROM t{}".format, WHERES),
)


def _logical_state(db):
    state = db.dump_state()
    for table in state["tables"].values():
        del table["btrees"]  # the one difference that is meant to be there
    return state


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(STATEMENTS, min_size=1, max_size=25))
def test_index_never_changes_what_dml_does(stream):
    indexed, plain = Database(), Database()
    for db in (indexed, plain):
        db.execute("CREATE TABLE t (rid INT, g INT, v REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i % 4}, GAUSSIAN({i}, 1))" for i in range(12))
        )
    indexed.execute("CREATE INDEX ON t (rid)")
    for sql in stream:
        assert indexed.execute(sql).rowcount == plain.execute(sql).rowcount, sql
    assert _logical_state(indexed) == _logical_state(plain)


def _paged_table(rows=900):
    """``rid`` runs *against* storage order, so index order != RID order."""
    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    for start in range(0, rows, 100):
        db.execute(
            "INSERT INTO readings VALUES "
            + ", ".join(
                f"({rows - i}, GAUSSIAN({i % 97}, 4))" for i in range(start, start + 100)
            )
        )
    db.execute("CREATE INDEX ON readings (rid)")
    assert db.table("readings").heap.num_pages >= 20
    return db


def _cold_page_fetches(db, sql):
    """Distinct pages the statement pulls into an emptied buffer pool."""
    pool = db.catalog.pool
    pool.clear()
    pool.reset_stats()
    result = db.execute(sql)
    return result, pool.stats.misses


def test_point_dml_reads_only_the_matching_pages():
    db = _paged_table()
    pages = db.table("readings").heap.num_pages
    for sql in (
        "UPDATE readings SET value = GAUSSIAN(1, 1) WHERE rid = 417",
        "DELETE FROM readings WHERE rid = 417",
        "DELETE FROM readings WHERE rid = 100000",
    ):
        result, fetched = _cold_page_fetches(db, sql)
        assert result.rowcount == (0 if "100000" in sql else 1)
        # the row's page, plus (UPDATE) the tail pages the new version goes to
        assert fetched <= 3 < pages, (sql, fetched)
    # With nothing for the index to bound, the statement reads the table.
    _result, fetched = _cold_page_fetches(db, "DELETE FROM readings")
    assert fetched >= pages


def test_multi_page_update_applies_in_page_order():
    db = _paged_table()
    table = db.table("readings")
    before = {
        t.certain["rid"]: rid for rid, t in table.scan() if 200 <= t.certain["rid"] < 500
    }
    assert len({rid.page_id for rid in before.values()}) >= 5
    assert db.execute(
        "UPDATE readings SET value = GAUSSIAN(0, 1) WHERE rid >= 200 AND rid < 500"
    ).rowcount == 300
    new_ids = {
        t.certain["rid"]: t.tuple_id
        for _rid, t in table.scan()
        if 200 <= t.certain["rid"] < 500
    }
    # New versions are numbered in the storage order of the rows they replace
    # (the B+tree hands them over in key order, which runs the other way).
    in_storage_order = sorted(before, key=before.get)
    assert in_storage_order == sorted(before, reverse=True)
    ids = [new_ids[rid] for rid in in_storage_order]
    assert ids == sorted(ids)


def test_btree_lookup_reads_its_record_not_its_page():
    """``EXPLAIN ANALYZE`` counts a B+tree scan like any scan: a point
    lookup fetches one page and decodes one of its records, fills no row
    column, and no Filter re-tests the key above the scan."""
    db = _paged_table()
    table = db.table("readings")
    live = table.synopses[table.btrees["rid"].search(417)[0].page_id].live
    text = db.execute("EXPLAIN ANALYZE SELECT rid, value FROM readings WHERE rid = 417").plan_text
    assert text == (
        "-> Project(rid, value)  [actual=1]\n"
        "  -> SeqScan(readings)  [actual=1 pages=1/%d rows=1/%d lazy btree=rid[417,417] "
        "where=(rid = 417.0)]" % (table.heap.num_pages, live)
    )
    assert all(syn.rows is None for syn in table.synopses.values())
    text = db.execute("EXPLAIN ANALYZE SELECT rid FROM readings WHERE rid >= 200 AND rid < 500").plan_text
    pages, decoded = re.search(r"actual=300 pages=(\d+)/\d+ rows=(\d+)/", text).groups()
    assert decoded == "301" and 5 <= int(pages) and "Filter" not in text


def _whole_record_rows(db, stmt):
    """The reference: every record decoded whole, then the predicate."""
    table = db.catalog.get_table(stmt.table)
    pred = None
    if stmt.where is not None:
        pred = convert_predicate(Binder(db.catalog, [ast.TableRef(stmt.table)]), stmt.where)
    return [(rid, t) for rid, t in table.scan() if pred is None or pred.evaluate(t.certain) is True]


@pytest.mark.parametrize("index", [None, "CREATE INDEX ON readings (rid)"])
def test_dml_completes_only_the_records_it_touches(index, monkeypatch):
    """DELETE / UPDATE decode whole only the records their predicate
    matches, touch the rows the whole-record read touches, in the same
    order, and leave the same ``dump_state()``."""
    dbs = []
    for _ in range(2):
        db = Database()
        db.execute("CREATE TABLE readings (rid INT, g INT, value REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO readings VALUES "
            + ", ".join(f"({(37 * i) % 300}, {i % 7}, GAUSSIAN({i % 50}, 2))" for i in range(300))
        )
        if index:
            db.execute(index)
        dbs.append(db)
    db, reference = dbs
    reference._matching_rows = types.MethodType(_whole_record_rows, reference)
    completed = []
    complete = TuplePrefix.complete

    def counting(prefix, *args, **kwargs):
        completed.append(prefix.tuple_id)
        return complete(prefix, *args, **kwargs)

    for sql in (
        "DELETE FROM readings WHERE g = 3",
        "UPDATE readings SET g = 9, value = GAUSSIAN(1, 1) WHERE rid >= 40 AND rid < 90",
        "DELETE FROM readings WHERE rid = 17 OR rid = 18",
        "UPDATE readings SET rid = 500 WHERE g = 9 AND rid > 60",
        "DELETE FROM readings WHERE rid > 250",
    ):
        stmt = parse(sql)
        monkeypatch.setattr(TuplePrefix, "complete", counting)
        completed.clear()
        rows = db._matching_rows(stmt)
        monkeypatch.setattr(TuplePrefix, "complete", complete)
        want = reference._matching_rows(stmt)
        assert rows and [rid for rid, _t in rows] == [rid for rid, _t in want], sql
        assert sorted(completed) == sorted(t.tuple_id for _rid, t in rows), sql
        assert db.execute(sql).rowcount == reference.execute(sql).rowcount == len(rows)
        assert db.dump_state() == reference.dump_state(), sql


def test_dml_decodes_each_touched_row_once(monkeypatch):
    """``DELETE`` and ``UPDATE`` hand the rows their scan decoded to
    ``Table.delete``, which decodes nothing again: one ``complete`` per
    touched row, and the state of a database whose delete re-reads each
    record."""
    dbs = []
    for _ in range(2):
        db = Database()
        db.execute("CREATE TABLE t (rid INT, g INT, value REAL UNCERTAIN)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i % 7}, GAUSSIAN({i % 50}, 2))" for i in range(300))
        )
        dbs.append(db)
    db, reference = dbs
    rereading = reference.table("t")
    rereading.delete = lambda rid, t=None: Table.delete(rereading, rid)
    completes = []
    complete = TuplePrefix.complete

    def counting(prefix, *args, **kwargs):
        completes.append(prefix.tuple_id)
        return complete(prefix, *args, **kwargs)

    for sql in ("DELETE FROM t WHERE g = 3", "UPDATE t SET value = GAUSSIAN(1, 1) WHERE g = 4"):
        monkeypatch.setattr(TuplePrefix, "complete", counting)
        completes.clear()
        assert db.execute(sql).rowcount == 43
        monkeypatch.setattr(TuplePrefix, "complete", complete)
        assert len(completes) == len(set(completes)) == 43, sql
        assert reference.execute(sql).rowcount == 43
        assert db.dump_state() == reference.dump_state(), sql
