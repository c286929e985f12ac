"""UPDATE / DELETE read through the planner.

An index may change how many pages a data-modifying statement reads, never
what it does: the rows it touches, the tuple ids the updated rows receive
and the resulting ``dump_state()`` are those of the full-table read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database

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
