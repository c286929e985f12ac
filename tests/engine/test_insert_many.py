"""``Table.insert_many``: one write path, batch ≡ row at a time, all or nothing.

Three contracts are pinned here:

* ``insert_many(rows)`` leaves *exactly* what ``for r in rows: insert(r)``
  leaves — tuple ids, RIDs and page placement, record bytes, synopses,
  index contents, history entries and refcounts, ``dump_state()`` and, on a
  durable database, the bytes of ``wal.log`` — over generated schemas with
  joint dependency sets, NULL and partial pdfs, string / NULL certain
  values, a B+tree and a threshold index, lineage stored or not;
* ``HeapFile.insert_many`` places records where the per-record rule puts
  them (a reference of that rule lives below), under pools small enough
  that the run's pages are evicted while it is being written;
* a failed insert — encode error, ``StorageError``, a full disk at the page
  allocation — leaves heap, history store, id sequence, synopses and
  indexes as they were and does not wedge the next ``INSERT``: in
  autocommit, inside ``BEGIN … ROLLBACK`` and on a standalone ``Table``.
"""

from __future__ import annotations

import errno
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, DataType, ProbabilisticSchema
from repro.core.history import AncestorRef, HistoryStore, fresh_lineage
from repro.core.model import ProbabilisticTuple
from repro.engine.database import Database
from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import RID, HeapFile
from repro.engine.storage.page import page_capacity
from repro.engine.table import Table
from repro.errors import HistoryError, SchemaError, SerializationError, StorageError
from repro.pdf import (
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    JointDiscretePdf,
    JointGaussianPdf,
    UniformPdf,
)

# -- generated schemas and rows ------------------------------------------------

_CERTAIN = {
    "k": (DataType.INT, st.one_of(st.none(), st.integers(-50, 50))),
    "name": (DataType.TEXT, st.one_of(st.none(), st.text("abcxyz ", max_size=12))),
    "w": (DataType.REAL, st.one_of(st.none(), st.floats(-1e3, 1e3))),
}


def _univariate(attr: str):
    """A pdf (or NULL) for one single-attribute dependency set; the pdf is
    named either like the column or ``x``, so both relabel arms run."""
    name = st.sampled_from([attr, "x"])
    return st.one_of(
        st.none(),
        st.builds(
            lambda m, v, a: GaussianPdf(m, v, attr=a),
            st.integers(-20, 20), st.integers(1, 9), name,
        ),
        st.builds(
            lambda lo, w, a: UniformPdf(lo, lo + w, attr=a),
            st.integers(-20, 20), st.integers(1, 9), name,
        ),
        st.builds(  # partial: the tuple may not exist
            lambda v, p, a: DiscretePdf({float(v): p, v + 1.0: 0.25}, attr=a),
            st.integers(-5, 5), st.sampled_from([0.25, 0.5, 0.75]), name,
        ),
        st.builds(
            lambda lo, a: HistogramPdf([lo, lo + 1.0, lo + 4.0], [0.3, 0.5], attr=a),
            st.integers(-5, 5).map(float), name,
        ),
    )


def _joint(attrs):
    names = st.sampled_from([attrs, ("p", "q")])
    return st.one_of(
        st.none(),
        st.builds(
            lambda m, a: JointGaussianPdf(a, [m, -m], [[2.0, 0.5], [0.5, 1.0]]),
            st.integers(-5, 5), names,
        ),
        st.builds(
            lambda v, a: JointDiscretePdf(a, {(v, 1.0): 0.5, (v + 1.0, 2.0): 0.25}),
            st.integers(-5, 5).map(float), names,
        ),
    )


@st.composite
def schemas_and_rows(draw):
    certain = ["k"] + draw(st.lists(st.sampled_from(["name", "w"]), unique=True))
    singles = draw(st.lists(st.sampled_from(["a", "b"]), unique=True))
    joint = ("x", "y") if draw(st.booleans()) else ()
    columns = [Column(c, _CERTAIN[c][0]) for c in certain]
    columns += [Column(u, DataType.REAL) for u in (*singles, *joint)]
    dependency = [{s} for s in singles] + ([set(joint)] if joint else [])
    schema = ProbabilisticSchema(columns, dependency)

    row = {c: _CERTAIN[c][1] for c in certain}
    uncertain = {s: _univariate(s) for s in singles}
    if joint:
        uncertain[joint] = _joint(joint)
    rows = draw(
        st.lists(
            st.tuples(
                st.fixed_dictionaries({}, optional=row),
                st.fixed_dictionaries({}, optional=uncertain),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return schema, rows, draw(st.booleans()), "a" in singles


def _fill(db, schema, rows, with_pti, batched):
    """Create the table, index it and insert ``rows``, as one transaction."""
    with db.transaction():
        table = db.catalog.create_table("t", schema)
        table.create_btree_index("k")
        if with_pti:
            table.create_pti_index("a")
        if batched:
            rids = table.insert_many(rows)
        else:
            rids = [table.insert(certain, uncertain) for certain, uncertain in rows]
    return table, rids


def _table_state(table: Table):
    """Everything an insert writes into a table and its history store."""
    store = table.store
    return {
        "records": list(table.heap.scan()),  # (RID, record bytes)
        "synopses": {
            page_id: (syn.live, syn.certain, syn.uncertain, syn.max_exist_mass)
            for page_id, syn in table.synopses.items()
        },
        "btree": list(table.btrees["k"].range_scan()),
        "ladders": {
            page_id: (list(syn.rows.slots), {a: syn.rows.columns[a].tobytes() for a in table.ptis})
            for page_id, syn in table.synopses.items()
            if table.ptis
        },
        "refcounts": dict(store._refcounts),
        "phantoms": sorted(map(repr, store._phantoms)),
        "next_tuple_id": store._next_tuple_id,
    }


def _state(db, table):
    """The table's state plus its page list and the database dump."""
    return {
        **_table_state(table),
        "pages": list(table.heap.page_ids),
        "dump": db.dump_state(),
    }


@settings(max_examples=60, deadline=None)
@given(case=schemas_and_rows())
def test_insert_many_equals_repeated_insert(case):
    schema, rows, store_lineage, with_pti = case
    batched = Database(store_lineage=store_lineage, buffer_capacity=2)
    one_by_one = Database(store_lineage=store_lineage, buffer_capacity=2)
    table_a, rids_a = _fill(batched, schema, rows, with_pti, batched=True)
    table_b, rids_b = _fill(one_by_one, schema, rows, with_pti, batched=False)
    assert rids_a == rids_b
    assert [t.tuple_id for _rid, t in table_a.scan()] == sorted(
        range(1, len(rows) + 1), key=lambda i: rids_a[i - 1]
    )
    assert _state(batched, table_a) == _state(one_by_one, table_b)
    assert len(batched.catalog.store) == 0  # base rows hold no reference


@settings(max_examples=12, deadline=None)
@given(case=schemas_and_rows())
def test_durable_insert_many_writes_the_same_wal(case):
    schema, rows, store_lineage, with_pti = case
    with tempfile.TemporaryDirectory() as root:
        logs, dumps = [], []
        for batched in (True, False):
            path = os.path.join(root, f"db{int(batched)}")
            db = Database(path=path, store_lineage=store_lineage)
            _fill(db, schema, rows, with_pti, batched=batched)
            dumps.append(db.dump_state())
            db.close()
            with open(os.path.join(path, "wal.log"), "rb") as f:
                logs.append(f.read())
            recovered = Database(path=path, store_lineage=store_lineage)
            assert recovered.dump_state() == dumps[-1]
            recovered.close()
        assert logs[0] == logs[1]
        assert dumps[0] == dumps[1]


# -- the schema's tabulated classification ---------------------------------------


def _computed_classification(schema: ProbabilisticSchema):
    """The attribute classification derived from (Σ, Δ) from scratch — the
    definitions the schema evaluated on every access before it tabulated
    them at construction."""
    visible = tuple(c.name for c in schema.columns)
    in_deps = frozenset().union(*schema.dependency) if schema.dependency else frozenset()
    uncertain = frozenset(visible) & in_deps
    return {
        "visible": visible,
        "uncertain": uncertain,
        "certain": tuple(n for n in visible if n not in uncertain),
        "phantom": in_deps - frozenset(visible),
        "dep_of": {
            a: next((s for s in schema.dependency if a in s), None)
            for a in (*visible, *in_deps, "no_such_attr")
        },
    }


def _tabulated_classification(schema: ProbabilisticSchema):
    return {
        "visible": schema.visible_attrs,
        "uncertain": schema.uncertain_attrs,
        "certain": schema.certain_attrs,
        "phantom": schema.phantom_attrs,
        "dep_of": {
            a: schema.dependency_set_of(a)
            for a in (*schema.visible_attrs, *schema.phantom_attrs, "no_such_attr")
        },
    }


@settings(max_examples=60, deadline=None)
@given(case=schemas_and_rows(), data=st.data())
def test_schema_tables_equal_the_computed_properties(case, data):
    schema = case[0]
    uncertain = [c for c in schema.columns if schema.is_uncertain(c.name)]
    derived = [schema]
    if uncertain:  # a projection: the dropped column lives on in Δ as a phantom
        kept = [c for c in schema.columns if c != uncertain[-1]]
        derived.append(ProbabilisticSchema(kept, schema.dependency))
    for s in list(derived):
        names = [*s.visible_attrs, *sorted(s.phantom_attrs)]
        renamed = data.draw(st.lists(st.sampled_from(names), unique=True))
        derived.append(s.renamed({n: f"{n}#1" for n in renamed}))
    for s in derived:
        expected = _computed_classification(s)
        assert _tabulated_classification(s) == expected
        for attr, dep in expected["dep_of"].items():
            assert s.is_uncertain(attr) is (dep is not None)


# -- heap placement ---------------------------------------------------------------


def _reference_insert(heap: HeapFile, record: bytes) -> RID:
    """The per-record placement rule, spelled out against the pool: the more
    recent of the last two ordinary pages with room, else a new page; a
    record over a page's capacity gets a jumbo page."""
    pool = heap.pool
    if len(record) > page_capacity(pool.disk.page_size):
        page_id = pool.new_page(jumbo_record=record)
        heap.page_ids.append(page_id)
        heap._page_set.add(page_id)
        heap._jumbo_pages.add(page_id)
        heap._record_count += 1
        return RID(page_id, 0)
    for page_id in reversed(heap.page_ids[-2:]):
        if page_id in heap._jumbo_pages:
            continue
        page = pool.get_page(page_id)
        if page.free_space() >= len(record):
            heap._record_count += 1
            return RID(page_id, page.insert(record))
    page_id = pool.new_page()
    heap.page_ids.append(page_id)
    heap._page_set.add(page_id)
    heap._record_count += 1
    return RID(page_id, pool.get_page(page_id).insert(record))


@settings(max_examples=80, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.integers(0, 5000) | st.integers(3900, 4300), max_size=12),
        min_size=1,
        max_size=6,
    ),
    capacity=st.sampled_from([1, 2, 3, 64]),
)
def test_heap_insert_many_places_like_the_per_record_rule(runs, capacity):
    heap = HeapFile(BufferPool(MemoryDisk(), capacity=capacity))
    reference = HeapFile(BufferPool(MemoryDisk(), capacity=capacity))
    counter = 0
    for sizes in runs:
        records = []
        for size in sizes:
            counter += 1
            records.append(bytes([counter % 251]) * size)
        assert heap.insert_many(records) == [
            _reference_insert(reference, record) for record in records
        ]
    assert heap.page_ids == reference.page_ids
    assert len(heap) == len(reference)
    assert list(heap.scan()) == list(reference.scan())
    for page_id in heap.page_ids:
        assert bytes(heap.pool.get_page(page_id).data) == bytes(
            reference.pool.get_page(page_id).data
        )


# -- failed inserts ----------------------------------------------------------------


class _FullDisk(MemoryDisk):
    """A disk that reports ENOSPC for every allocation once ``full`` is set."""

    full = False

    def allocate(self) -> int:
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().allocate()


_DDL = "CREATE TABLE r (k INT, name TEXT, v REAL UNCERTAIN)"
_TOO_LONG = "x" * 70_000  # a TEXT value the record format cannot hold


def _database(disk=None):
    db = Database(disk=disk)
    db.execute(_DDL)
    db.execute("CREATE INDEX ON r (k)")
    db.execute("CREATE PROB INDEX ON r (v)")
    db.execute("INSERT INTO r VALUES (1, 'good', GAUSSIAN(1, 1))")
    return db


def _bad_statements():
    """Statements that fail after their first row was validated — the last
    two after ids were drawn and every row encoded, part-way into the heap."""
    many = ", ".join(f"({i}, 'row{i}', UNIFORM({i}, {i + 1}))" for i in range(2, 150))
    too_long = f"(2, 'fine', GAUSSIAN(2, 1)), (3, '{_TOO_LONG}', GAUSSIAN(3, 1))"
    return pytest.mark.parametrize(
        "sql,error,how",
        [
            pytest.param(f"INSERT INTO r VALUES {too_long}", SerializationError, None, id="encode"),
            pytest.param(f"INSERT INTO r VALUES {many}", OSError, "disk", id="enospc"),
            pytest.param(f"INSERT INTO r VALUES {many}", StorageError, "heap", id="storage"),
        ],
    )


def _arm(pool: BufferPool, how, monkeypatch):
    """``disk``: every page allocation reports ENOSPC; ``heap``: the pool
    refuses the statement's second fresh page."""
    if how == "disk":
        pool.disk.full = True
    elif how == "heap":
        real, calls = pool.new_page, []

        def new_page(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise StorageError("injected: page allocation refused")
            return real(*args, **kwargs)

        monkeypatch.setattr(pool, "new_page", new_page)


def _disarm(pool: BufferPool, monkeypatch):
    pool.disk.full = False
    monkeypatch.undo()


@_bad_statements()
def test_failed_insert_autocommit_leaves_no_trace(sql, error, how, monkeypatch):
    db = _database(_FullDisk())
    before, dump = _table_state(db.table("r")), db.dump_state()
    _arm(db.catalog.pool, how, monkeypatch)
    with pytest.raises(error):
        db.execute(sql)
    _disarm(db.catalog.pool, monkeypatch)
    assert _table_state(db.table("r")) == before
    assert db.dump_state() == dump
    assert not db.catalog.txn.active
    db.execute("INSERT INTO r VALUES (9, 'next', GAUSSIAN(9, 1))")
    assert len(db.table("r")) == 2
    assert len(db.catalog.store) == 0
    assert db.catalog.store._next_tuple_id == 2


@_bad_statements()
def test_failed_insert_inside_a_transaction(sql, error, how, monkeypatch):
    db = _database(_FullDisk())
    outside = db.dump_state()
    db.execute("BEGIN")
    db.execute("INSERT INTO r VALUES (5, 'in txn', UNIFORM(0, 1))")
    before, dump = _table_state(db.table("r")), db.dump_state()
    _arm(db.catalog.pool, how, monkeypatch)
    with pytest.raises(error):
        db.execute(sql)
    _disarm(db.catalog.pool, monkeypatch)
    # the statement is all-or-nothing: the open transaction sees none of it
    assert _table_state(db.table("r")) == before
    assert db.dump_state() == dump
    db.execute("INSERT INTO r VALUES (6, 'still open', UNIFORM(1, 2))")
    assert db.catalog.store._next_tuple_id == 3
    db.execute("ROLLBACK")
    assert db.dump_state() == outside
    db.execute("INSERT INTO r VALUES (9, 'next', GAUSSIAN(9, 1))")
    assert [t.tuple_id for _rid, t in db.table("r").scan()] == [1, 2]
    assert len(db.catalog.store) == 0


@pytest.mark.parametrize(
    "error,how", [(SerializationError, None), (OSError, "disk"), (StorageError, "heap")]
)
def test_failed_insert_on_a_standalone_table(error, how, monkeypatch):
    schema = ProbabilisticSchema(
        [Column("k", DataType.INT), Column("name", DataType.TEXT), Column("v")], [{"v"}]
    )
    table = Table("r", schema, BufferPool(_FullDisk(), capacity=4), HistoryStore())
    table.create_btree_index("k")
    table.create_pti_index("v")
    table.insert({"k": 1, "name": "good"}, {"v": GaussianPdf(1, 1)})
    before = _table_state(table)
    rows = [
        ({"k": i, "name": f"row{i}"}, {"v": UniformPdf(i, i + 1, attr="v")})
        for i in range(2, 150)
    ]
    if how is None:
        rows[20] = ({"k": 22, "name": _TOO_LONG}, {"v": None})
    _arm(table.pool, how, monkeypatch)
    with pytest.raises(error):
        table.insert_many(rows)
    _disarm(table.pool, monkeypatch)
    assert _table_state(table) == before
    rows[20] = ({"k": 22, "name": "short"}, {"v": None})
    rids = table.insert_many(rows)
    assert len(rids) == len(table) - 1 == 148
    assert [table.read(rid).tuple_id for rid in rids] == list(range(2, 150))


def test_history_conflict_after_the_heap_write_is_taken_back():
    """A failure *after* the records reached their pages — here the history
    store refusing the last tuple's unknown ancestor — unwinds heap,
    indexes and the references counted so far; synopses were never touched."""
    db = _database()
    table = db.table("r")
    (rid,) = [rid for rid, _t in table.scan()]
    base = table.read(rid)
    v = frozenset({"v"})
    before = _table_state(table)
    lineages = [base.lineage[v]] * 3 + [fresh_lineage(AncestorRef(99, v))]  # 99: no such tuple
    derived = [
        ProbabilisticTuple(table.store.new_tuple_id(), {"k": k}, {v: base.pdfs[v]}, {v: lineage})
        for k, lineage in enumerate(lineages, start=2)
    ]
    table.store.return_tuple_ids(derived[0].tuple_id, derived[-1].tuple_id)
    with pytest.raises(HistoryError):
        table._place(derived, base=False)
    assert _table_state(table) == before
    assert len(table._place(derived[:3], base=False)) == 3
    assert table.store._refcounts == {next(iter(base.lineage[v])).ref: 3}


def test_insert_tuple_with_an_unknown_ancestor_stores_nothing():
    db = _database()
    db.execute("CREATE TABLE src (k INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO src VALUES (7, GAUSSIAN(0, 1))")
    (derived,) = db.execute("SELECT k, v FROM src WHERE v > 0").rows
    db.execute("DROP TABLE src")  # the last reference: the ancestor is gone
    table = db.table("r")
    before = _table_state(table)
    with pytest.raises(HistoryError):
        table.insert_tuple(derived)
    assert _table_state(table) == before


def test_invalid_row_draws_no_id_and_stores_nothing():
    db = _database()
    before = _table_state(db.table("r"))
    with pytest.raises(SchemaError):
        db.table("r").insert_many(
            [({"k": 2}, {"v": GaussianPdf(0, 1)}), ({"nope": 3}, {})]
        )
    assert _table_state(db.table("r")) == before


def test_table_insert_is_insert_many_of_one_row(monkeypatch):
    db = _database()
    table = db.table("r")
    seen = []
    real = table.insert_many
    monkeypatch.setattr(table, "insert_many", lambda rows: seen.append(rows) or real(rows))
    rid = table.insert(certain={"k": 2}, uncertain={"v": None})
    assert seen == [[({"k": 2}, {"v": None})]]
    assert table.read(rid).certain["k"] == 2
