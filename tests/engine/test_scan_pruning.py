"""Page synopses and pruned scans: maintenance units + equivalence properties.

Two halves:

* Unit tests that the per-page synopses are maintained correctly across
  inserts (bounds widen), deletes (live count shrinks, bounds stay — so
  pruning stays conservative), jumbo records, and full rebuilds; that
  every insert or delete keeps a page's row columns up to date; and that a
  page whose row columns admit nothing is not fetched.
* Property tests that the pruned, prefix-first scan the planner builds
  returns exactly the rows the same predicate selects when ``repro.core``
  applies it to every row of ``Table.scan()`` (no pruner, full decode),
  across representative plan shapes (select / project / join / PROB
  thresholds), including NULL pdfs, NaN certain values, partial (floored)
  pdfs, and pages emptied by deletes.  Each query runs twice, a mutation
  between: the first run fills the row columns, the second reads them as
  the mutation kept them, and after every step each page's kept columns
  equal a fresh fill from its records.
"""

import math
import operator
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison, col
from repro.core.select import SelectionPlan
from repro.core.threshold import probability_of
from repro.engine.database import Database
from repro.engine.index.pti import LADDER, ladder
from repro.engine.storage.serialize import DepSummary, decode_prefix
from repro.engine.storage.synopsis import PageSynopsis, ScanPruner
from repro.pdf import BoxRegion, GaussianPdf, Interval, IntervalSet, UniformPdf

# ---------------------------------------------------------------------------
# PageSynopsis unit tests
# ---------------------------------------------------------------------------


def _dep(attr, lo, hi, mass=1.0, has_pdf=True):
    if not has_pdf:
        return DepSummary(frozenset({attr}), False, 0.0, {})
    return DepSummary(frozenset({attr}), True, mass, {attr: (lo, hi)})


class TestPageSynopsis:
    def test_insert_widens_bounds(self):
        syn = PageSynopsis()
        syn.add(0, {"a": 5}, [_dep("u", 0.0, 1.0, mass=0.8)])
        syn.add(1, {"a": 2}, [_dep("u", -3.0, 0.5, mass=0.4)])
        assert syn.live == 2
        assert syn.certain["a"] == (2.0, 5.0)
        assert syn.uncertain["u"][:2] == [-3.0, 1.0]
        assert syn.uncertain["u"][2] == 0.8  # page-max mass
        assert syn.max_exist_mass == 0.8

    def test_null_values_leave_no_bounds(self):
        syn = PageSynopsis()
        syn.add(0, {"a": None}, [_dep("u", 0, 0, has_pdf=False)])
        assert "a" not in syn.certain
        assert "u" not in syn.uncertain
        # NULL pdf: the tuple exists with certainty.
        assert syn.max_exist_mass == 1.0

    def test_non_numeric_value_disables_pruning(self):
        syn = PageSynopsis()
        syn.add(0, {"a": "text"}, [])
        syn.add(1, {"a": 7}, [])
        lo, hi = syn.certain["a"]
        assert lo == float("-inf") and hi == float("inf")
        # An unbounded entry admits every range test.
        pruner = ScanPruner(certain_ranges={"a": (100.0, 200.0)})
        assert pruner.admits_page(syn)

    def test_delete_decrements_live_only(self):
        syn = PageSynopsis()
        syn.add(0, {"a": 1}, [])
        syn.add(1, {"a": 9}, [])
        syn.remove(0)
        assert syn.live == 1
        assert syn.certain["a"] == (1.0, 9.0)  # bounds stay (conservative)
        syn.remove(1)
        assert syn.live == 0
        assert not ScanPruner().admits_page(syn)  # empty page is skippable

    def test_threshold_pruning(self):
        syn = PageSynopsis()
        syn.add(0, {}, [_dep("u", 0.0, 1.0, mass=0.3)])
        admits = ScanPruner(attr_thresholds={"u": [(">=", 0.2)]}).admits_page(syn)
        assert admits
        assert not ScanPruner(attr_thresholds={"u": [(">=", 0.5)]}).admits_page(syn)
        assert not ScanPruner(attr_thresholds={"u": [(">", 0.3)]}).admits_page(syn)
        assert not ScanPruner(exist_thresholds=[(">", 0.3)]).admits_page(syn)
        # Upper bounds cannot refute <= style thresholds.
        assert ScanPruner(attr_thresholds={"u": [("<=", 0.1)]}).admits_page(syn)

    def test_add_and_remove_keep_the_row_columns(self):
        """Once filled, every column gets a row per insert and loses one per
        delete: a certain, an uncertain, the existence and a ladder column."""
        syn = PageSynopsis({"v"})
        assert syn.rows.slots == [] and syn.rows.columns["v"].shape == (3 + 2 * len(LADDER), 0)
        bounds = tuple(range(12))
        syn.add(0, {"a": 1}, [_dep("u", 0.0, 2.0, 0.5), _dep("v", 5.0, 6.0)], {"v": bounds})
        pruner = ScanPruner(
            certain_ranges={"a": (0, 9)}, uncertain_ranges={"u": (0, 9)},
            exist_thresholds=[(">", 0.0)],
        )
        rows = pruner.fill(syn, [0], [_Prefix({"a": 1}, [_dep("u", 0.0, 2.0, 0.5)])])
        assert rows is syn.rows and set(rows.columns) == {"a", "u", None, "v"}
        syn.add(2, {"a": "text"}, [_dep("u", 0, 0, has_pdf=False)], {"v": bounds})
        syn.add(5, {"a": None}, [_dep("u", 1.0, 3.0, 0.25)], {"v": bounds})
        assert rows.slots == [0, 2, 5]
        nan, inf = float("nan"), float("inf")
        np.testing.assert_array_equal(rows.columns["a"], [[1, -inf, nan], [1, inf, nan]])
        np.testing.assert_array_equal(
            rows.columns["u"], [[0, nan, 1], [2, nan, 3], [0.5, nan, 0.25]]
        )
        np.testing.assert_array_equal(rows.columns[None], [[0.5, 1.0, 0.25]])
        assert rows.columns["v"][:3, 0].tolist() == [5.0, 6.0, 1.0]
        assert rows.columns["v"][3:, 2].tolist() == list(bounds)
        syn.remove(2)
        assert rows.slots == [0, 5] and syn.live == 2
        np.testing.assert_array_equal(rows.columns["a"], [[1, nan], [1, nan]])
        assert {key: column.shape for key, column in rows.columns.items()} == {
            "a": (2, 2), "u": (3, 2), None: (1, 2), "v": (3 + 2 * len(LADDER), 2),
        }


class TestRowColumns:
    """The row test, column by column, against the semantics of the filters
    above the scan: a NaN (NULL value, NaN value, NULL pdf) fails it."""

    def _rows(self, pruner, certain, deps):
        syn = PageSynopsis()
        prefixes = [_Prefix(c, d) for c, d in zip(certain, deps)]
        return pruner.admitted(pruner.fill(syn, list(range(len(certain))), prefixes))

    def test_certain_column(self):
        pruner = ScanPruner(certain_ranges={"a": (0.0, 10.0)})
        values = [5, None, float("nan"), 11, True, "text", -0.0, 10]
        got = self._rows(pruner, [{"a": v} for v in values], [[]] * len(values))
        assert got == [True, False, False, False, True, True, True, True]

    def test_uncertain_columns_and_thresholds(self):
        deps = [
            [_dep("u", 0.0, 1.0, mass=0.8)],
            [_dep("u", 5.0, 6.0, mass=0.9)],
            [_dep("u", 0, 0, has_pdf=False)],
            [],
        ]
        ranged = ScanPruner(uncertain_ranges={"u": (0.5, 2.0)})
        assert self._rows(ranged, [{}] * 4, deps) == [True, False, False, False]
        held = ScanPruner(attr_thresholds={"u": [(">", 0.8)]})
        assert self._rows(held, [{}] * 4, deps) == [False, True, False, False]
        exist = ScanPruner(exist_thresholds=[(">=", 0.85)])
        assert self._rows(exist, [{}] * 4, deps) == [False, True, True, True]

    def test_fill_adds_only_missing_columns(self):
        syn = PageSynopsis()
        prefixes = [_Prefix({"a": 1, "b": 2}, [])]
        first = ScanPruner(certain_ranges={"a": (0.0, 5.0)}).fill(syn, [3], prefixes)
        column = first.columns["a"]
        second = ScanPruner(certain_ranges={"a": (0.0, 1.0), "b": (0.0, 1.0)})
        rows = second.fill(syn, [3], prefixes)
        assert rows is first and rows.columns["a"] is column
        assert set(rows.columns) == {"a", "b"} and rows.slots == [3]
        assert second.admitted(rows) == [False]


class _Prefix:
    """The parts of a record prefix the row columns read."""

    def __init__(self, certain, deps):
        self.certain = certain
        self.deps = deps


# ---------------------------------------------------------------------------
# Table-level synopsis maintenance
# ---------------------------------------------------------------------------


def _make_db(path=None):
    db = Database(path=path)
    db.execute("CREATE TABLE r (rid INT, cval REAL, uval REAL UNCERTAIN)")
    return db


class TestTableSynopses:
    def test_insert_maintains_per_page_bounds(self):
        db = _make_db()
        table = db.table("r")
        for i in range(50):
            table.insert(
                certain={"rid": i, "cval": float(i)},
                uncertain={"uval": GaussianPdf(float(i), 1.0, attr="uval")},
            )
        assert set(table.synopses) == set(table.heap.page_ids)
        total_live = sum(s.live for s in table.synopses.values())
        assert total_live == 50
        for syn in table.synopses.values():
            lo, hi = syn.certain["cval"]
            assert lo <= hi
            assert syn.uncertain["uval"][0] <= syn.uncertain["uval"][1]

    def test_rebuild_matches_incremental(self):
        db = _make_db()
        table = db.table("r")
        rids = []
        for i in range(40):
            pdf = None if i % 7 == 0 else GaussianPdf(float(i), 2.0, attr="uval")
            rids.append(
                table.insert(certain={"rid": i, "cval": float(i)}, uncertain={"uval": pdf})
            )
        for rid in rids[::3]:
            table.delete(rid)
        before = {
            pid: (syn.live, dict(syn.certain), {k: list(v) for k, v in syn.uncertain.items()})
            for pid, syn in table.synopses.items()
        }
        table.rebuild_synopses()
        assert set(table.synopses) == set(before)
        for pid, syn in table.synopses.items():
            live, certain, uncertain = before[pid]
            assert syn.live == live
            # A rebuild sees only live records, so bounds can only tighten.
            for attr, (lo, hi) in syn.certain.items():
                assert certain[attr][0] <= lo and hi <= certain[attr][1]
            for attr, (ulo, uhi, umass) in (
                (a, tuple(v)) for a, v in syn.uncertain.items()
            ):
                assert uncertain[attr][0] <= ulo and uhi <= uncertain[attr][1]
                assert umass <= uncertain[attr][2]

    def test_emptied_page_is_pruned(self):
        db = _make_db()
        table = db.table("r")
        rids = []
        for i in range(60):
            rids.append(
                table.insert(
                    certain={"rid": i, "cval": float(i)},
                    uncertain={"uval": UniformPdf(i, i + 1.0, attr="uval")},
                )
            )
        pages_before = table.candidate_pages(ScanPruner())
        first_page = rids[0].page_id
        for rid in rids:
            if rid.page_id == first_page:
                table.delete(rid)
        pages_after = table.candidate_pages(ScanPruner())
        assert first_page in pages_before
        assert first_page not in pages_after
        res = db.execute("SELECT rid FROM r WHERE cval >= 0")
        assert len(res) == 60 - sum(1 for r in rids if r.page_id == first_page)

    def test_jumbo_records_have_synopses(self):
        db = _make_db()
        db.execute("CREATE TABLE j (rid INT, blob TEXT, uval REAL UNCERTAIN)")
        table = db.table("j")
        table.insert(
            certain={"rid": 1, "blob": "x" * 20000},
            uncertain={"uval": GaussianPdf(5.0, 1.0, attr="uval")},
        )
        table.insert(certain={"rid": 2, "blob": "y"}, uncertain={"uval": None})
        assert sum(s.live for s in table.synopses.values()) == 2
        rows = db.execute("SELECT rid FROM j WHERE uval > 0 AND uval < 10").rows
        assert [t.certain["rid"] for t in rows] == [1]


    def test_page_whose_columns_admit_nothing_is_not_fetched(self):
        db = _make_db()
        table = db.table("r")
        for i in range(10):  # one page, whose hull [0, 11] spans the query
            lo = 0.0 if i % 2 else 10.0
            table.insert(
                certain={"rid": i, "cval": float(i)},
                uncertain={"uval": UniformPdf(lo, lo + 1.0, attr="uval")},
            )
        (page_id,) = table.heap.page_ids
        sql = "SELECT rid FROM r WHERE uval > 5 AND uval < 6"
        assert len(db.execute(sql)) == 0  # fills the page's uval column
        assert table.synopses[page_id].rows is not None
        stats = db.buffer_stats
        touched = stats.hits + stats.misses
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        assert stats.hits + stats.misses == touched
        assert "pages=0/1 rows=0/10" in text

    def test_explain_analyze_counts_decoded_rows(self):
        db = _make_db()
        table = db.table("r")
        for i in range(200):
            table.insert(
                certain={"rid": i, "cval": float(i)},
                uncertain={"uval": GaussianPdf(float(i % 50), 1.0, attr="uval")},
            )
        sql = "EXPLAIN ANALYZE SELECT rid FROM r WHERE uval > 10 AND uval < 20"
        runs = []
        for _ in range(2):
            line = next(ln for ln in db.execute(sql).plan_text.splitlines() if "SeqScan" in ln)
            actual, decoded, live = map(
                int, re.search(r"actual=(\d+) .*rows=(\d+)/(\d+)", line).groups()
            )
            runs.append((actual, decoded, live))
        (actual1, decoded1, live1), (actual2, decoded2, live2) = runs
        # The first run decodes every prefix on the pages it visits, the
        # second only those the row columns admit.
        assert decoded1 == live1 == live2
        assert actual1 == actual2 == decoded2 < live2

    def test_one_scan_rule_with_the_index(self):
        """The PROB index's ladder is one more row test on a column every
        page holds from its first record on: a scan whose tested columns
        the page holds reads only the slots they all admit, any other scan
        decodes the page whole once and fills the columns it lacks, and
        inserts keep the columns."""
        ladder_only = "SELECT rid FROM r WHERE PROB(uval > 4.5 AND uval < 6.5) >= 0.5"
        sql = "SELECT rid FROM r WHERE cval > 0 AND PROB(uval > 4.5 AND uval < 6.5) >= 0.5"

        def scan_line(db, sql):
            text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
            return next(ln for ln in text.splitlines() if "SeqScan" in ln)

        def insert(db, i):  # the cval test keeps i >= 10, the ladder even i
            mu = 5.5 if i % 2 == 0 else 9.0
            db.table("r").insert(
                certain={"rid": i, "cval": float(i - 10)},
                uncertain={"uval": GaussianPdf(mu, 1.0, attr="uval")},
            )

        for index_first in (True, False):
            db = _make_db()
            if index_first:
                db.execute("CREATE PROB INDEX ON r (uval)")
            for i in range(20):  # one page
                insert(db, i)
            if not index_first:
                assert "rows=20/20" in scan_line(db, sql)  # fills cval and uval
                assert "rows=10/20" in scan_line(db, sql)
                db.execute("CREATE PROB INDEX ON r (uval)")  # rebuilds the synopses
            assert "actual=10 pages=1/1 rows=10/20" in scan_line(db, ladder_only)
            assert "actual=4 pages=1/1 rows=20/20" in scan_line(db, sql)  # fills cval
            line = scan_line(db, sql)
            assert "actual=4 pages=1/1 rows=5/20" in line and "index=uval@0.5" in line
            insert(db, 20)
            assert "actual=5 pages=1/1 rows=6/21" in scan_line(db, sql)
            assert sorted(t.certain["rid"] for t in db.execute(sql).rows) == [12, 14, 16, 18, 20]


# ---------------------------------------------------------------------------
# Equivalence: the pruned scan == repro.core over every stored row
# ---------------------------------------------------------------------------


def certain_values():
    return st.one_of(st.none(), st.just(math.nan), st.floats(-20, 20, allow_nan=False))


@st.composite
def pdf_specs(draw):
    """(kind, mu, width, cut): a NULL, Gaussian, uniform or partial pdf."""
    return (
        draw(st.integers(0, 3)),
        draw(st.floats(-10, 10)),
        draw(st.floats(0.5, 8)),
        draw(st.floats(-12, 12)),
    )


@st.composite
def table_rows(draw, min_size=0, max_size=18):
    """(rid, cval, pdf_spec) rows; pdf_spec builds fresh per database."""
    n = draw(st.integers(min_size, max_size))
    rows = []
    for i in range(n):
        rows.append((i, draw(certain_values()), draw(pdf_specs())))
    deleted = draw(
        st.lists(st.integers(0, max(0, n - 1)), unique=True, max_size=n // 2)
        if n
        else st.just([])
    )
    return rows, deleted


def _build_pdf(spec, attr="uval"):
    kind, mu, width, cut = spec
    if kind == 0:
        return None  # NULL pdf
    if kind == 1:
        return GaussianPdf(mu, width, attr=attr)
    if kind == 2:
        return UniformPdf(mu, mu + width, attr=attr)
    # Partial pdf: mass < 1 encodes P(tuple absent) > 0.
    g = GaussianPdf(mu, width, attr=attr)
    return g.restrict(BoxRegion({attr: IntervalSet([Interval(cut, float("inf"))])}))


def _populate(db, rows, deleted):
    table = db.table("r")
    rids = []
    with db.transaction():  # a durable database logs it
        for rid, cval, spec in rows:
            rids.append(
                table.insert(
                    certain={"rid": rid, "cval": cval},
                    uncertain={"uval": _build_pdf(spec)},
                )
            )
        for i in deleted:
            table.delete(rids[i])


def _row_key(t, attrs, schema):
    parts = []
    for attr in attrs:
        if schema.is_uncertain(attr):
            pdf = t.pdf_of_attr(attr)
            parts.append(None if pdf is None else (round(pdf.mass(), 9),))
        else:
            parts.append(t.certain.get(attr))
    return tuple(parts)


_COMPARE = {">": operator.gt, ">=": operator.ge}


def _reference(db, where, prob, columns):
    """``SELECT columns FROM r WHERE where AND PROB(inner) op p`` the paper's
    way: ``repro.core`` on each row of the unpruned ``Table.scan()``."""
    table, store = db.table("r"), db.catalog.store
    select = None if where is None else SelectionPlan(table.schema, where)
    inner, op, p = prob or (None, None, None)
    measure = None if inner is None else SelectionPlan(table.schema, inner)
    keys = []
    for _rid, t in table.scan():
        if select is not None:
            t = select.apply(t, store)
            if t is None:
                continue
        if prob is not None:
            measured = t if measure is None else measure.apply(t, store)
            mass = 0.0 if measured is None else probability_of(measured, store, None)
            if not _COMPARE[op](mass, p):
                continue
        keys.append(_row_key(t, columns, table.schema))
    return sorted(keys)


def _between(attr, lo, hi):
    return And([Comparison(attr, ">", lo), Comparison(attr, "<", hi)])


#: (SQL, the same WHERE as a core predicate, its PROB term, the SELECT list)
QUERIES = [
    (
        "SELECT rid, cval, uval FROM r WHERE cval > -5 AND cval < 5",
        _between("cval", -5, 5), None, ["rid", "cval", "uval"],
    ),
    ("SELECT rid FROM r WHERE uval > 0 AND uval < 4", _between("uval", 0, 4), None, ["rid"]),
    (
        "SELECT rid, uval FROM r WHERE cval >= 0 AND uval > -2",
        And([Comparison("cval", ">=", 0), Comparison("uval", ">", -2)]), None, ["rid", "uval"],
    ),
    (
        "SELECT rid FROM r WHERE PROB(uval > 1) >= 0.3",
        None, (Comparison("uval", ">", 1), ">=", 0.3), ["rid"],
    ),
    (
        "SELECT rid FROM r WHERE PROB(uval > 0 AND uval < 6) > 0.5",
        None, (_between("uval", 0, 6), ">", 0.5), ["rid"],
    ),
    ("SELECT rid FROM r WHERE PROB(*) >= 0.6", None, (None, ">=", 0.6), ["rid"]),
]


#: what happens between a query's two runs
MUTATIONS = (
    "insert", "delete", "update", "rolled_back_insert", "rolled_back_delete", "save_open",
    "durable_reopen",
)


def _mutate(db, mutation, tmp, cval, spec, target):
    """Apply one mutation; returns the database to query next."""
    table = db.table("r")
    live = sorted(t.certain["rid"] for _rid, t in table.scan())
    rid = live[target % len(live)] if live else 0
    if mutation == "insert":
        with db.transaction():
            table.insert(certain={"rid": 100, "cval": cval}, uncertain={"uval": _build_pdf(spec)})
    elif mutation == "delete":
        db.execute(f"DELETE FROM r WHERE rid = {rid}")
    elif mutation == "update":
        _kind, mu, width, _cut = spec
        db.execute(f"UPDATE r SET uval = UNIFORM({mu!r}, {mu + width!r}) WHERE rid = {rid}")
    elif mutation == "rolled_back_insert":
        db.begin()
        table.insert(certain={"rid": 100, "cval": cval}, uncertain={"uval": _build_pdf(spec)})
        db.abort()
    elif mutation == "rolled_back_delete":  # the undo puts the record back through the heap
        db.begin()
        db.execute(f"DELETE FROM r WHERE rid = {rid}")
        table.insert(certain={"rid": 100, "cval": cval}, uncertain={"uval": _build_pdf(spec)})
        db.abort()
    elif mutation == "save_open":
        path = os.path.join(tmp, "r.snapshot")
        db.save(path)
        db = Database.open(path)
    else:  # durable_reopen: the log is replayed over an empty database
        db.close()
        db = Database(path=db.path)
    return db


@pytest.mark.parametrize("query,where,prob,columns", QUERIES, ids=[q[0] for q in QUERIES])
@settings(max_examples=15, deadline=None)
@given(
    data=table_rows(),
    mutation=st.sampled_from(MUTATIONS),
    cval=certain_values(),
    spec=pdf_specs(),
    target=st.integers(0, 100),
)
def test_pruned_scan_equivalence(query, where, prob, columns, data, mutation, cval, spec, target):
    _run_twice(query, where, prob, columns, data, mutation, cval, spec, target, index=False)


def _assert_columns_kept(table):
    """Each page's kept :class:`PageRows` equals a fresh fill from the page's
    record prefixes: its slots, every column, and a ladder per PROB index."""
    schema = table.schema
    for page_id, syn in table.synopses.items():
        rows = syn.rows
        if rows is None:
            assert not table.ptis
            continue
        slots, records = table.heap.page_records(page_id)
        assert rows.slots == slots
        prefixes = [decode_prefix(record, 0, summaries=True) for record in records]
        keys = [key for key in rows.columns if key is not None]
        fresh = ScanPruner(
            certain_ranges={k: (0, 0) for k in keys if not schema.is_uncertain(k)},
            uncertain_ranges={k: (0, 0) for k in keys if schema.is_uncertain(k)},
            exist_thresholds=[(">", 0.0)] if None in rows.columns else [],
        ).fill(PageSynopsis(), slots, prefixes)
        assert table.ptis <= set(rows.columns) and set(rows.columns) == set(fresh.columns)
        for key, column in rows.columns.items():
            expected = fresh.columns[key]
            if key in table.ptis:
                tuples = [prefix.complete() for prefix in prefixes]
                ladders = [ladder(t.pdfs.get(t.dependency_set_of(key)), key) for t in tuples]
                expected = np.vstack([expected, np.reshape(ladders, (len(tuples), 2 * len(LADDER))).T])
            np.testing.assert_array_equal(column, expected)


def _run_twice(query, where, prob, columns, data, mutation, cval, spec, target, index):
    """Populate, run ``query``, apply ``mutation``, run it again; each answer
    must match :func:`_reference`, and after each step every page's row
    columns must be as a fresh fill would build them.  ``index`` builds a
    PROB index on ``uval`` before the rows go in.  Returns the two answers."""
    rows, deleted = data
    PDF_OP_CACHE.reset()
    answers = []
    with tempfile.TemporaryDirectory() as tmp:
        db = _make_db(os.path.join(tmp, "db") if mutation == "durable_reopen" else None)
        if index:
            db.execute("CREATE PROB INDEX ON r (uval)")
        _populate(db, rows, deleted)
        _assert_columns_kept(db.table("r"))
        for run in range(2):  # the first run fills the row columns, the second reads them
            if run:
                db = _mutate(db, mutation, tmp, cval, spec, target)
                _assert_columns_kept(db.table("r"))
            text = db.execute("EXPLAIN " + query).plan_text
            assert "SeqScan(r)" in text
            assert ("index=uval@" in text) == (index and "uval" in query.partition("WHERE")[2])
            res = db.execute(query)
            assert list(res.schema.visible_attrs) == columns
            got = sorted(_row_key(t, columns, res.schema) for t in res.rows)
            assert got == _reference(db, where, prob, columns)
            _assert_columns_kept(db.table("r"))
            answers.append(got)
        db.close()
    return answers


@pytest.mark.parametrize("query,where,prob,columns", QUERIES, ids=[q[0] for q in QUERIES])
@settings(max_examples=10, deadline=None)
@given(
    data=table_rows(),
    mutation=st.sampled_from(MUTATIONS),
    cval=certain_values(),
    spec=pdf_specs(),
    target=st.integers(0, 100),
)
def test_prob_indexed_scan_equivalence(
    query, where, prob, columns, data, mutation, cval, spec, target
):
    """The PROB index is kept up through every mutation (a rolled-back
    INSERT re-homes the undone delete's record, a snapshot open and a
    durable reopen rebuild the index): with it and without it, both runs
    answer as the reference does."""
    args = (query, where, prob, columns, data, mutation, cval, spec, target)
    assert _run_twice(*args, index=True) == _run_twice(*args, index=False)


#: (op, threshold) of ``PROB(...) op threshold``: only ``> p >= 0`` and
#: ``>= p > 0`` force P > 0, so only they may drop a row the term's range
#: misses or whose pdf is NULL
VACUOUS = [(op, p) for op in (">", ">=") for p in (-0.5, 0.0, 0.3)]


@pytest.mark.parametrize("index", [False, True], ids=["seqscan", "prob_index"])
@pytest.mark.parametrize("op,threshold", VACUOUS)
@pytest.mark.parametrize(
    "inner,core_inner",
    [("v > 40", Comparison("v", ">", 40)), ("v > 40 AND v < 60", _between("v", 40, 60))],
    ids=["above", "band"],
)
def test_prob_threshold_prunes_only_when_it_forces_mass(index, op, threshold, inner, core_inner):
    db = Database()
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    for rid, pdf in ((1, "GAUSSIAN(0, 1)"), (2, "GAUSSIAN(50, 1)"), (3, "NULL")):
        db.execute(f"INSERT INTO r VALUES ({rid}, {pdf})")
    if index:
        db.execute("CREATE PROB INDEX ON r (v)")
    sql = f"SELECT rid FROM r WHERE PROB({inner}) {op} {threshold}"
    expected = [rid for (rid,) in _reference(db, None, (core_inner, op, threshold), ["rid"])]
    for _ in range(2):  # the row columns are filled by the first run
        assert sorted(t.certain["rid"] for t in db.execute(sql).rows) == expected


#: one-row tables whose ``x`` pdf has atoms, an empty bucket or none
BOUNDARY_PDFS = {
    "discrete": "DISCRETE(1:0.5, 2:0.5)",
    "histogram": "HISTOGRAM(0, 1, 2, 3 ; 0.5, 0, 0.5)",
    "binomial": "BINOMIAL(2, 0.5)",
    "poisson": "POISSON(2)",
    "gaussian": "GAUSSIAN(0, 1)",
    "uniform": "UNIFORM(0, 4)",
}

#: ``PROB(...)`` inner predicates over ``x``: SQL and the core predicate
BOUNDARY_WINDOWS = [
    ("x >= 1.5", Comparison("x", ">=", 1.5)),
    ("x >= 1", Comparison("x", ">=", 1)),
    ("x >= 2", Comparison("x", ">=", 2)),
    ("x <= 1", Comparison("x", "<=", 1)),
    ("x >= 0", Comparison("x", ">=", 0)),
    ("x >= 1 AND x <= 5", And([Comparison("x", ">=", 1), Comparison("x", "<=", 5)])),
    ("x >= 0 AND x <= 2", And([Comparison("x", ">=", 0), Comparison("x", "<=", 2)])),
]

#: the PROB index's ladder levels
LADDER_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)


@pytest.mark.parametrize("index", [False, True], ids=["seqscan", "prob_index"])
@pytest.mark.parametrize("op", [">", ">="])
@pytest.mark.parametrize("family", sorted(BOUNDARY_PDFS))
def test_prob_index_keeps_rows_at_the_threshold(family, op, index):
    """A row whose probability equals the threshold (the ``>=`` boundary,
    where a cdf jumps or stays flat) is never dropped by the PROB index,
    at every ladder level and at the row's own probability."""
    db = Database()
    db.execute("CREATE TABLE r (rid INT, x REAL UNCERTAIN)")
    db.execute(f"INSERT INTO r VALUES (1, {BOUNDARY_PDFS[family]})")
    if index:
        db.execute("CREATE PROB INDEX ON r (x)")
    ((_rid, row),) = db.table("r").scan()
    schema, store = db.table("r").schema, db.catalog.store
    for inner, core_inner in BOUNDARY_WINDOWS:
        measured = SelectionPlan(schema, core_inner).apply(row, store)
        exact = 0.0 if measured is None else probability_of(measured, store, None)
        for p in sorted(set(LADDER_LEVELS) | {exact}):
            sql = f"SELECT rid FROM r WHERE PROB({inner}) {op} {p!r}"
            expected = [rid for (rid,) in _reference(db, None, (core_inner, op, p), ["rid"])]
            got = [t.certain["rid"] for t in db.execute(sql).rows]
            assert got == expected, (sql, exact)
    assert ("index=x@" in db.execute("EXPLAIN " + sql).plan_text) == index


@settings(max_examples=8, deadline=None)
@given(data=table_rows(min_size=1, max_size=10), lo=st.floats(-6, 6))
def test_pruned_join_equivalence(data, lo):
    rows, deleted = data
    PDF_OP_CACHE.reset()
    db = _make_db()
    _populate(db, rows, deleted)
    db.execute("CREATE TABLE s (sid INT, key REAL)")
    for i in range(6):
        db.execute(f"INSERT INTO s VALUES ({i}, {float(i)})")
    res = db.execute(
        f"SELECT r.rid, s.sid FROM r, s WHERE r.cval = s.key AND r.cval > {lo}"
    )
    got = sorted((t.certain["r.rid"], t.certain["s.sid"]) for t in res.rows)
    pred = And([Comparison("cval", "=", col("key")), Comparison("cval", ">", lo)])
    expected = sorted(
        (r.certain["rid"], s.certain["sid"])
        for _, r in db.table("r").scan()
        for _, s in db.table("s").scan()
        if pred.evaluate({**r.certain, **s.certain}) is True
    )
    assert got == expected
