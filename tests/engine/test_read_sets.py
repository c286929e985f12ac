"""Read sets: a scan decodes only the dependency sets a statement can observe.

A statement that compares or emits no per-row probability — aggregates
included — reads the sets holding an attribute it names plus every set
some stored record held a partial pdf in (``Table.partial_sets``).  An
unnamed set that was never partial could only have become a full-mass
phantom, which the paper's projection (§III-B) drops, so leaving it
undecoded changes no visible value and no probability ("never partial" is
``is_partial``'s: within 1e-9 of full mass).  These tests pin the rule from
both sides: what it may drop, what it must keep, and that statements
measuring existence, aggregates, every access path and data modification
see what whole records give.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.sql import parse, planner
from repro.engine.wal import scan_wal

SETUP = [
    # y is partial in row 1 (mass 0.8); x and z always have full mass.
    "CREATE TABLE t (k INT, x REAL UNCERTAIN, y REAL UNCERTAIN, z REAL UNCERTAIN)",
    "INSERT INTO t VALUES "
    "(1, GAUSSIAN(0, 1), DISCRETE(1: 0.5, 2: 0.3), UNIFORM(0, 1)), "
    "(2, GAUSSIAN(1, 1), DISCRETE(1: 1.0), UNIFORM(1, 2)), "
    "(3, GAUSSIAN(2, 4), DISCRETE(2: 0.5, 3: 0.5), UNIFORM(2, 3))",
    "CREATE TABLE u (k INT, w REAL UNCERTAIN)",
    "INSERT INTO u VALUES (1, GAUSSIAN(5, 1)), (3, GAUSSIAN(6, 1))",
]

JOIN = "SELECT t.k, u.k AS uk FROM t, u WHERE t.k = u.k"

MEASURING = [
    "SELECT * FROM t",
    "SELECT k FROM t WHERE PROB(x > 0) >= 0.3",
    "SELECT k FROM t ORDER BY PROB(*) DESC",
    "SELECT DISTINCT k FROM t",
    "SELECT t.k FROM t, u WHERE t.k = u.k AND PROB(*) >= 0.5",
]

#: aggregates read what they name (argument, WHERE, GROUP BY) plus the
#: partial y; COUNT(*) names nothing
AGGREGATES = [
    ("SELECT COUNT(*) FROM t", "sets=1/3"),
    ("SELECT k, COUNT(*) FROM t GROUP BY k", "sets=1/3"),
    ("SELECT k, COUNT(*) FROM t WHERE z > 0.5 GROUP BY k", "sets=2/3"),
    ("SELECT SUM(z) FROM t", "sets=2/3"),
    ("SELECT EXPECTED(x) FROM t", "sets=2/3"),
    ("SELECT MIN(z) FROM t WHERE k > 1", "sets=2/3"),
    ("SELECT MAX(x) FROM t WHERE k > 1", "sets=2/3"),
    ("SELECT COUNT(*) FROM u", "sets=0/1"),
]

COUNT_BY_STATUS = "SELECT l_linestatus, COUNT(*) FROM lineitem GROUP BY l_linestatus"


def _db(*extra):
    db = Database()
    for sql in SETUP + list(extra):
        db.execute(sql)
    return db


def _read_everything(monkeypatch):
    """Plan as before read sets: every scan decodes whole records."""
    monkeypatch.setattr(
        planner, "_read_sets", lambda catalog, binder, stmt, *terms: [None] * len(stmt.tables)
    )


def _rows(result, ids=True):
    return [
        (
            t.tuple_id if ids else None,
            sorted(t.certain.items()),
            sorted((sorted(dep), repr(pdf)) for dep, pdf in t.pdfs.items()),
        )
        for t in result.rows
    ]


def _deps(result):
    return {frozenset(dep) for dep in result.schema.dependency}


def _scan_line(plan_text: str, name: str) -> str:
    return next(line for line in plan_text.splitlines() if f"({name}" in line and "Scan" in line)


def test_partial_sets_hold_exactly_the_sets_stored_partial():
    db = _db()
    assert db.table("t").partial_sets == {frozenset({"y"})}
    assert db.table("u").partial_sets == set()


def test_unnamed_partial_set_survives_a_join():
    result = _db().execute(JOIN)
    assert _deps(result) == {frozenset({"t.y"})}
    masses = {t.certain["t.k"]: t.pdfs[frozenset({"t.y"})].mass() for t in result.rows}
    assert masses == pytest.approx({1: 0.8, 3: 1.0})


def test_unnamed_never_partial_set_leaves_the_result():
    db = _db()
    result = db.execute(JOIN)
    assert not _deps(result) & {frozenset({"t.x"}), frozenset({"t.z"}), frozenset({"u.w"})}
    plan = db.execute("EXPLAIN ANALYZE " + JOIN).plan_text
    assert "sets=1/3" in _scan_line(plan, "t")
    assert "sets=0/1" in _scan_line(plan, "u")


def test_named_sets_are_read_wherever_they_are_named():
    db = _db()
    # x in WHERE, z in MEAN(...), y partial: every set is read, no token.
    sql = "SELECT k, MEAN(z) FROM t WHERE x > 0 ORDER BY k"
    assert "sets=" not in db.execute("EXPLAIN " + sql).plan_text
    assert _deps(db.execute(sql)) == {frozenset(s) for s in ("x", "y", "z")}
    assert "sets=2/3" in _scan_line(db.execute("EXPLAIN SELECT k, z FROM t").plan_text, "t")


@pytest.mark.parametrize("sql", MEASURING)
def test_statements_that_measure_existence_read_every_set(sql, monkeypatch):
    narrowed = _db().execute(sql)
    assert "sets=" not in narrowed.plan_text
    _read_everything(monkeypatch)
    whole = _db().execute(sql)
    assert narrowed.columns == whole.columns
    assert _rows(narrowed) == _rows(whole)


@pytest.mark.parametrize("sql, token", AGGREGATES)
def test_aggregates_read_named_and_partial_sets(sql, token, monkeypatch):
    narrowed = _db().execute(sql)
    assert token in narrowed.plan_text
    _read_everything(monkeypatch)
    whole = _db().execute(sql)
    assert narrowed.columns == whole.columns
    # x and z have mass exactly 1 in every row: no probability moves at all
    assert _rows(narrowed) == _rows(whole)


def test_a_set_within_1e9_of_full_mass_is_not_read_by_count(monkeypatch):
    # x has mass 1 - 1e-10 in every row: not partial, so COUNT(*) skips it
    # and each row's existence rises by 1e-10 (the documented tolerance).
    setup = [
        "CREATE TABLE v (k INT, x REAL UNCERTAIN, y REAL UNCERTAIN)",
        "INSERT INTO v VALUES (1, DISCRETE(1: 0.5, 2: 0.4999999999), DISCRETE(1: 0.5)), "
        "(2, DISCRETE(3: 0.9999999999), DISCRETE(2: 1.0))",
    ]
    sql = "SELECT COUNT(*) FROM v"
    db = Database()
    for stmt in setup:
        db.execute(stmt)
    assert db.table("v").partial_sets == {frozenset({"y"})}
    (narrowed,) = db.execute(sql).rows
    assert "sets=1/2" in _scan_line(db.execute("EXPLAIN " + sql).plan_text, "v")
    assert dict(narrowed.pdfs[frozenset({"count"})].items()) == {1.0: 0.5, 2.0: 0.5}
    _read_everything(monkeypatch)
    (whole,) = db.execute(sql).rows
    cells = dict(whole.pdfs[frozenset({"count"})].items())
    assert cells != {1.0: 0.5, 2.0: 0.5}
    assert cells.keys() <= {0.0, 1.0, 2.0}
    assert cells.get(1.0) == pytest.approx(0.5, abs=1e-9)
    assert cells.get(2.0) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "sql", [JOIN, "SELECT k FROM t WHERE k > 1", "SELECT k, x FROM t WHERE x > 0.5"]
)
def test_narrowing_drops_only_never_partial_phantoms(sql, monkeypatch):
    narrowed = _db().execute(sql)
    _read_everything(monkeypatch)
    whole = _db().execute(sql)
    assert narrowed.columns == whole.columns
    kept = _deps(narrowed)
    assert kept <= _deps(whole)
    assert len(narrowed.rows) == len(whole.rows)
    for a, b in zip(narrowed.rows, whole.rows):
        assert a.tuple_id == b.tuple_id and a.certain == b.certain
        assert a.pdfs == {dep: b.pdfs[dep] for dep in kept}
        # what went was full mass: the tuple's existence is unchanged
        for dep in b.pdfs.keys() - kept:
            assert b.pdfs[dep] is None or b.pdfs[dep].mass() == pytest.approx(1.0)


def test_plain_explain_prints_pruned_only_with_a_test():
    db = _db()
    assert db.execute("EXPLAIN SELECT * FROM t").plan_text == "-> SeqScan(t)"
    line = _scan_line(db.execute("EXPLAIN SELECT k FROM t WHERE k > 1").plan_text, "t")
    assert line.endswith("[pruned lazy sets=1/3 where=(k > 1.0)]")


# -- robustness -----------------------------------------------------------------


@pytest.mark.parametrize(
    "index, scan",
    [("CREATE INDEX ON t (k)", "SeqScan"), ("CREATE PROB INDEX ON t (x)", "SeqScan"), (None, "SeqScan")],
)
def test_every_access_path_reads_the_same_sets(index, scan):
    sql = "SELECT k FROM t WHERE k >= 1 AND x > -50"
    reference = _db().execute(sql)
    db = _db(*([index] if index else []))
    line = _scan_line(db.execute("EXPLAIN " + sql).plan_text, "t")
    assert line.lstrip("-> ").startswith(scan) and "sets=2/3" in line
    assert ("index=x@0" in line) == (index is not None and "PROB" in index)
    assert ("btree=k[1,inf]" in line) == (index == "CREATE INDEX ON t (k)")
    leaf = planner.plan_select(db.catalog, parse(sql))
    while leaf.children():
        (leaf,) = leaf.children()
    # the scan itself emits only its read set, not just the plan above it
    assert {dep for t in leaf for dep in t.pdfs} == set(leaf.output_schema.dependency)
    result = db.execute(sql)
    assert _deps(result) == _deps(reference) == {frozenset({"x"}), frozenset({"y"})}
    assert _rows(result) == _rows(reference)


def test_partial_sets_rebuilt_after_snapshot_reopen(tmp_path, tpch, monkeypatch):
    """The snapshot stores each table's partial sets, which the planner reads
    before any scan, so an open decodes no record prefix: the page synopses
    are left for the first pruned scan of each page to build."""
    from repro.engine import table as table_mod
    from repro.engine.storage import serialize

    decoded = []
    for module in (table_mod, serialize):
        decode = module.decode_prefix
        monkeypatch.setattr(
            module, "decode_prefix", lambda *a, _decode=decode, **k: decoded.append(1) or _decode(*a, **k)
        )
    db = _db()
    for saved in (tpch[0], db):  # the uncertain TPC-H load, then the partial y
        saved.save(str(tmp_path / "snap"))
        decoded.clear()
        reopened = Database.open(str(tmp_path / "snap"))
        assert decoded == []
        assert set(reopened.catalog.tables) == set(saved.catalog.tables)
        for name, table in saved.catalog.tables.items():
            assert reopened.catalog.tables[name].partial_sets == table.partial_sets
    assert reopened.table("t").partial_sets == {frozenset({"y"})}
    assert _rows(reopened.execute(JOIN), ids=False) == _rows(_db().execute(JOIN), ids=False)


def test_partial_sets_rebuilt_after_wal_replay(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path=path)
    db.execute("CREATE TABLE r (k INT, x REAL UNCERTAIN, y REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, GAUSSIAN(0, 1), UNIFORM(0, 1))")
    db.checkpoint()
    db.execute("INSERT INTO r VALUES (2, GAUSSIAN(0, 1), DISCRETE(1: 0.4))")
    db.close()
    _, committed, _ = scan_wal(f"{path}/wal.log")
    assert len(committed) == 1  # the partial row exists only in the log

    reopened = Database(path=path)
    assert reopened.table("r").partial_sets == {frozenset({"y"})}
    assert _deps(reopened.execute("SELECT k FROM r")) == {frozenset({"y"})}
    reopened.close()


def test_dml_after_a_narrowed_select_matches_whole_record_reads(monkeypatch):
    dml = ["UPDATE t SET k = 7 WHERE k = 1", "DELETE FROM t WHERE k = 2"]
    narrowed = _db()
    assert "sets=1/3" in _scan_line(narrowed.execute("EXPLAIN SELECT k FROM t").plan_text, "t")
    narrowed.execute("SELECT k FROM t")
    for sql in dml:
        narrowed.execute(sql)
    _read_everything(monkeypatch)
    whole = _db()
    whole.execute("SELECT k FROM t")
    for sql in dml:
        whole.execute(sql)
    state = narrowed.dump_state()
    assert state == whole.dump_state()
    updated = next(r for r in state["tables"]["t"]["rows"] if r["certain"]["k"] == 7)
    assert set(updated["pdfs"]) == {"x", "y", "z"} and all(updated["pdfs"].values())


@pytest.fixture(scope="module")
def tpch():
    from repro.workloads import TpchConfig, generate_tpch, query_suite

    cfg = TpchConfig(scale_factor=0.0003, seed=0)
    db = Database()
    generate_tpch(db, cfg)
    return db, dict(query_suite(cfg))


def test_join_orders_decodes_one_of_three_lineitem_sets(tpch):
    db, suite = tpch
    plan = db.execute("EXPLAIN ANALYZE " + suite["join_orders"]).plan_text
    assert "sets=1/3" in _scan_line(plan, "lineitem")
    assert db.table("lineitem").partial_sets == {frozenset({"l_quantity"})}


def test_status_aggregates_decode_one_of_three_lineitem_sets(tpch, monkeypatch):
    db, suite = tpch
    statements = [COUNT_BY_STATUS, suite["expected_by_status"]]
    for sql in statements:
        plan = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        assert "sets=1/3" in _scan_line(plan, "lineitem")
    counts, expected = (db.execute(sql).rows for sql in statements)
    _read_everything(monkeypatch)
    whole_counts, whole_expected = (db.execute(sql).rows for sql in statements)
    assert [t.certain for t in expected] == [t.certain for t in whole_expected]  # bit for bit
    # some l_extendedprice pdfs miss full mass by an ulp and are no longer read
    assert len(counts) == len(whole_counts) == 3
    for a, b in zip(counts, whole_counts):
        assert a.certain == b.certain
        cells = dict(a.pdf_of_attr("count").items())
        whole = dict(b.pdf_of_attr("count").items())
        for k in cells.keys() | whole.keys():
            assert cells.get(k, 0.0) == pytest.approx(whole.get(k, 0.0), rel=0, abs=1e-12)
