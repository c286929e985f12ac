"""Read sets: a scan decodes only the dependency sets a statement can observe.

A statement that does not measure tuple existence reads the sets holding
an attribute it names plus every set some stored record held a partial pdf
in (``Table.partial_sets``).  An unnamed set that was never partial could
only have become a full-mass phantom, which the paper's projection (§III-B)
drops, so leaving it undecoded changes no visible value and no
probability.  These tests pin the rule from both sides: what it may drop,
what it must keep, and that statements measuring existence, every access
path and data modification see exactly what whole records give.
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
    "SELECT COUNT(*) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
    "SELECT SUM(z) FROM t",
    "SELECT DISTINCT k FROM t",
    "SELECT t.k FROM t, u WHERE t.k = u.k AND PROB(*) >= 0.5",
]


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
    for a, b in zip(narrowed.rows, whole.rows, strict=True):
        assert a.tuple_id == b.tuple_id and a.certain == b.certain
        assert a.pdfs == {dep: b.pdfs[dep] for dep in kept}
        # what went was full mass: the tuple's existence is unchanged
        for dep in b.pdfs.keys() - kept:
            assert b.pdfs[dep] is None or b.pdfs[dep].mass() == pytest.approx(1.0)


def test_plain_explain_prints_pruned_only_with_a_test():
    db = _db()
    assert db.execute("EXPLAIN SELECT * FROM t").plan_text == "-> SeqScan(t)"
    line = _scan_line(db.execute("EXPLAIN SELECT k FROM t WHERE k > 1").plan_text, "t")
    assert line.endswith("[pruned lazy sets=1/3]")


# -- robustness -----------------------------------------------------------------


@pytest.mark.parametrize(
    "index, scan",
    [("CREATE INDEX ON t (k)", "BTreeScan"), ("CREATE PROB INDEX ON t (x)", "PtiScan"), (None, "SeqScan")],
)
def test_every_access_path_reads_the_same_sets(index, scan):
    sql = "SELECT k FROM t WHERE k >= 1 AND x > -50"
    reference = _db().execute(sql)
    db = _db(*([index] if index else []))
    line = _scan_line(db.execute("EXPLAIN " + sql).plan_text, "t")
    assert line.lstrip("-> ").startswith(scan) and "sets=2/3" in line
    leaf = planner.plan_select(db.catalog, parse(sql))
    while leaf.children():
        (leaf,) = leaf.children()
    # the scan itself emits only its read set, not just the plan above it
    assert {dep for t in leaf for dep in t.pdfs} == set(leaf.output_schema.dependency)
    result = db.execute(sql)
    assert _deps(result) == _deps(reference) == {frozenset({"x"}), frozenset({"y"})}
    assert _rows(result) == _rows(reference)


def test_partial_sets_rebuilt_after_snapshot_reopen(tmp_path):
    db = _db()
    db.save(str(tmp_path / "snap"))
    reopened = Database.open(str(tmp_path / "snap"))
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


def test_join_orders_decodes_one_of_three_lineitem_sets():
    from repro.workloads import TpchConfig, generate_tpch, query_suite

    cfg = TpchConfig(scale_factor=0.0003, seed=0)
    db = Database()
    generate_tpch(db, cfg)
    sql = dict(query_suite(cfg))["join_orders"]
    plan = db.execute("EXPLAIN ANALYZE " + sql).plan_text
    assert "sets=1/3" in _scan_line(plan, "lineitem")
    assert db.table("lineitem").partial_sets == {frozenset({"l_quantity"})}
