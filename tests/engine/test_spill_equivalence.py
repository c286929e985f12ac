"""Property tests: every blocking operator has one body, and its budget
``ModelConfig.work_mem`` changes nothing but where the bytes go.

Under any budget — unbounded (``None``), the pathological ``work_mem=1``
(every operator state spills immediately) and a middling ``4096`` —
HashJoin (Grace partitions past the budget), Sort / ORDER BY PROB(*)
(external merge sort) and DISTINCT / GROUP BY (one sort-group) must return
the same stream — tuple ids, order and contents — and since comparing
budgets compares one body with itself, each test also anchors the stream
on a reference outside the engine: Python's stable ``sorted``, a stable
sort by :func:`~repro.core.threshold.probability_of`,
:func:`repro.core.distinct.distinct`, :mod:`repro.core.aggregates` per
group and :func:`repro.core.join.join`.  The SQL corpus runs at three
budgets too.  Joins are also checked against the
NestedLoopJoin (semantic equality; pair ids differ because the nested loop
draws ids for non-matching pairs too).

The crash test arms the ``spill.write`` fault point on a durable database:
the injected crash must leave partially-written spill files behind (the
point fires only after frames reached disk) and recovery must clear them;
an operator that stays within its budget must leave no spill directory at
all.
"""

from __future__ import annotations

import contextlib
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core import aggregates as agg
from repro.core.model import ModelConfig
from repro.core.operations import PDF_OP_CACHE
from repro.core.distinct import distinct
from repro.core.join import join
from repro.core.predicates import Comparison, col
from repro.core.project import ProjectionPlan
from repro.core.select import select
from repro.core.threshold import probability_of
from repro.engine import faults
from repro.engine.database import Database
from repro.engine.executor import (
    Aggregate,
    AggSpec,
    Distinct,
    HashJoin,
    NestedLoopJoin,
    Project,
    RelationScan,
    Sort,
    SortByProbability,
)
from repro.engine.executor.spill import SPILL_STATS, ExternalSorter, SpillManager
from repro.engine.faults import InjectedCrash
from repro.errors import ReproError, UnsupportedOperationError
from repro.pdf import GaussianPdf

from ..fault import kill_wal
from .test_columnar_equivalence import assert_rows_equal, pdf_values
from .test_sql_fuzz import CORPUS

#: ``None`` is unbounded; ``1`` forces a spill on the first buffered
#: tuple; ``4096`` spills only the larger examples.
BUDGETS = (None, 1, 4096)


@st.composite
def keyed_relations(draw, prefix, store=None, max_size=10):
    """A relation with a low-cardinality (possibly NULL) certain join key.

    Keys repeat so hash joins produce real multi-match buckets, and the
    uncertain column exercises NULL, partial (floored), and symbolic pdfs.
    """
    attr = f"{prefix}v"
    schema = ProbabilisticSchema(
        [
            Column(f"{prefix}id", DataType.INT),
            Column(f"{prefix}k", DataType.INT),
            Column(attr, DataType.REAL),
        ],
        [{attr}],
    )
    rel = ProbabilisticRelation(schema, store=store, name=prefix)
    n = draw(st.integers(0, max_size))
    for i in range(n):
        key = draw(st.one_of(st.none(), st.integers(0, 3)))
        rel.insert(
            certain={f"{prefix}id": i, f"{prefix}k": key},
            uncertain={attr: draw(pdf_values(attr))},
        )
    return rel


def rows_of(plan, batch_size):
    """A plan's rows, ``batch_size`` tuples per batch."""
    return [t for batch in plan.batches(batch_size) for t in batch.tuples]


def run_budgets(make_plan, store, batch_size=7):
    """Rows per work_mem budget, from one shared tuple-id baseline."""
    out = {}
    id0 = store._next_tuple_id
    for wm in BUDGETS:
        store._next_tuple_id = id0
        PDF_OP_CACHE.reset()
        out[wm] = rows_of(make_plan(ModelConfig(work_mem=wm)), batch_size)
    return out


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_hash_join_spill_equivalence(data):
    left = data.draw(keyed_relations("l"))
    right = data.draw(keyed_relations("r", store=left.store))
    store = left.store
    # The hash prefilter enforces key equality; the residual probabilistic
    # term exercises the post-hash SelectionPlan (pdf flooring) path too.
    lo = data.draw(st.floats(-8, 8))
    residual = Comparison("lv", ">", lo)

    def make_plan(config):
        return HashJoin(
            RelationScan(left),
            RelationScan(right),
            "lk",
            "rk",
            residual,
            store,
            config,
        )

    rows = run_budgets(make_plan, store)
    for wm in BUDGETS[1:]:
        # Spilled ≡ in-memory: bitwise, including the tuple-id stream.
        assert_rows_equal(rows[None], rows[wm])

    # The reference: repro.core's join on the key equality, then the residual
    # (one conjunction would fold the certain keys into the residual's pdf).
    PDF_OP_CACHE.reset()
    reference = select(join(left, right, Comparison("lk", "=", col("rk"))), residual)
    assert_rows_equal(reference.tuples, rows[None], compare_ids=False)

    # Semantic reference: a nested loop with the hash prefilter folded into
    # the predicate produces the same pairs (ids differ by construction).
    def make_nlj(config):
        return NestedLoopJoin(
            RelationScan(left),
            RelationScan(right),
            residual,
            store,
            config,
        )

    store._next_tuple_id = 10_000_000
    PDF_OP_CACHE.reset()
    nlj_rows = [
        t
        for t in rows_of(make_nlj(ModelConfig()), 7)
        if t.certain.get("lk") is not None
        and t.certain.get("lk") == t.certain.get("rk")
    ]
    assert_rows_equal(rows[None], nlj_rows, compare_ids=False)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sort_spill_equivalence(data):
    rel = data.draw(keyed_relations("s", max_size=14))
    descending = data.draw(st.booleans())

    def make_plan(config):
        # Sorting on the repeating key column exercises stable-tie handling.
        return Sort(RelationScan(rel), ["sk"], descending, config=config)

    rows = run_budgets(make_plan, rel.store)
    # The reference: Python's stable sort, NULL ranking above every key.
    reference = sorted(
        rel.tuples,
        key=lambda t: (t.certain["sk"] is None, t.certain["sk"]),
        reverse=descending,
    )
    for wm in BUDGETS:
        assert_rows_equal(reference, rows[wm])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sort_by_probability_spill_equivalence(data):
    rel = data.draw(keyed_relations("p", max_size=14))

    def make_plan(config):
        return SortByProbability(RelationScan(rel), rel.store, config=config)

    rows = run_budgets(make_plan, rel.store)
    # The reference: a stable sort by the scalar existence probability.
    reference = sorted(
        rel.tuples, key=lambda t: probability_of(t, rel.store), reverse=True
    )
    for wm in BUDGETS:
        assert_rows_equal(reference, rows[wm])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_distinct_spill_equivalence(data):
    rel = data.draw(keyed_relations("d", max_size=14))

    def make_plan(config):
        return Distinct(
            Project(RelationScan(rel), ["dk"], config), rel.store, config
        )

    id0 = rel.store._next_tuple_id
    rows = run_budgets(make_plan, rel.store)
    # The reference: repro.core's distinct over the rows Project hands it
    # (its conservative plan keeps every dependency set as a phantom),
    # drawing ids from the same watermark.
    plan = ProjectionPlan(rel.schema, ["dk"], partial_sets=None)
    projected = rel.derived(plan.output_schema)
    for t in rel.tuples:
        projected.add_tuple(plan.apply(t), acquire=False)
    rel.store._next_tuple_id = id0
    PDF_OP_CACHE.reset()
    reference = distinct(projected)
    for wm in BUDGETS:
        assert_rows_equal(reference.tuples, rows[wm])


def test_distinct_nan_equals_nothing_at_every_budget():
    """A NaN equals nothing, itself included: rows sharing one NaN *object*
    are not duplicates, in repro.core as in the engine, at every budget."""
    nan = float("nan")
    schema = ProbabilisticSchema([Column("k", DataType.REAL)], [])
    rel = ProbabilisticRelation(schema, name="n")
    for k in (nan, nan, 1.0, float("nan"), 1.0):
        rel.insert(certain={"k": k})
    id0 = rel.store._next_tuple_id
    rows = run_budgets(lambda config: Distinct(RelationScan(rel), rel.store, config), rel.store)
    rel.store._next_tuple_id = id0
    reference = distinct(rel).tuples
    assert len(reference) == 4
    for wm in BUDGETS:
        assert [repr(t.certain["k"]) for t in rows[wm]] == ["nan", "nan", "1.0", "nan"]
        # assert_rows_equal compares certain dicts with ==, which a NaN fails
        assert [t.tuple_id for t in rows[wm]] == [t.tuple_id for t in reference]
        assert [t.pdfs for t in rows[wm]] == [t.pdfs for t in reference]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_aggregate_spill_equivalence(data):
    rel = data.draw(keyed_relations("g", max_size=14))
    specs = [AggSpec("count")]  # SUM / EXPECTED / MIN / MAX reject the NULL pdfs drawn

    def make_plan(config):
        return Aggregate(RelationScan(rel), specs, rel.store, config, ["gk"])

    id0 = rel.store._next_tuple_id
    rows = run_budgets(make_plan, rel.store)
    # The reference: repro.core.aggregates per group, groups in order of
    # first appearance (NULL keys together), one id per group from id0 on.
    groups = {}
    for t in rel.tuples:
        group = groups.setdefault(t.certain["gk"], ProbabilisticRelation(rel.schema, store=rel.store))
        group.add_tuple(t, acquire=False)
    PDF_OP_CACHE.reset()
    reference = [(key, agg.count_distribution(g)) for key, g in groups.items()]
    for wm in BUDGETS:
        assert [t.tuple_id for t in rows[wm]] == list(range(id0 + 1, id0 + 1 + len(groups)))
        assert [t.certain for t in rows[wm]] == [{"gk": key} for key, _count in reference]
        for t, (_key, count) in zip(rows[wm], reference):
            assert t.pdfs == {frozenset({"count"}): count.with_attrs(["count"])}
        assert_rows_equal(rows[None], rows[wm])


def _nan_join_db(work_mem):
    """``a``'s NaN row matches three rows of ``b``, its 1.5 row one."""
    db = Database(config=ModelConfig(work_mem=work_mem))
    db.execute("CREATE TABLE a (k INT, x REAL)")
    db.execute("CREATE TABLE b (k2 INT, v REAL UNCERTAIN)")
    db.table("a").insert(certain={"k": 1, "x": float("nan")})
    db.execute("INSERT INTO a VALUES (2, 1.5)")
    for i, k2 in enumerate((1, 2, 1, 1)):
        db.execute(f"INSERT INTO b VALUES ({k2}, GAUSSIAN({i}, 1))")
    return db


def test_group_by_a_nan_key_over_a_join_at_every_budget():
    """Every NaN row is a group of its own, as in DISTINCT, whatever the
    budget: the in-memory join hands the grouping one NaN object for all
    three pairs, the Grace join a decoded NaN per pair, and neither may
    decide the groups."""
    join = "FROM a, b WHERE a.k = b.k2"
    out = {}
    for wm in BUDGETS:
        db = _nan_join_db(wm)
        rows = db.execute(f"SELECT a.x, COUNT(*) {join} GROUP BY a.x").rows
        distinct = db.execute(f"SELECT DISTINCT a.x {join}").rows
        assert [repr(t.certain["a.x"]) for t in rows] == ["nan", "nan", "nan", "1.5"]
        assert [repr(t.certain["a.x"]) for t in distinct] == ["nan", "nan", "nan", "1.5"]
        # repr: a NaN equals nothing, so the certain dicts compare by text
        out[wm] = [(t.tuple_id, repr(t.certain), t.pdfs) for t in rows]
    for wm in BUDGETS[1:]:
        assert out[wm] == out[None]


def test_a_group_that_fails_to_fold_leaves_no_spill_file(tmp_path):
    """A spilled GROUP BY whose fold raises (MAX over a partial pdf) has
    removed its spill files by the time the error reaches the caller."""
    db = Database(config=ModelConfig(work_mem=1, spill_dir=str(tmp_path)))
    db.execute("CREATE TABLE t (k INT, x REAL UNCERTAIN)")
    for i in range(10):
        db.execute(f"INSERT INTO t VALUES ({i % 3}, DISCRETE(1: 0.5))")
    with pytest.raises(UnsupportedOperationError, match="full-mass") as raised:
        db.execute("SELECT k, MAX(x) FROM t GROUP BY k")
    assert raised.traceback and list(tmp_path.iterdir()) == []


def test_spill_stats_report_runs_and_partitions():
    """A forced spill surfaces in SPILL_STATS and in EXPLAIN ANALYZE."""
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("k", DataType.INT)], []
    )
    rel = ProbabilisticRelation(schema, name="big")
    for i in range(100):
        rel.insert(certain={"id": i, "k": i % 5})
    SPILL_STATS.reset()
    sort = Sort(RelationScan(rel), ["k"], config=ModelConfig(work_mem=1))
    out = rows_of(sort, 16)
    assert len(out) == 100
    assert sort.sort_runs > 1
    assert any("sort_runs=" in e for e in sort.explain_extras())
    snap = SPILL_STATS.snapshot()
    assert snap["sort_spills"] >= 1 and snap["bytes_written"] > 0


@pytest.mark.parametrize(
    "sql, node, n",
    [
        ("SELECT k FROM t WHERE v > 3 ORDER BY k DESC LIMIT 2", "Sort(", 2),
        ("SELECT k FROM t WHERE v > 3 ORDER BY PROB(*) DESC LIMIT 2", "SortByProbability(", 2),
        ("SELECT k, COUNT(*) FROM t WHERE v > 3 GROUP BY k LIMIT 1", "Aggregate(", 1),
    ],
    ids=["Sort", "SortByProbability", "Aggregate"],
)
def test_sort_runs_survive_a_limit_that_closes_the_sort_early(sql, node, n):
    """``ORDER BY … LIMIT k`` (the top-k idiom) stops pulling mid-merge, and
    ``GROUP BY … LIMIT k`` once k groups are out; the spilled runs are still
    on the operator's EXPLAIN ANALYZE line."""
    db = Database(config=ModelConfig(work_mem=1))
    db.execute("CREATE TABLE t (k INT, v REAL UNCERTAIN)")
    for i in range(13):
        db.execute(f"INSERT INTO t VALUES ({i % 5}, GAUSSIAN({i}, 2))")
    text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
    (line,) = [ln for ln in text.splitlines() if ln.strip().startswith("-> " + node)]
    assert "sort_runs=" in line, text
    assert len(db.execute(sql).rows) == n


def test_external_sorter_lineage_roundtrip(tmp_path):
    """Frames preserve lineage refs bitwise through the disk round-trip."""
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema, name="lin")
    for i in range(30):
        rel.insert(certain={"id": i}, uncertain={"v": None})
    with SpillManager(str(tmp_path), label="t") as mgr:
        sorter = ExternalSorter(mgr, work_mem=1)
        for i, t in enumerate(rel.tuples):
            sorter.add(-i, t)
        got = [item[2] for item in sorter.sorted()]
    assert sorter.run_count == 30
    expect = list(reversed(rel.tuples))
    assert [t.tuple_id for t in got] == [t.tuple_id for t in expect]
    assert [t.certain for t in got] == [t.certain for t in expect]
    assert [t.lineage for t in got] == [t.lineage for t in expect]


def _sort_relation(n):
    """``n`` rows of ~1.1 KB records: an id, a long name and a Gaussian."""
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("name", DataType.TEXT), Column("v", DataType.REAL)],
        [{"v"}],
    )
    rel = ProbabilisticRelation(schema, name="big")
    for i in range(n):
        rel.insert(certain={"id": i, "name": f"row-{i:06d}" * 100}, uncertain={"v": GaussianPdf(i, 1)})
    return rel


def test_external_sorter_merge_streams_its_runs(tmp_path):
    """Draining a sort whose runs total 20x ``work_mem`` holds under a
    quarter of the spilled bytes at once: each run streams through a read
    buffer, and the buffers share the budget."""
    work_mem = 64 * 1024
    rel = _sort_relation(1500)
    SPILL_STATS.reset()
    with SpillManager(str(tmp_path), label="t") as mgr:
        sorter = ExternalSorter(mgr, work_mem=work_mem)
        for i, t in enumerate(rel.tuples):
            sorter.add(i % 97, t)  # every run holds every key: the merge interleaves them all
        tracemalloc.start()
        try:
            drained = 0
            for _key, _seq, _t in sorter.sorted():
                drained += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    spilled = SPILL_STATS.snapshot()["bytes_written"]
    assert drained == 1500
    assert spilled >= 20 * work_mem
    assert peak < spilled / 4, (peak, spilled, sorter.run_count)


@contextlib.contextmanager
def few_descriptors(headroom):
    """Lower the soft open-file limit to ``headroom`` descriptors past the
    ones open now, and yield that limit."""
    resource = pytest.importorskip("resource")
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counting open descriptors needs /proc/self/fd")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    limit = len(os.listdir("/proc/self/fd")) + headroom
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
    try:
        yield limit
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_external_sorter_merge_holds_no_descriptor_per_run(tmp_path):
    """A ``work_mem=1`` sort spills one run per row; its merge drains more
    runs than the process may have files open, because a run's file is
    open only while its read buffer refills."""
    rel = _sort_relation(150)
    with SpillManager(str(tmp_path), label="t") as mgr:
        sorter = ExternalSorter(mgr, work_mem=1)
        for i, t in enumerate(rel.tuples):
            sorter.add(-i, t)
        with few_descriptors(headroom=24) as limit:
            drained = [seq for _key, seq, _t in sorter.sorted()]
    assert sorter.run_count == 150 > limit
    assert drained == list(range(149, -1, -1))


def _spill_leftovers(path):
    spill_dir = os.path.join(path, "spill")
    if not os.path.isdir(spill_dir):
        return []
    return [
        os.path.join(root, f)
        for root, _, files in os.walk(spill_dir)
        for f in files
    ]


def test_mid_spill_crash_leaves_files_and_recovery_cleans(tmp_path):
    """Crash at ``spill.write``: files persist the crash, recovery clears them."""
    from dataclasses import replace

    path = str(tmp_path / "db")
    db = Database(path=path)
    db.execute("CREATE TABLE t (id INT, v REAL UNCERTAIN)")
    for i in range(30):
        db.execute(f"INSERT INTO t VALUES ({i}, GAUSSIAN({i}, 1))")
    db.catalog.config = replace(db.catalog.config, work_mem=1)

    faults.disarm_all()  # earlier tests advanced the spill.write hit counter
    faults.arm("spill.write", 1)
    try:
        with pytest.raises(InjectedCrash):
            db.execute("SELECT id FROM t ORDER BY id DESC")
    finally:
        faults.disarm_all()

    # The fault fires only after the frame bytes were written and flushed,
    # so the simulated crash must leave observable spill files behind.
    leftovers = _spill_leftovers(path)
    assert leftovers, "spill.write crash left no files on disk"
    if db._wal is not None:
        kill_wal(db)  # simulated process death

    recovered = Database(path=path)
    try:
        assert _spill_leftovers(path) == [], "recovery kept stale spill files"
        # The data itself is intact and memory-bounded queries work again.
        recovered.catalog.config = replace(recovered.catalog.config, work_mem=1)
        out = recovered.execute("SELECT id FROM t ORDER BY id DESC")
        assert [t.certain["id"] for t in out] == list(range(29, -1, -1))
    finally:
        recovered.close()


def test_in_budget_operators_create_no_spill_directory(tmp_path):
    """An operator that stays within ``work_mem`` touches no disk: the
    durable database's ``<path>/spill`` is never created."""
    path = str(tmp_path / "db")
    db = Database(path=path, config=ModelConfig(work_mem=1 << 30))
    try:
        db.execute("CREATE TABLE a (k INT, v REAL UNCERTAIN)")
        db.execute("CREATE TABLE b (bk INT, name TEXT)")
        for i in range(20):
            db.execute(f"INSERT INTO a VALUES ({i % 4}, GAUSSIAN({i}, 2))")
            db.execute(f"INSERT INTO b VALUES ({i % 5}, 'n{i}')")
        for sql, node in (
            ("SELECT k FROM a WHERE v > 3 ORDER BY k DESC", "Sort("),
            ("SELECT k FROM a WHERE v > 3 ORDER BY PROB(*) DESC", "SortByProbability("),
            ("SELECT DISTINCT k FROM a", "Distinct"),
            ("SELECT k, COUNT(*) FROM a GROUP BY k", "Aggregate("),
            ("SELECT k, name FROM a, b WHERE k = bk", "HashJoin("),
        ):
            text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
            assert node in text and "sort_runs=" not in text, text
            assert "spill_partitions=" not in text, text
            assert db.execute(sql).rows
            assert not os.path.exists(os.path.join(path, "spill")), sql
    finally:
        db.close()


def test_sql_corpus_answers_alike_at_every_budget(tmp_path):
    """The SQL corpus, statement by statement, at ``work_mem`` None, 1 and
    64 KiB: every SELECT returns the same columns, rows, order and tuple
    ids, a failing statement fails alike, and no spill file outlives its
    statement."""
    answers = {}
    for wm in (None, 1, 1 << 16):
        spill_dir = tmp_path / f"spill-{wm}"
        spill_dir.mkdir()
        db = Database(config=ModelConfig(work_mem=wm, spill_dir=str(spill_dir)))
        PDF_OP_CACHE.reset()
        answers[wm] = []
        for sql in CORPUS:
            try:
                result = db.execute(sql)
            except ReproError as e:
                answers[wm].append((sql, type(e).__name__, []))
            else:
                answers[wm].append((sql, result.columns, result.rows))
            assert list(spill_dir.iterdir()) == [], (wm, sql)
    selects = [a for a in answers[None] if a[0].startswith("SELECT")]
    assert sum(bool(rows) for _sql, _columns, rows in selects) >= 20
    for wm in (1, 1 << 16):
        assert len(answers[wm]) == len(answers[None])
        for (sql, columns, rows), (sql_wm, columns_wm, rows_wm) in zip(answers[None], answers[wm]):
            assert (sql_wm, columns_wm) == (sql, columns)
            if sql.startswith("SELECT"):
                assert_rows_equal(rows, rows_wm)
