"""The engine's operators ≡ the paper's operators, at every batch size.

The engine has one execution path and one batch class: selection and
``PROB`` thresholds sweep per-type parameter arrays gathered from a
``TupleBatch`` (symbolic families, explicit discrete pdfs, histograms), with
a per-row fallback for what the arrays cannot express (floored, symbolic
discrete and joint pdfs, ``PROB`` rows whose sets share an ancestor); the
equi-join and GROUP BY match and group the Python values in ``t.certain``
with dicts.  The reference it is held to is not another copy of the
engine but :mod:`repro.core` — ``select``, ``project``, ``threshold_select``
and ``join`` over the same :class:`ProbabilisticRelation` s, and for
``PROB(pred) op p`` the per-tuple ``SelectionPlan.apply`` +
``probability_of``.  Certain values, pdfs (``==`` and bitwise masses),
lineage and row order must agree for every pdf family, histogram and
discrete pdfs, floored partials and NULLs, at batch sizes 1 / 3 / 7 / 256.

Tuple ids are bitwise equal across batch sizes.  ``repro.core.join`` draws
one id per *candidate* pair, the engine one per *matched* pair, so against
it ids are ignored and the engine's own contract is asserted instead:
matched pairs take consecutive ids from the store's watermark, in emission
order.  Also covered: every fallback case, every key shape dict matching
must get right (NULL, TEXT, ``1 == 1.0 == True``, ±0.0, 2**53 ± 1, NaN) in
memory and spilled, the EXPLAIN ANALYZE counters, and that the batch size
selects a size, never a path (``work_mem`` is honoured in batches of one).
"""

from __future__ import annotations

import importlib
import inspect
import operator
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.executor
from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    join,
    project,
    select,
    threshold_select,
)
from repro.core import aggregates as agg
from repro.core.history import HistoryStore
from repro.core.join import prefix_attrs
from repro.core.model import ModelConfig
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison, col
from repro.core.select import SelectionPlan
from repro.core.threshold import probability_of
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.executor import (
    AggSpec,
    Aggregate,
    Filter,
    HashJoin,
    NestedLoopJoin,
    Operator,
    ProbFilter,
    Project,
    RelationScan,
    SeqScan,
    ThresholdFilter,
)
from repro.engine.executor.batch import TupleBatch
from repro.engine.sql import planner
from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    DiscretePdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    Interval,
    IntervalSet,
    PoissonPdf,
    TriangularPdf,
    UniformPdf,
)

BATCH_SIZES = (1, 3, 7, 256)

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _schema():
    return ProbabilisticSchema(
        [Column("sid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )


#: ``_pdf_for`` rotates through this many kinds; the last is the NULL pdf.
ZOO_KINDS = 11


def _pdf_for(i: int):
    """Deterministic all-families rotation, including edge shapes."""
    kind = i % ZOO_KINDS
    if kind == 0:
        return GaussianPdf(i % 11, 1.0 + (i % 3), attr="v")
    if kind == 1:
        return UniformPdf(i % 7, i % 7 + 4.0, attr="v")
    if kind == 2:
        lo = float(i % 5)
        return TriangularPdf(lo, lo + 1.5, lo + 4.0, attr="v")
    if kind == 3:
        return BernoulliPdf(0.1 + (i % 8) / 10.0, attr="v")
    if kind == 4:
        return BinomialPdf(4 + (i % 9), 0.2 + (i % 6) / 10.0, attr="v")
    if kind == 5:
        return PoissonPdf(1.0 + (i % 7), attr="v")
    if kind == 6:
        return GeometricPdf(0.15 + (i % 7) / 10.0, attr="v")
    if kind == 7:
        return HistogramPdf(
            [float(i % 4), i % 4 + 2.0, i % 4 + 3.0, i % 4 + 6.0],
            [0.2, 0.5, 0.3],
            attr="v",
        )
    if kind == 8:
        return DiscretePdf({float(i % 5): 0.25, i % 5 + 2.0: 0.75}, attr="v")
    if kind == 9:
        # Floored partial: the kernels must hand this row to the fallback.
        g = GaussianPdf(i % 9, 2.0, attr="v")
        return g.restrict(
            BoxRegion({"v": IntervalSet([Interval(float(i % 3), float("inf"))])})
        )
    return None  # NULL pdf


def _all_families_relation(n=64):
    rel = ProbabilisticRelation(_schema(), name="zoo")
    for i in range(n):
        rel.insert(certain={"sid": i}, uncertain={"v": _pdf_for(i)})
    return rel


@st.composite
def pdf_values(draw, attr):
    """NULL, Gaussian, uniform, floored-partial or discrete (also drawn by
    ``test_spill_equivalence``)."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return None  # NULL pdf
    mu = draw(st.floats(-10, 10))
    if kind == 1:
        return GaussianPdf(mu, draw(st.floats(0.1, 5)), attr=attr)
    if kind == 2:
        lo = draw(st.floats(-10, 10))
        return UniformPdf(lo, lo + draw(st.floats(0.5, 10)), attr=attr)
    if kind == 3:
        g = GaussianPdf(mu, draw(st.floats(0.1, 5)), attr=attr)
        cut = draw(st.floats(-12, 12))
        return g.restrict(BoxRegion({attr: IntervalSet([Interval(cut, float("inf"))])}))
    return DiscretePdf({-1.0: 0.25, 0.0: 0.25, 1.0: 0.5}, attr=attr)


@st.composite
def _small_relations(draw, attr="v", name="r", id_col="sid", max_size=12, store=None):
    schema = ProbabilisticSchema(
        [Column(id_col, DataType.INT), Column(attr, DataType.REAL)], [{attr}]
    )
    rel = ProbabilisticRelation(schema, name=name, store=store)
    for i in range(draw(st.integers(0, max_size))):
        rel.insert(certain={id_col: i}, uncertain={attr: draw(pdf_values(attr))})
    return rel


_NAN_MARK = object()


def _nan_marked(certain):
    """``certain`` with every NaN as one marker: a spilled row decodes a NaN
    object of its own, and ``==`` on dicts finds a NaN equal only to itself."""
    return {k: _NAN_MARK if v != v else v for k, v in certain.items()}


def assert_rows_equal(expected, actual, compare_ids=True):
    """Tuples equal down to the bit: ids, certain, pdfs, masses, lineage, order
    (also the comparison ``test_spill_equivalence`` makes across budgets)."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        if compare_ids:
            assert a.tuple_id == b.tuple_id
        assert _nan_marked(a.certain) == _nan_marked(b.certain)
        assert a.lineage == b.lineage
        assert set(a.pdfs) == set(b.pdfs)
        for dep, pa in a.pdfs.items():
            pb = b.pdfs[dep]
            if pa is None:
                assert pb is None
                continue
            assert type(pa) is type(pb)
            assert pa.attrs == pb.attrs
            assert pa == pb
            assert pa.mass() == pb.mass()  # bitwise, no tolerance


def _engine_rows(make_plan, store):
    """The plan's rows, after checking that no batch size changes a bit of them.

    The id counter is pinned to one watermark per run — joins and aggregates
    mint fresh tuple ids — so the comparison across sizes covers ids too.
    Returns ``(rows, watermark)``.
    """
    id0 = store._next_tuple_id
    runs = []
    for size in BATCH_SIZES:
        store._next_tuple_id = id0
        PDF_OP_CACHE.reset()
        runs.append([t for b in make_plan().batches(size) for t in b.tuples])
    for rows in runs[1:]:
        assert_rows_equal(runs[0], rows)
    PDF_OP_CACHE.reset()
    return runs[0], id0


def prob_filter_reference(rel, predicate, op, threshold):
    """``PROB(predicate) op threshold`` the paper's way, one tuple at a time:
    select, measure the surviving mass, emit the *original* tuple (also the
    reference ``test_fallback_rows`` holds SQL to)."""
    plan = SelectionPlan(rel.schema, predicate)
    out = []
    for t in rel.tuples:
        selected = plan.apply(t, rel.store)
        p = 0.0 if selected is None else probability_of(selected, rel.store, None)
        if _COMPARE[op](p, threshold):
            out.append(t)
    return out


PRED = And([Comparison("v", ">", 2.0), Comparison("v", "<", 7.5)])


# ---------------------------------------------------------------------------
# σ, Π and the threshold operators
# ---------------------------------------------------------------------------


def test_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()
    rows, _ = _engine_rows(lambda: Filter(RelationScan(rel), PRED, rel.store), rel.store)
    assert len(rows) > 0
    assert_rows_equal(select(rel, PRED).tuples, rows)


def test_threshold_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()
    rows, _ = _engine_rows(
        lambda: ThresholdFilter(RelationScan(rel), ["v"], ">", 0.99, rel.store),
        rel.store,
    )
    assert 0 < len(rows) < len(rel.tuples)  # some floored partials fall short
    assert_rows_equal(threshold_select(rel, ["v"], ">", 0.99).tuples, rows)


def test_prob_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()
    pred = Comparison("v", ">", 3.0)
    rows, _ = _engine_rows(
        lambda: ProbFilter(RelationScan(rel), pred, ">", 0.25, rel.store), rel.store
    )
    assert 0 < len(rows) < len(rel.tuples)
    assert_rows_equal(prob_filter_reference(rel, pred, ">", 0.25), rows)


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.integers(0, ZOO_KINDS - 1), min_size=0, max_size=24),
    lo=st.floats(-2, 8),
    width=st.floats(0.5, 8),
)
def test_filter_columnar_equivalence_property(kinds, lo, width):
    rel = ProbabilisticRelation(_schema(), name="r")
    for i, kind in enumerate(kinds):
        rel.insert(certain={"sid": i}, uncertain={"v": _pdf_for(kind)})
    pred = And([Comparison("v", ">", lo), Comparison("v", "<", lo + width)])
    rows, _ = _engine_rows(lambda: Filter(RelationScan(rel), pred, rel.store), rel.store)
    assert_rows_equal(select(rel, pred).tuples, rows)


@settings(max_examples=30, deadline=None)
@given(rel=_small_relations(), lo=st.floats(-8, 8), width=st.floats(0.5, 10))
def test_filter_batch_equivalence(rel, lo, width):
    pred = And([Comparison("v", ">", lo), Comparison("v", "<", lo + width)])
    rows, _ = _engine_rows(lambda: Filter(RelationScan(rel), pred, rel.store), rel.store)
    assert_rows_equal(select(rel, pred).tuples, rows)


@settings(max_examples=20, deadline=None)
@given(rel=_small_relations(), lo=st.floats(-8, 8))
def test_project_batch_equivalence(rel, lo):
    pred = Comparison("v", ">", lo)
    selected = select(rel, pred)

    # Dropping a certain column: the paper's Π and the engine's agree exactly.
    rows, _ = _engine_rows(
        lambda: Project(Filter(RelationScan(rel), pred, rel.store), ["v"]), rel.store
    )
    assert_rows_equal(project(selected, ["v"]).tuples, rows)

    # Dropping the uncertain column: Π sees the whole relation and keeps {v}
    # as a phantom only if some tuple is partial; the streaming engine cannot
    # look ahead and always keeps it.  What the engine keeps beyond Π must
    # then be full-mass everywhere, i.e. carry no information.
    rows, _ = _engine_rows(
        lambda: Project(Filter(RelationScan(rel), pred, rel.store), ["sid"]), rel.store
    )
    reference = project(selected, ["sid"]).tuples
    assert [t.tuple_id for t in rows] == [t.tuple_id for t in reference]
    for expected, actual in zip(reference, rows):
        assert actual.certain == expected.certain
        for dep, pdf in actual.pdfs.items():
            if dep in expected.pdfs:
                assert pdf == expected.pdfs[dep]
                assert actual.lineage[dep] == expected.lineage[dep]
            else:
                assert pdf.mass() >= 1.0 - 1e-9
        assert set(expected.pdfs) <= set(actual.pdfs)


@settings(max_examples=20, deadline=None)
@given(
    rel=_small_relations(),
    lo=st.floats(-8, 8),
    p=st.floats(0.05, 0.95),
    op=st.sampled_from([">", ">=", "<", "<="]),
)
def test_prob_filter_batch_equivalence(rel, lo, p, op):
    pred = Comparison("v", ">", lo)
    rows, _ = _engine_rows(
        lambda: ProbFilter(RelationScan(rel), pred, op, p, rel.store), rel.store
    )
    assert_rows_equal(prob_filter_reference(rel, pred, op, p), rows)


#: dependency sets of the multi-set relations, one attribute each
SET_ATTRS = ("v", "w", "u")
#: pdf kinds of the first relation: every kind a ragged or family group holds
SWEPT_KINDS = ("gaussian", "uniform", "histogram", "discrete", "null")
#: pdf kinds that alias under a self-join (a continuous base pdf aliased
#: under two names has no joint density, so ``product`` refuses it): explicit
#: discrete rows the kernel sweeps beside symbolic discrete ones it does not
ALIASING_KINDS = ("discrete", "binomial", "poisson", "null")


@st.composite
def _set_pdf(draw, attr, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "null":
        return None
    if kind == "gaussian":
        return GaussianPdf(draw(st.floats(-5, 5)), draw(st.floats(0.2, 4)), attr=attr)
    if kind == "uniform":
        lo = draw(st.floats(-6, 4))
        return UniformPdf(lo, lo + draw(st.floats(0.5, 6)), attr=attr)
    if kind == "binomial":
        return BinomialPdf(draw(st.integers(1, 6)), draw(st.floats(0.1, 0.9)), attr=attr)
    if kind == "poisson":
        return PoissonPdf(draw(st.floats(0.5, 4)), attr=attr)
    points = draw(
        st.lists(st.integers(-6, 6), min_size=2, max_size=7, unique=True).map(sorted)
    )
    weights = draw(st.lists(st.floats(0.05, 1), min_size=len(points), max_size=len(points)))
    # partial: the tuple exists with probability ``scale``
    scale = draw(st.sampled_from([1.0, 0.6]))
    weights = [x * scale / sum(weights) for x in weights]
    if kind == "histogram":
        return HistogramPdf(points, weights[1:] if len(points) > 2 else weights[:1], attr=attr)
    return DiscretePdf(dict(zip(map(float, points), weights)), attr=attr)


def _partial_discrete(attr):
    return DiscretePdf({-1.0: 0.3, 0.0: 0.2, 2.0: 0.2}, attr=attr)


@st.composite
def _multi_set_rows(draw, kinds, forced):
    """``(width, rows)``: 2–3 one-attribute sets, ``forced(attrs)`` first,
    then drawn rows of ``kinds``."""
    width = draw(st.integers(2, 3))
    attrs = SET_ATTRS[:width]
    rows = [forced(attrs)]
    for _ in range(draw(st.integers(0, 6))):
        rows.append({a: draw(_set_pdf(a, kinds)) for a in attrs})
    return width, rows


def _multi_set_relation(width, rows, store=None):
    attrs = SET_ATTRS[:width]
    schema = ProbabilisticSchema(
        [Column("sid", DataType.INT)] + [Column(a, DataType.REAL) for a in attrs],
        [{a} for a in attrs],
    )
    rel = ProbabilisticRelation(schema, name="r", store=store)
    db_rows = [({"sid": i}, pdfs) for i, pdfs in enumerate(rows)]
    for certain, pdfs in db_rows:
        rel.insert(certain=certain, uncertain=pdfs)
    return rel, schema, db_rows


def _stored(schema, rows, work_mem):
    db = Database(config=ModelConfig(work_mem=work_mem))
    table = db.catalog.create_table("r", schema)
    for certain, pdfs in rows:
        table.insert(certain=certain, uncertain=pdfs)
    return db


def _assert_prob_filter_matches(rel, pred, op, p):
    """ProbFilter ≡ the reference at ``op p``, and at ``>= q`` and ``<= q`` for
    every reference probability ``q``: a row passing both reads exactly ``q``."""
    rows, _ = _engine_rows(
        lambda: ProbFilter(RelationScan(rel), pred, op, p, rel.store), rel.store
    )
    assert_rows_equal(prob_filter_reference(rel, pred, op, p), rows, compare_ids=False)
    plan = SelectionPlan(rel.schema, pred)
    for t in rel.tuples:
        selected = plan.apply(t, rel.store)
        q = 0.0 if selected is None else probability_of(selected, rel.store, None)
        for bound in (">=", "<="):
            got = list(ProbFilter(RelationScan(rel), pred, bound, q, rel.store))
            assert_rows_equal(
                prob_filter_reference(rel, pred, bound, q), got, compare_ids=False
            )


@settings(max_examples=15, deadline=None)
@given(
    swept=_multi_set_rows(SWEPT_KINDS, lambda attrs: {a: _partial_discrete(a) for a in attrs}),
    aliasing=_multi_set_rows(
        ALIASING_KINDS,
        lambda attrs: {a: _partial_discrete(a) if a == "v" else PoissonPdf(2.0, attr=a) for a in attrs},
    ),
    lo=st.floats(-4, 3),
    p=st.floats(0.05, 0.95),
    op=st.sampled_from([">", ">=", "<", "<="]),
)
def test_prob_filter_over_several_dependency_sets(swept, aliasing, lo, p, op):
    """``PROB(v > lo)`` over rows with untouched sets: the kernel multiplies
    the floored mass into the untouched masses unless the reference builds
    something else — an all-discrete row (its first row) builds a joint
    discrete pdf, and a self-join's rows share an ancestor between ``a.v``
    and ``b.v`` (its first pair, partial ``v``: skipping that check changes
    the answer) — through ProbFilter over a ``RelationScan`` and through
    SQL, with and without a spilling join."""
    rel, schema, db_rows = _multi_set_relation(*swept)
    pred = Comparison("v", ">", lo)
    _assert_prob_filter_matches(rel, pred, op, p)

    base, alias_schema, alias_rows = _multi_set_relation(*aliasing)
    joined = join(
        prefix_attrs(base, "a"),
        prefix_attrs(base, "b"),
        Comparison("a.sid", "=", col("b.sid")),
    )
    _assert_prob_filter_matches(joined, Comparison("a.v", ">", lo), op, p)

    for work_mem in (None, 1):
        # one database per table: its rows take the relation's tuple ids
        db = _stored(schema, db_rows, work_mem)
        got = db.execute(f"SELECT * FROM r WHERE PROB(v > {lo!r}) {op} {p!r}").rows
        assert_rows_equal(prob_filter_reference(rel, pred, op, p), got)
        db = _stored(alias_schema, alias_rows, work_mem)
        got = db.execute(
            f"SELECT * FROM r a, r b WHERE a.sid = b.sid AND PROB(a.v > {lo!r}) {op} {p!r}"
        ).rows
        expected = prob_filter_reference(joined, Comparison("a.v", ">", lo), op, p)
        assert_rows_equal(expected, got, compare_ids=False)


@settings(max_examples=20, deadline=None)
@given(rel=_small_relations(), p=st.floats(0.05, 0.95))
def test_threshold_filter_batch_equivalence(rel, p):
    rows, _ = _engine_rows(
        lambda: ThresholdFilter(RelationScan(rel), ["v"], ">", p, rel.store), rel.store
    )
    assert_rows_equal(threshold_select(rel, ["v"], ">", p).tuples, rows)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE counters and the segment cache
# ---------------------------------------------------------------------------


def test_explain_analyze_reports_columnar_stats():
    rel = _all_families_relation()
    plan = Filter(RelationScan(rel), PRED, rel.store)
    for _ in plan.batches(16):
        pass
    text = plan.explain()
    assert "columnar_rows=" in text
    assert "kernels=" in text
    assert "GaussianPdf" in text


def test_project_identity_passes_scan_batches_through():
    """``SELECT *`` rebuilds nothing: the scan's batches, segment included."""
    t = _seq_table()
    batches = list(Project(SeqScan(t), ["sid", "v"]).batches(8))
    assert all(b.segment is not None for b in batches)
    assert [tp.tuple_id for b in batches for tp in b.tuples] == [
        tp.tuple_id for _rid, tp in t.scan()
    ]


def test_relation_scan_reads_a_snapshot():
    """A scan sees the relation as of its first batch; the next scan sees the
    mutation, and so does the column view its batches build."""
    rel = _all_families_relation(8)
    scan = RelationScan(rel).batches(4)
    first = next(scan)
    rel.insert(certain={"sid": 99}, uncertain={"v": GaussianPdf(0, 1, attr="v")})
    assert [t.certain["sid"] for b in (first, *scan) for t in b.tuples] == list(range(8))
    (batch,) = RelationScan(rel).batches(16)
    assert batch.tuples[-1].certain["sid"] == 99
    assert batch.attr_column(frozenset({"v"})).n == 9


def test_only_the_base_operator_defines_iter():
    """One body per operator: ``batches()``.  Iterating a plan is the base
    class flattening it; a second, tuple-at-a-time body cannot come back."""
    offenders = []
    for info in pkgutil.iter_modules(repro.engine.executor.__path__):
        module = importlib.import_module(f"repro.engine.executor.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "__iter__" in vars(cls):
                if cls not in (Operator, TupleBatch):
                    offenders.append(f"{module.__name__}.{name}")
    assert offenders == []
    rel = _all_families_relation(8)
    assert [t.tuple_id for t in RelationScan(rel)] == [t.tuple_id for t in rel.tuples]


# ---------------------------------------------------------------------------
# ⋈, GROUP BY and certain arithmetic
# ---------------------------------------------------------------------------

READINGS_SCHEMA = ProbabilisticSchema(
    [
        Column("rid", DataType.INT),
        Column("site", DataType.INT),
        Column("v", DataType.REAL),
    ],
    [{"v"}],
)
SITES_SCHEMA = ProbabilisticSchema(
    [Column("site_id", DataType.INT), Column("region", DataType.INT)]
)
KEY_EQ = Comparison("site", "=", col("site_id"))


def _join_relations(n=48, keys=None, null_pdfs=True):
    """Uncertain readings (all pdf families, NULL join keys) + certain dim.

    ``null_pdfs=False`` skips the NULL-pdf rotation slot — EXPECTED over a
    NULL attribute is a QueryError by design, so aggregate workloads need
    the zoo without it.
    """
    store = HistoryStore()
    readings = ProbabilisticRelation(READINGS_SCHEMA, store=store, name="readings")
    for i in range(n):
        if keys is not None:
            site = keys[i % len(keys)]
        else:
            site = None if i % 11 == 10 else i % 6
        kind = i % (ZOO_KINDS - 1) if not null_pdfs else i
        readings.insert(
            certain={"rid": i, "site": site}, uncertain={"v": _pdf_for(kind)}
        )
    sites = ProbabilisticRelation(SITES_SCHEMA, store=store, name="sites")
    for s in range(6):
        sites.insert(certain={"site_id": s, "region": s % 2})
    return store, readings, sites


def _hash_join(store, left, right, predicate=KEY_EQ, keys=("site", "site_id")):
    return HashJoin(
        RelationScan(left), RelationScan(right), *keys, predicate, store
    )


def _assert_ids_from_watermark(rows, id0, matched=None):
    """Matched pairs take consecutive ids from the watermark, in emission
    order; a residual predicate only punches holes into that sequence."""
    ids = [t.tuple_id for t in rows]
    if matched is None:
        assert ids == list(range(id0 + 1, id0 + 1 + len(rows)))
    else:
        assert ids == sorted(set(ids))
        assert all(id0 < i <= id0 + matched for i in ids)


def test_hash_join_columnar_equivalence_null_keys():
    store, readings, sites = _join_relations()
    rows, id0 = _engine_rows(lambda: _hash_join(store, readings, sites), store)
    # NULL keys never match, everything else does: n minus the NULL rows.
    assert len(rows) == sum(1 for t in readings.tuples if t.certain["site"] is not None)
    assert_rows_equal(join(readings, sites, KEY_EQ).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0)


def test_hash_join_uncertain_residual_predicate():
    """A probabilistic residual rides along with the key equality."""
    store, readings, sites = _join_relations()
    pred = And([KEY_EQ, Comparison("v", ">", 3.0)])
    rows, id0 = _engine_rows(lambda: _hash_join(store, readings, sites, pred), store)
    matched = len(join(readings, sites, KEY_EQ).tuples)
    assert 0 < len(rows) < matched
    assert_rows_equal(join(readings, sites, pred).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0, matched)


def test_hash_join_string_keys_fall_back():
    """TEXT keys match as dict keys do."""
    store = HistoryStore()
    left = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("rid", DataType.INT), Column("tag", DataType.TEXT)]
        ),
        store=store,
        name="left",
    )
    for i in range(12):
        left.insert(certain={"rid": i, "tag": f"t{i % 3}"})
    right = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("tag_id", DataType.TEXT), Column("label", DataType.TEXT)]
        ),
        store=store,
        name="right",
    )
    for s in range(3):
        right.insert(certain={"tag_id": f"t{s}", "label": f"L{s}"})
    pred = Comparison("tag", "=", col("tag_id"))

    def make_plan():
        return _hash_join(store, left, right, pred, keys=("tag", "tag_id"))

    rows, id0 = _engine_rows(make_plan, store)
    assert len(rows) == 12
    assert_rows_equal(join(left, right, pred).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0)


def test_hash_join_huge_int_keys_fall_back():
    """Keys >= 2**53 would lose bits in float64; as Python ints they do not."""
    big = 2**53
    store, readings, _ = _join_relations(keys=[big, big + 1, big + 2])
    sites = ProbabilisticRelation(SITES_SCHEMA, store=store, name="sites2")
    for s in range(3):
        sites.insert(certain={"site_id": big + s, "region": s})
    rows, id0 = _engine_rows(lambda: _hash_join(store, readings, sites), store)
    assert len(rows) == len(readings.tuples)
    assert_rows_equal(join(readings, sites, KEY_EQ).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0)


def test_hash_join_empty_inputs():
    store = HistoryStore()
    readings = ProbabilisticRelation(READINGS_SCHEMA, store=store, name="readings")
    sites = ProbabilisticRelation(SITES_SCHEMA, store=store, name="sites")
    rows, _ = _engine_rows(lambda: _hash_join(store, readings, sites), store)
    assert rows == []
    assert join(readings, sites, KEY_EQ).tuples == []


# Keys are Python values and match / group as dict keys do — except NaN,
# which equals nothing (``nan = nan`` is false in repro.core.join), not even
# the very same float object a dict would find by identity.
NAN = float("nan")
KEY_CASES = {
    "null": ([1, None, 2, None, 1], [None, 1, 2, 1]),
    "text": (["a", "b", "a", ""], ["a", "", "c", "a"]),
    "int_float_bool": ([1, 1.0, True, 0, 2.5, False], [True, 0.0, 2.5, 1]),
    "signed_zero": ([0.0, -0.0, 0], [-0.0, 0.0]),
    "around_2_to_53": (
        [2**53 - 1, 2**53, 2**53 + 1, float(2**53), -(2**53) - 1],
        [2**53 + 1, 2**53, 2**53 - 1, -(2**53) - 1],
    ),
    "nan": ([NAN, 1.0, NAN, float("nan")], [NAN, float("nan"), 1.0]),
}
K_EQ = Comparison("k", "=", col("k2"))
WORK_MEM = pytest.mark.parametrize("work_mem", [None, 1], ids=["in_memory", "work_mem_1"])


def _keyed_relation(store, name, key_attr, keys):
    """``keys`` down a REAL-typed certain column (the model does not coerce),
    beside an all-families uncertain ``v`` (no NULL pdfs: EXPECTED rejects them)."""
    schema = ProbabilisticSchema(
        [Column(f"{name}id", DataType.INT), Column(key_attr, DataType.REAL), Column(f"{name}v", DataType.REAL)],
        [{f"{name}v"}],
    )
    rel = ProbabilisticRelation(schema, store=store, name=name)
    for i, key in enumerate(keys):
        pdf = _pdf_for(i % (ZOO_KINDS - 1))
        rel.insert(certain={f"{name}id": i, key_attr: key}, uncertain={f"{name}v": pdf.with_attrs([f"{name}v"])})
    return rel


@WORK_MEM
@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_hash_join_key_semantics(case, work_mem):
    """The one matching body against σ_{k = k2}(L × R), in memory and through
    the Grace partitions (whose leaves run the same body on decoded rows)."""
    left_keys, right_keys = KEY_CASES[case]
    store = HistoryStore()
    left = _keyed_relation(store, "l", "k", left_keys)
    right = _keyed_relation(store, "r", "k2", right_keys)
    config = ModelConfig(work_mem=work_mem)
    rows, id0 = _engine_rows(
        lambda: HashJoin(RelationScan(left), RelationScan(right), "k", "k2", K_EQ, store, config),
        store,
    )
    reference = join(left, right, K_EQ).tuples
    assert len(reference) == sum(a == b for a in left_keys for b in right_keys if None not in (a, b)) > 0
    assert_rows_equal(reference, rows, compare_ids=False)
    # repr: 1 vs 1.0 vs True, ±0.0 (a spill round trip reorders the dict)
    assert [repr(sorted(t.certain.items())) for t in rows] == [
        repr(sorted(t.certain.items())) for t in reference
    ]
    _assert_ids_from_watermark(rows, id0)  # an unmatched NaN pair draws no id


@WORK_MEM
def test_hash_join_self_join_shared_nan(work_mem):
    """Both sides of a self-join hold the *same* NaN objects: still no match."""
    store = HistoryStore()
    rel = _keyed_relation(store, "s", "k", [NAN, 1.0, NAN, 1.0])
    a, b = prefix_attrs(rel, "a"), prefix_attrs(rel, "b")
    assert a.tuples[0].certain["a.k"] is b.tuples[0].certain["b.k"] is NAN
    pred = Comparison("a.k", "=", col("b.k"))
    config = ModelConfig(work_mem=work_mem)
    rows, id0 = _engine_rows(
        lambda: HashJoin(RelationScan(a), RelationScan(b), "a.k", "b.k", pred, store, config),
        store,
    )
    assert len(rows) == 4  # the two 1.0 rows, squared
    assert_rows_equal(join(a, b, pred).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0)


def _two_relations(draw, max_size):
    """Two random relations over one history store."""
    left = draw(_small_relations(attr="a", name="l", id_col="lid", max_size=max_size))
    right = draw(
        _small_relations(
            attr="b", name="r", id_col="rid", max_size=max_size, store=left.store
        )
    )
    return left, right


@settings(max_examples=15, deadline=None)
@given(data=st.data(), lo=st.floats(-8, 8))
def test_join_batch_equivalence(data, lo):
    left, right = _two_relations(data.draw, 6)
    pred = Comparison("a", ">", lo)
    rows, _ = _engine_rows(
        lambda: NestedLoopJoin(
            RelationScan(left), RelationScan(right), pred, left.store
        ),
        left.store,
    )
    assert_rows_equal(join(left, right, pred).tuples, rows, compare_ids=False)


@settings(max_examples=12, deadline=None)
@given(data=st.data(), lo=st.floats(-8, 8))
def test_hash_join_batch_equivalence(data, lo):
    left, right = _two_relations(data.draw, 8)
    pred = Comparison("a", ">", lo)
    rows, id0 = _engine_rows(
        lambda: _hash_join(left.store, left, right, pred, keys=("lid", "rid")),
        left.store,
    )
    # The hash match stands in for the certain key equality; the residual is
    # selected over the matched pairs: σ_pred(L ⋈_{lid = rid} R).
    matched = join(left, right, Comparison("lid", "=", col("rid")))
    assert_rows_equal(select(matched, pred).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0, matched=len(matched.tuples))


# ---------------------------------------------------------------------------
# The kernel above non-scan inputs: a join's residual, a filter's or a join's
# output.  Such batches carry no segment; the consumer builds a column view
# over their tuples, and EXPLAIN ANALYZE counts the sweep on that node.
# ---------------------------------------------------------------------------

V_ABOVE_3 = Comparison("v", ">", 3.0)


def _root_kernel_rows(make_plan):
    """Run a plan; ``(k, n, rows)`` with ``k`` / ``n`` from the ``columnar_rows=k/n``
    EXPLAIN ANALYZE prints on its root: rows its kernels swept / rows its
    SelectionPlan saw."""
    plan = make_plan()
    rows = [t for b in plan.batches(16) for t in b.tuples]
    found = re.search(r"columnar_rows=(\d+)/(\d+)", plan.explain().splitlines()[0])
    assert found, plan.explain()
    assert "kernels=" in plan.explain().splitlines()[0]
    return int(found[1]), int(found[2]), rows


def _with_pdf(tuples):
    return sum(1 for t in tuples if t.pdfs[frozenset({"v"})] is not None)


def test_hash_join_uncertain_residual_runs_the_kernel():
    """A residual over an uncertain column only (the hash match stands in for
    the key equality) is σ over the matched pairs — swept, not looped."""
    store, readings, sites = _join_relations()

    def make_plan():
        return _hash_join(store, readings, sites, V_ABOVE_3)

    rows, id0 = _engine_rows(make_plan, store)
    matched = join(readings, sites, KEY_EQ)
    assert 0 < len(rows) < len(matched.tuples)
    assert_rows_equal(select(matched, V_ABOVE_3).tuples, rows, compare_ids=False)
    _assert_ids_from_watermark(rows, id0, matched=len(matched.tuples))
    swept, seen, _ = _root_kernel_rows(make_plan)
    assert 0 < swept < seen == _with_pdf(matched.tuples)


def test_nested_loop_join_residual_reports_kernel_rows():
    store, readings, sites = _join_relations(n=16)

    def make_plan():
        return NestedLoopJoin(
            RelationScan(readings), RelationScan(sites), V_ABOVE_3, store
        )

    swept, seen, rows = _root_kernel_rows(make_plan)
    assert 0 < swept < seen == _with_pdf(readings.tuples) * len(sites.tuples)
    assert_rows_equal(
        join(readings, sites, V_ABOVE_3).tuples, rows, compare_ids=False
    )


def test_filter_above_filter_runs_the_kernel():
    """A certain filter hands plain batches of untouched raw pdfs upward."""
    rel = _all_families_relation()
    certain = Comparison("sid", "<", 40)

    def make_plan():
        return Filter(Filter(RelationScan(rel), certain, rel.store), PRED, rel.store)

    rows, _ = _engine_rows(make_plan, rel.store)
    assert len(rows) > 0
    assert_rows_equal(select(select(rel, certain), PRED).tuples, rows)
    swept, seen, _ = _root_kernel_rows(make_plan)
    assert 0 < swept < seen == _with_pdf(rel.tuples[:40])


def test_prob_filter_above_join_runs_the_kernel():
    store, readings, sites = _join_relations()

    def make_plan():
        return ProbFilter(
            _hash_join(store, readings, sites), V_ABOVE_3, ">", 0.25, store
        )

    rows, _ = _engine_rows(make_plan, store)
    matched = join(readings, sites, KEY_EQ)
    assert 0 < len(rows) < len(matched.tuples)
    assert_rows_equal(
        prob_filter_reference(matched, V_ABOVE_3, ">", 0.25), rows, compare_ids=False
    )
    # every row is counted once: swept by the kernel or measured by apply
    swept, seen, _ = _root_kernel_rows(make_plan)
    assert 0 < swept < seen == _with_pdf(matched.tuples)


def test_sql_filter_and_prob_above_a_join_report_kernel_rows():
    """In SQL an uncertain conjunct is a Filter above the join (the join keeps
    the certain ones), a PROB() term a ProbFilter above that."""
    db = Database()
    db.execute("CREATE TABLE r (rid INT, site INT, v REAL UNCERTAIN)")
    db.execute("CREATE TABLE s (site_id INT, region INT)")
    for i in range(30):
        db.execute(f"INSERT INTO r VALUES ({i}, {i % 3}, GAUSSIAN({i % 11}, 2))")
    db.execute("INSERT INTO r VALUES (30, 0, HISTOGRAM(0, 4, 8 ; 0.5, 0.5))")
    for site in range(3):
        db.execute(f"INSERT INTO s VALUES ({site}, {site % 2})")
    for where, node in (
        ("r.v > 3 AND r.v < 9", "Filter("),
        ("PROB(r.v > 3 AND r.v < 9) > 0.25", "ProbFilter("),
    ):
        sql = f"SELECT r.rid FROM r, s WHERE r.site = s.site_id AND {where}"
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        (line,) = [ln for ln in text.splitlines() if ln.strip().startswith("-> " + node)]
        assert "columnar_rows=31/31 kernels=GaussianPdf:30,HistogramPdf:1" in line, text
        assert "HashJoin(" in text.split(line)[1]  # ... and the join is below it


GROUP_SPECS = [AggSpec("count"), AggSpec("expected", "v")]


def _groupby_reference(tuples, schema, store, group_attr):
    """COUNT(*) and EXPECTED(v) per group with :mod:`repro.core.aggregates`,
    groups in first-appearance order: keys group as dict keys do, but a NaN
    equals nothing, so each NaN row is keyed by the row itself."""
    groups = {}
    for t in tuples:
        key = t.certain[group_attr]
        slot = key if key == key else t
        if slot not in groups:
            groups[slot] = key, ProbabilisticRelation(schema, store=store)
        groups[slot][1].add_tuple(t, acquire=False)
    return [
        (key, agg.count_distribution(rel), agg.expected_value(rel, "v"))
        for key, rel in groups.values()
    ]


def _assert_groups_equal(reference, rows, group_attr, id0=None):
    assert len(reference) == len(rows)
    for (key, count, expected), t in zip(reference, rows):
        # repr: the group's first-seen key as it was — 1 vs 1.0 vs True, ±0.0, nan
        assert repr(t.certain[group_attr]) == repr(key)
        assert t.pdfs[frozenset({"count"})] == count.with_attrs(["count"])
        assert t.certain["expected_v"] == expected  # bitwise
    if id0 is not None:  # one fresh id per group, in emission order
        assert [t.tuple_id for t in rows] == list(range(id0 + 1, id0 + 1 + len(rows)))


def _join_groupby(store, readings, sites):
    return Aggregate(
        _hash_join(store, readings, sites), GROUP_SPECS, store, group_attrs=["region"]
    )


def test_group_aggregate_columnar_equivalence():
    """COUNT + EXPECTED per region over the all-families join stream."""
    store, readings, sites = _join_relations(null_pdfs=False)
    rows, _ = _engine_rows(lambda: _join_groupby(store, readings, sites), store)
    assert len(rows) == 2  # two regions
    joined = join(readings, sites, KEY_EQ)
    reference = _groupby_reference(joined.tuples, joined.schema, store, "region")
    _assert_groups_equal(reference, rows, "region")


def test_group_aggregate_null_group_keys():
    """NULL grouping keys form their own group, as in SQL."""
    store = HistoryStore()
    rel = ProbabilisticRelation(_schema(), store=store, name="r")
    for i in range(24):
        rel.insert(
            certain={"sid": None if i % 5 == 4 else i % 3},
            uncertain={"v": _pdf_for(i % (ZOO_KINDS - 1))},  # no NULL pdfs: EXPECTED rejects them
        )
    rows, id0 = _engine_rows(
        lambda: Aggregate(RelationScan(rel), GROUP_SPECS, store, group_attrs=["sid"]), store
    )
    assert [t.certain["sid"] for t in rows] == [0, 1, 2, None]
    reference = _groupby_reference(rel.tuples, rel.schema, store, "sid")
    _assert_groups_equal(reference, rows, "sid", id0)


@WORK_MEM
@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_group_aggregate_key_semantics(case, work_mem):
    """The one grouping body against ``count_distribution`` / ``expected_value``
    per group: every NaN row is a group of its own, one NaN *object* too."""
    keys = [k for side in KEY_CASES[case] for k in side]
    store = HistoryStore()
    rel = _keyed_relation(store, "", "k", keys)
    config = ModelConfig(work_mem=work_mem)
    rows, id0 = _engine_rows(
        lambda: Aggregate(RelationScan(rel), GROUP_SPECS, store, config, ["k"]), store
    )
    reference = _groupby_reference(rel.tuples, rel.schema, store, "k")
    assert len(reference) < len(keys)  # some keys share a group
    _assert_groups_equal(reference, rows, "k", id0)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 5)), st.integers(0, ZOO_KINDS - 2)
        ),
        min_size=0,
        max_size=24,
    ),
)
def test_join_groupby_columnar_equivalence_property(data):
    """Random key/pdf mixes: join + GROUP BY agree with join + core aggregates."""
    store, readings, sites = _join_relations(n=0)
    for i, (site, kind) in enumerate(data):
        readings.insert(
            certain={"rid": i, "site": site}, uncertain={"v": _pdf_for(kind)}
        )
    rows, _ = _engine_rows(lambda: _join_groupby(store, readings, sites), store)
    joined = join(readings, sites, KEY_EQ)
    reference = _groupby_reference(joined.tuples, joined.schema, store, "region")
    _assert_groups_equal(reference, rows, "region")


# ---------------------------------------------------------------------------
# SeqScan: a page at a time
# ---------------------------------------------------------------------------


def _seq_table():
    catalog = Catalog()
    t = catalog.create_table("readings", _schema())
    for i in range(32):
        t.insert(certain={"sid": i}, uncertain={"v": _pdf_for(i)})
    return t


def test_seqscan_direct_decode_matches_reference():
    """The scan's tuples are the record-at-a-time ``Table.scan`` ones, and each
    batch's segment is the column view of exactly its rows."""
    t = _seq_table()
    reference = [tp for _rid, tp in t.scan()]
    batches = list(SeqScan(t).batches(8))
    assert [len(b) for b in batches] == [8, 8, 8, 8]
    assert_rows_equal(reference, [tp for b in batches for tp in b.tuples])
    for batch in batches:
        assert batch.segment.tuples == batch.tuples


# ---------------------------------------------------------------------------
# the batch size selects a size, never a path
# ---------------------------------------------------------------------------


def test_work_mem_is_honoured_at_batch_size_one(monkeypatch):
    """Batches of one used to run bodies that never looked at ``work_mem``:
    a 1-byte budget sorted, joined and de-duplicated 40 rows in memory."""
    statements = {
        "SELECT k, v FROM t ORDER BY k DESC": "sort_runs=",
        "SELECT t.k, u.w FROM t, u WHERE t.k = u.k": "spill_partitions=",
        "SELECT DISTINCT g FROM t": "sort_runs=",
    }

    def run(config):
        db = Database(config=config)
        db.execute("CREATE TABLE t (k INT, g INT, v REAL UNCERTAIN)")
        db.execute("CREATE TABLE u (k INT, w REAL UNCERTAIN)")
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({(i * 7) % 40}, {i % 4}, GAUSSIAN({i}, 2))")
            db.execute(f"INSERT INTO u VALUES ({i}, UNIFORM({i}, {i + 3}))")
        rows = {sql: db.execute(sql).rows for sql in statements}
        plans = {sql: db.execute("EXPLAIN ANALYZE " + sql).plan_text for sql in statements}
        return rows, plans

    monkeypatch.setattr(planner, "DEFAULT_BATCH_SIZE", 1)
    unbounded, plans = run(ModelConfig())
    assert not any("sort_runs=" in p or "spill_partitions=" in p for p in plans.values())
    spilled, plans = run(ModelConfig(work_mem=1))
    for sql, counter in statements.items():
        assert counter in plans[sql], plans[sql]
        assert len(spilled[sql]) in (4, 40)
        assert_rows_equal(unbounded[sql], spilled[sql])
