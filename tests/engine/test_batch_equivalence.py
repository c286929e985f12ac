"""Property test: the batch pipeline ≡ tuple-at-a-time execution.

For random small databases and representative plan shapes (select, project,
join, PROB threshold), running ``plan.batches(size)`` and flattening must
produce the same tuples, in the same order, with probabilities within 1e-12
of the scalar ``iter(plan)`` results.  (They are in fact bitwise identical —
the looser bound is the acceptance criterion.)
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
)
from repro.core.model import ModelConfig
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison
from repro.core.threshold import probability_of
from repro.engine.executor import (
    Filter,
    HashJoin,
    NestedLoopJoin,
    ProbFilter,
    Project,
    RelationScan,
    ThresholdFilter,
)
from repro.engine.sql.planner import execute_plan
from repro.pdf import (
    BoxRegion,
    DiscretePdf,
    GaussianPdf,
    Interval,
    IntervalSet,
    UniformPdf,
)

BATCH_SIZES = (1, 3, 256)


@st.composite
def pdf_values(draw, attr):
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
def relations(draw, attr="v", name="r", id_col="sid", min_size=0, max_size=12):
    schema = ProbabilisticSchema(
        [Column(id_col, DataType.INT), Column(attr, DataType.REAL)], [{attr}]
    )
    rel = ProbabilisticRelation(schema, name=name)
    n = draw(st.integers(min_size, max_size))
    for i in range(n):
        rel.insert(certain={id_col: i}, uncertain={attr: draw(pdf_values(attr))})
    return rel


def run_both(make_plan):
    """Scalar rows and, per batch size, the flattened batch rows."""
    PDF_OP_CACHE.reset()
    scalar = list(make_plan())
    out = {}
    for size in BATCH_SIZES:
        PDF_OP_CACHE.reset()
        out[size] = [t for b in make_plan().batches(size) for t in b.tuples]
    return scalar, out


def assert_rows_equal(scalar, batch, store, compare_ids=True):
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        if compare_ids:
            assert a.tuple_id == b.tuple_id
        assert a.certain == b.certain
        assert set(a.pdfs) == set(b.pdfs)
        for dep in a.pdfs:
            pa, pb = a.pdfs[dep], b.pdfs[dep]
            if pa is None:
                assert pb is None
                continue
            assert pb is not None
            assert set(pa.attrs) == set(pb.attrs)
            ma, mb = pa.mass(), pb.mass()
            assert math.isfinite(ma) and math.isfinite(mb)
            assert abs(ma - mb) <= 1e-12
        pa = probability_of(a, store, None)
        pb = probability_of(b, store, None)
        assert abs(pa - pb) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(rel=relations(), lo=st.floats(-8, 8), width=st.floats(0.5, 10))
def test_filter_batch_equivalence(rel, lo, width):
    pred = And([Comparison("v", ">", lo), Comparison("v", "<", lo + width)])
    scalar, batches = run_both(lambda: Filter(RelationScan(rel), pred, rel.store))
    for size, rows in batches.items():
        assert_rows_equal(scalar, rows, rel.store)


@settings(max_examples=20, deadline=None)
@given(rel=relations(), lo=st.floats(-8, 8))
def test_project_batch_equivalence(rel, lo):
    def make_plan():
        return Project(Filter(RelationScan(rel), Comparison("v", ">", lo), rel.store), ["sid"])

    scalar, batches = run_both(make_plan)
    for size, rows in batches.items():
        assert_rows_equal(scalar, rows, rel.store)


def _shared_store_copy(right, left):
    """``right`` re-inserted into ``left``'s store, so new_tuple_id draws
    from one counter in both runs."""
    copy = ProbabilisticRelation(right.schema, store=left.store, name="r2")
    for t in right.tuples:
        copy.insert(
            certain=dict(t.certain),
            uncertain={"b": t.pdfs[frozenset({"b"})]},
        )
    return copy


@settings(max_examples=15, deadline=None)
@given(
    left=relations(attr="a", name="l", id_col="lid", max_size=6),
    right=relations(attr="b", name="r", id_col="rid", max_size=6),
    lo=st.floats(-8, 8),
)
def test_join_batch_equivalence(left, right, lo):
    right2 = _shared_store_copy(right, left)
    pred = Comparison("a", ">", lo)

    def make_plan():
        return NestedLoopJoin(
            RelationScan(left), RelationScan(right2), pred, left.store
        )

    scalar, batches = run_both(make_plan)
    for size, rows in batches.items():
        # Join output tuple ids come from a fresh counter draw per pair, so
        # they differ between runs; everything else must match.
        assert_rows_equal(scalar, rows, left.store, compare_ids=False)


@settings(max_examples=12, deadline=None)
@given(
    left=relations(attr="a", name="l", id_col="lid", max_size=8),
    right=relations(attr="b", name="r", id_col="rid", max_size=8),
    lo=st.floats(-8, 8),
)
def test_hash_join_batch_equivalence(left, right, lo):
    right2 = _shared_store_copy(right, left)
    pred = Comparison("a", ">", lo)

    def make_plan():
        return HashJoin(
            RelationScan(left), RelationScan(right2), "lid", "rid", pred, left.store
        )

    scalar, batches = run_both(make_plan)
    for size, rows in batches.items():
        assert_rows_equal(scalar, rows, left.store, compare_ids=False)


@settings(max_examples=20, deadline=None)
@given(
    rel=relations(),
    lo=st.floats(-8, 8),
    p=st.floats(0.05, 0.95),
    op=st.sampled_from([">", ">=", "<", "<="]),
)
def test_prob_filter_batch_equivalence(rel, lo, p, op):
    def make_plan():
        return ProbFilter(RelationScan(rel), Comparison("v", ">", lo), op, p, rel.store)

    scalar, batches = run_both(make_plan)
    for size, rows in batches.items():
        assert_rows_equal(scalar, rows, rel.store)


@settings(max_examples=20, deadline=None)
@given(rel=relations(), p=st.floats(0.05, 0.95))
def test_threshold_filter_batch_equivalence(rel, p):
    def make_plan():
        return ThresholdFilter(RelationScan(rel), ["v"], ">", p, rel.store)

    scalar, batches = run_both(make_plan)
    for size, rows in batches.items():
        assert_rows_equal(scalar, rows, rel.store)


class _NoBatchesScan(RelationScan):
    """Scan that fails the test if the batch protocol is entered."""

    def batches(self, size=256):
        raise AssertionError(
            "batch_size <= 1 must use the scalar iterator protocol"
        )


def test_batch_size_one_uses_scalar_protocol():
    """At batch_size<=1, execute_plan must not wrap single tuples in
    TupleBatch objects (the 0.63x regression of BENCH_engine)."""
    schema = ProbabilisticSchema(
        [Column("sid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema, name="fixed")
    for i in range(10):
        rel.insert(certain={"sid": i}, uncertain={"v": GaussianPdf(i, 2.0, attr="v")})
    rows = execute_plan(_NoBatchesScan(rel), ModelConfig(batch_size=1))
    assert [t.tuple_id for t in rows] == [t.tuple_id for t in rel.tuples]
    # batch_size=0 degrades to scalar too instead of crashing batched().
    assert len(execute_plan(_NoBatchesScan(rel), ModelConfig(batch_size=0))) == 10
