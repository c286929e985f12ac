"""Rows the column view cannot express take the reference — and nothing else.

An ``AttrColumn`` has a parameter-array form for the three continuous
families and a ragged one for explicit discrete pdfs and histograms (partial
ones too).  Every other pdf — a stored floor, a symbolic discrete family, a
categorical, a joint, a zero-mass floor — is listed in its ``other_rows``, and
``Filter``'s value predicate and ``PROB`` terms hand those rows to
``SelectionPlan.apply`` / ``probability_of`` one tuple at a time, as they do
a histogram under a range of two or more intervals.  Here each such kind sits in one table
between kernel rows and NULLs, and the engine — over a ``RelationScan`` and
through SQL over stored pages — must give the paper's answer
(``repro.core.select`` / ``threshold_select``, ``apply`` + ``probability_of``
for ``PROB(pred)``): the same rows in the same order with the same tuple ids,
equal pdfs and lineage, bitwise masses.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    select,
    threshold_select,
)
from repro.core.predicates import And, Comparison
from repro.engine.database import Database
from repro.engine.executor import Filter, RelationScan
from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    CategoricalPdf,
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    JointDiscretePdf,
    JointGaussianPdf,
    PoissonPdf,
    UniformPdf,
)

from .test_columnar_equivalence import assert_rows_equal, prob_filter_reference


def _floored(pdf, allowed):
    return pdf.restrict(BoxRegion({pdf.attr: allowed}))


VALUE_ZOO = [
    GaussianPdf(5, 1.5),  # swept by the kernel
    None,  # NULL: the tuple exists, its value is unknown
    _floored(GaussianPdf(4, 2), IntervalSet.greater_than(3)),  # a stored floor
    _floored(UniformPdf(0, 10), IntervalSet.greater_than(20)),  # ... of zero mass
    _floored(GaussianPdf(0, 1), IntervalSet.less_than(-30)),  # ... of near-zero mass
    BernoulliPdf(0.4),
    BinomialPdf(9, 0.5),
    PoissonPdf(4.0),
    PoissonPdf(12.0),
    HistogramPdf([0, 2, 4, 8], [0.2, 0.5, 0.3]),
    HistogramPdf([1, 5, 9], [0.3, 0.4]),  # partial: exists with probability 0.7
    DiscretePdf({2.0: 0.25, 6.0: 0.75}),
    DiscretePdf({3.0: 0.2, 5.0: 0.3}),  # partial
    UniformPdf(3, 9),  # swept by the kernel
]
VALUE_SCHEMA = ProbabilisticSchema(
    [Column("rid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
)
OUTER = And([Comparison("v", ">", 2.0), Comparison("v", "<", 7.5)])
INNER = And([Comparison("v", ">", 3.0), Comparison("v", "<", 5.0)])


def _build_both(schema, name, rows):
    """The same tuples as a model relation and as a stored table."""
    rel = ProbabilisticRelation(schema, name=name)
    db = Database()
    table = db.catalog.create_table(name, schema)
    for certain, uncertain in rows:
        rel.insert(certain=certain, uncertain=uncertain)
        table.insert(certain=certain, uncertain=uncertain)
    return rel, db


@pytest.fixture
def zoo():
    return _build_both(
        VALUE_SCHEMA, "zoo", [({"rid": i}, {"v": pdf}) for i, pdf in enumerate(VALUE_ZOO)]
    )


def test_range_selection_over_every_leftover_kind(zoo):
    rel, db = zoo
    expected = select(rel, OUTER).tuples
    assert 0 < len(expected) < len(VALUE_ZOO)
    assert_rows_equal(expected, list(Filter(RelationScan(rel), OUTER, rel.store)))
    sql = db.execute("SELECT rid, v FROM zoo WHERE v > 2 AND v < 7.5")
    assert_rows_equal(expected, sql.rows)
    # six rows swept (two symbolic, two histograms, two discrete); of the
    # other eight the pruned scan lets only those through whose stored
    # support can meet the range
    plan = db.execute("EXPLAIN ANALYZE SELECT rid, v FROM zoo WHERE v > 2 AND v < 7.5")
    assert (
        "columnar_rows=6/10 kernels=DiscretePdf:2,GaussianPdf:1,HistogramPdf:2,UniformPdf:1"
        in plan.plan_text
    )


def test_prob_of_a_range_over_every_leftover_kind(zoo):
    rel, db = zoo
    expected = prob_filter_reference(rel, OUTER, ">", 0.3)
    assert 0 < len(expected) < len(VALUE_ZOO)
    assert_rows_equal(
        expected,
        list(Filter(RelationScan(rel), None, rel.store, probs=[(OUTER, ">", 0.3)])),
    )
    sql = db.execute("SELECT rid, v FROM zoo WHERE PROB(v > 2 AND v < 7.5) > 0.3")
    assert_rows_equal(expected, sql.rows)


def test_existence_threshold_over_every_leftover_kind(zoo):
    rel, db = zoo
    expected = threshold_select(rel, None, ">", 0.5).tuples
    assert 0 < len(expected) < len(VALUE_ZOO)
    assert_rows_equal(
        expected,
        list(Filter(RelationScan(rel), None, rel.store, probs=[(None, ">", 0.5)])),
    )
    assert_rows_equal(expected, db.execute("SELECT rid, v FROM zoo WHERE PROB(*) > 0.5").rows)


def test_stored_floors_take_a_second_range_and_a_prob(zoo):
    """CTAS of a selection stores floors; what runs over them is ``apply``."""
    rel, db = zoo
    floors = select(rel, OUTER)
    db.execute("CREATE TABLE floors AS SELECT rid, v FROM zoo WHERE v > 2 AND v < 7.5")
    assert_rows_equal(
        floors.tuples, db.execute("SELECT rid, v FROM floors").rows, compare_ids=False
    )

    def same(expected, over_relation, sql):
        assert 0 < len(expected) < len(floors.tuples)
        assert_rows_equal(expected, list(over_relation))
        # CTAS re-inserts: the stored rows have ids and base lineage of their own
        got = db.execute(sql).rows
        assert [t.certain for t in got] == [t.certain for t in expected]
        for a, b in zip(expected, got):
            assert a.pdfs == b.pdfs
            assert [p.mass() for p in a.pdfs.values()] == [p.mass() for p in b.pdfs.values()]

    scan = RelationScan(floors)
    same(
        select(floors, INNER).tuples,
        Filter(scan, INNER, floors.store),
        "SELECT rid, v FROM floors WHERE v > 3 AND v < 5",
    )
    same(
        prob_filter_reference(floors, INNER, ">=", 0.25),
        Filter(scan, None, floors.store, probs=[(INNER, ">=", 0.25)]),
        "SELECT rid, v FROM floors WHERE PROB(v > 3 AND v < 5) >= 0.25",
    )
    same(
        threshold_select(floors, None, ">", 0.5).tuples,
        Filter(scan, None, floors.store, probs=[(None, ">", 0.5)]),
        "SELECT rid, v FROM floors WHERE PROB(*) > 0.5",
    )


def test_categorical_rows():
    schema = ProbabilisticSchema(
        [Column("tid", DataType.INT), Column("label", DataType.TEXT)], [{"label"}]
    )
    labels = [
        CategoricalPdf({"cat": 0.7, "dog": 0.3}),
        CategoricalPdf({"dog": 1.0}),
        CategoricalPdf({"cat": 0.2, "eel": 0.3}),  # partial
        None,
    ]
    rel, db = _build_both(
        schema, "ann", [({"tid": i}, {"label": pdf}) for i, pdf in enumerate(labels)]
    )
    is_cat = Comparison("label", "=", "cat")
    expected = select(rel, is_cat).tuples
    assert [t.certain["tid"] for t in expected] == [0, 2]
    assert_rows_equal(expected, list(Filter(RelationScan(rel), is_cat, rel.store)))
    assert_rows_equal(expected, db.execute("SELECT tid, label FROM ann WHERE label = 'cat'").rows)
    likely = prob_filter_reference(rel, is_cat, ">", 0.5)
    assert [t.certain["tid"] for t in likely] == [0]
    assert_rows_equal(
        likely, db.execute("SELECT tid, label FROM ann WHERE PROB(label = 'cat') > 0.5").rows
    )


def test_joint_rows():
    """A predicate on one attribute of a joint dependency set is not the
    kernel's shape at all: every row, Gaussian or not, is the reference's."""
    schema = ProbabilisticSchema(
        [Column("oid", DataType.INT), Column("x", DataType.REAL), Column("y", DataType.REAL)],
        [{"x", "y"}],
    )
    joints = [
        JointGaussianPdf(["x", "y"], [0.5, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
        JointDiscretePdf(["x", "y"], {(4.0, 5.0): 0.6, (-2.0, 3.0): 0.3}),  # partial
        None,
        JointDiscretePdf(["x", "y"], {(-1.0, 1.0): 1.0}),
    ]
    rel, db = _build_both(
        schema, "objects", [({"oid": i}, {("x", "y"): pdf}) for i, pdf in enumerate(joints)]
    )
    right = Comparison("x", ">", 0.0)
    expected = select(rel, right).tuples
    assert [t.certain["oid"] for t in expected] == [0, 1]
    assert_rows_equal(expected, list(Filter(RelationScan(rel), right, rel.store)))
    assert_rows_equal(expected, db.execute("SELECT oid, x, y FROM objects WHERE x > 0").rows)
    likely = prob_filter_reference(rel, right, ">", 0.65)
    assert [t.certain["oid"] for t in likely] == [0]
    assert_rows_equal(
        likely, db.execute("SELECT oid, x, y FROM objects WHERE PROB(x > 0) > 0.65").rows
    )
