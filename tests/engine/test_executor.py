"""Executor operator tests, driven directly (no SQL)."""

import pytest

from repro.core import (
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
)
from repro.core.predicates import And, Comparison, TruePredicate, col
from repro.engine.catalog import Catalog
from repro.engine.executor import (
    AggSpec,
    Aggregate,
    BTreeScan,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    ProbFilter,
    Project,
    PtiScan,
    RelationScan,
    RenameOp,
    SeqScan,
    Sort,
    ThresholdFilter,
)
from repro.errors import QueryError, SchemaError
from repro.pdf import DiscretePdf, GaussianPdf

from .. import mass_at


@pytest.fixture
def catalog():
    return Catalog()


@pytest.fixture
def readings(catalog):
    schema = ProbabilisticSchema(
        [Column("rid", DataType.INT), Column("value", DataType.REAL)], [{"value"}]
    )
    t = catalog.create_table("readings", schema)
    t.insert(certain={"rid": 1}, uncertain={"value": GaussianPdf(20, 5)})
    t.insert(certain={"rid": 2}, uncertain={"value": GaussianPdf(25, 4)})
    t.insert(certain={"rid": 3}, uncertain={"value": GaussianPdf(13, 1)})
    return t


@pytest.fixture
def labels(catalog):
    schema = ProbabilisticSchema(
        [Column("sid", DataType.INT), Column("name", DataType.TEXT)]
    )
    t = catalog.create_table("labels", schema)
    t.insert(certain={"sid": 1, "name": "hall"})
    t.insert(certain={"sid": 2, "name": "lab"})
    return t


class TestScans:
    def test_seq_scan(self, readings):
        rows = list(SeqScan(readings))
        assert [t.certain["rid"] for t in rows] == [1, 2, 3]

    def test_btree_scan(self, readings):
        readings.create_btree_index("rid")
        rows = list(BTreeScan(readings, "rid", lo=2))
        assert [t.certain["rid"] for t in rows] == [2, 3]

    def test_btree_scan_needs_index(self, readings):
        with pytest.raises(QueryError):
            BTreeScan(readings, "rid")

    def test_pti_scan(self, readings):
        readings.create_pti_index("value")
        rows = list(PtiScan(readings, "value", 18, 22))
        assert {t.certain["rid"] for t in rows} == {1, 2}

    def test_relation_scan(self, readings, catalog):
        rel = ProbabilisticRelation(readings.schema, catalog.store)
        rel.insert(certain={"rid": 9}, uncertain={"value": GaussianPdf(1, 1)})
        rows = list(RelationScan(rel))
        assert rows[0].certain["rid"] == 9


class TestFilterProject:
    def test_filter_uncertain(self, readings, catalog):
        op = Filter(
            SeqScan(readings),
            And([Comparison("value", ">", 18), Comparison("value", "<", 22)]),
            catalog.store,
        )
        rows = list(op)
        assert {t.certain["rid"] for t in rows} == {1, 2}

    def test_filter_certain(self, readings, catalog):
        op = Filter(SeqScan(readings), Comparison("rid", "=", 2), catalog.store)
        assert len(list(op)) == 1

    def test_project(self, readings, catalog):
        op = Project(SeqScan(readings), ["rid"])
        assert op.output_schema.visible_attrs == ("rid",)
        assert len(list(op)) == 3

    def test_rename(self, readings):
        op = RenameOp(SeqScan(readings), {"rid": "r.rid", "value": "r.value"})
        assert op.output_schema.visible_attrs == ("r.rid", "r.value")
        t = next(iter(op))
        assert "r.rid" in t.certain

    def test_rename_matches_the_scalar_reference(self):
        """The operator's per-stream memo changes nothing: tuples equal the
        ones ``repro.core.join.rename`` derives one at a time, also for a
        rename of a rename, joint sets and NULL pdfs."""
        from repro.core.join import rename
        from repro.pdf import JointGaussianPdf

        schema = ProbabilisticSchema(
            [Column("k", DataType.INT), Column("v"), Column("x"), Column("y")],
            [{"v"}, {"x", "y"}],
        )
        rel = ProbabilisticRelation(schema)
        for i in range(6):
            rel.insert(
                {"k": i},
                {
                    "v": None if i % 3 == 0 else GaussianPdf(i, 1.0),
                    ("x", "y"): JointGaussianPdf(("x", "y"), [i, -i], [[1, 0.2], [0.2, 1]]),
                },
            )
        first = {"k": "a.k", "v": "a.v", "x": "a.x"}
        second = {"a.v": "b.v", "y": "b.y"}
        expected = rename(rename(rel, first), second).tuples
        op = RenameOp(RenameOp(RelationScan(rel), first), second)
        for rows in (list(op), [t for b in op.batches(4) for t in b.tuples]):
            assert len(rows) == len(expected)
            for got, want in zip(rows, expected):
                assert got.tuple_id == want.tuple_id
                assert got.certain == want.certain
                assert got.pdfs == want.pdfs
                assert got.lineage == want.lineage


class TestJoins:
    def test_nested_loop(self, readings, labels, catalog):
        op = NestedLoopJoin(
            SeqScan(labels),
            SeqScan(readings),
            Comparison("sid", "=", col("rid")),
            catalog.store,
        )
        rows = list(op)
        assert len(rows) == 2
        assert {t.certain["name"] for t in rows} == {"hall", "lab"}

    def test_hash_join_same_answers(self, readings, labels, catalog):
        pred = Comparison("sid", "=", col("rid"))
        nl = {t.certain["sid"] for t in NestedLoopJoin(SeqScan(labels), SeqScan(readings), pred, catalog.store)}
        hj = {t.certain["sid"] for t in HashJoin(SeqScan(labels), SeqScan(readings), "sid", "rid", pred, catalog.store)}
        assert nl == hj

    def test_hash_join_requires_certain_keys(self, readings, labels, catalog):
        with pytest.raises(QueryError):
            HashJoin(
                SeqScan(labels),
                SeqScan(readings),
                "sid",
                "value",
                TruePredicate(),
                catalog.store,
            )

    def test_join_collision_rejected(self, readings, catalog):
        with pytest.raises(SchemaError):
            NestedLoopJoin(
                SeqScan(readings), SeqScan(readings), TruePredicate(), catalog.store
            )

    def test_explain_tree(self, readings, labels, catalog):
        op = Limit(
            NestedLoopJoin(
                SeqScan(labels), SeqScan(readings), TruePredicate(), catalog.store
            ),
            2,
        )
        text = op.explain()
        assert "Limit" in text and "NestedLoopJoin" in text and "SeqScan" in text


class TestThresholdOperators:
    def test_threshold_filter(self, catalog):
        schema = ProbabilisticSchema([Column("v", DataType.INT)], [{"v"}])
        t = catalog.create_table("p", schema)
        t.insert(uncertain={"v": DiscretePdf({1: 0.9})})
        t.insert(uncertain={"v": DiscretePdf({1: 0.4})})
        rows = list(ThresholdFilter(SeqScan(t), None, ">", 0.5, catalog.store))
        assert len(rows) == 1

    def test_prob_filter(self, readings, catalog):
        op = ProbFilter(
            SeqScan(readings),
            And([Comparison("value", ">", 18), Comparison("value", "<", 22)]),
            ">=",
            0.5,
            catalog.store,
        )
        rows = list(op)
        assert [t.certain["rid"] for t in rows] == [1]
        # Tuples pass through unchanged (histories copied, no floors).
        assert rows[0].pdf_of_attr("value").mass() == pytest.approx(1.0)

    def test_prob_filter_bad_op(self, readings, catalog):
        with pytest.raises(QueryError):
            ProbFilter(SeqScan(readings), TruePredicate(), "~", 0.5, catalog.store)


class TestSortLimit:
    def test_sort(self, readings):
        rows = list(Sort(SeqScan(readings), ["rid"], descending=True))
        assert [t.certain["rid"] for t in rows] == [3, 2, 1]

    def test_sort_uncertain_rejected(self, readings):
        with pytest.raises(QueryError):
            Sort(SeqScan(readings), ["value"])

    def test_limit(self, readings):
        rows = list(Limit(SeqScan(readings), 2))
        assert len(rows) == 2

    def test_limit_zero(self, readings):
        assert list(Limit(SeqScan(readings), 0)) == []

    def test_limit_negative_rejected(self, readings):
        with pytest.raises(QueryError):
            Limit(SeqScan(readings), -1)


class TestAggregateOp:
    def test_count_and_expected(self, readings, catalog):
        op = Aggregate(
            SeqScan(readings),
            [AggSpec("count"), AggSpec("expected", "value")],
            catalog.store,
        )
        (row,) = list(op)
        count_pdf = row.pdfs[frozenset({"count"})]
        assert mass_at(count_pdf, 3) == pytest.approx(1.0)
        assert row.certain["expected_value"] == pytest.approx(20 + 25 + 13)

    def test_sum_gaussian(self, readings, catalog):
        op = Aggregate(
            SeqScan(readings), [AggSpec("sum", "value", method="gaussian")], catalog.store
        )
        (row,) = list(op)
        pdf = row.pdfs[frozenset({"sum_value"})]
        assert pdf.mean() == pytest.approx(58.0)
        assert pdf.variance() == pytest.approx(10.0)

    def test_min_max(self, readings, catalog):
        op = Aggregate(
            SeqScan(readings),
            [AggSpec("min", "value"), AggSpec("max", "value")],
            catalog.store,
        )
        (row,) = list(op)
        assert row.pdfs[frozenset({"min_value"})].mean() < row.pdfs[
            frozenset({"max_value"})
        ].mean()

    def test_alias(self, readings, catalog):
        op = Aggregate(
            SeqScan(readings), [AggSpec("count", alias="n")], catalog.store
        )
        assert op.output_schema.visible_attrs == ("n",)

    def test_bad_spec(self):
        with pytest.raises(QueryError):
            AggSpec("median", "v")
        with pytest.raises(QueryError):
            AggSpec("sum")
