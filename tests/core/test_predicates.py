"""Predicate AST tests: three-valued evaluation and region denotation."""

import pytest

from repro.core.predicates import And, Comparison, Not, Or, TruePredicate, col
from repro.errors import QueryError
from repro.pdf.regions import (
    BoxRegion,
    ComplementRegion,
    IntersectionRegion,
    IntervalSet,
    PredicateRegion,
    UnionRegion,
)


class TestEvaluation:
    def test_comparisons(self):
        row = {"a": 5, "b": 3}
        assert Comparison("a", ">", 4).evaluate(row) is True
        assert Comparison("a", "<", 4).evaluate(row) is False
        assert Comparison("a", "=", 5).evaluate(row) is True
        assert Comparison("a", "!=", 5).evaluate(row) is False
        assert Comparison("a", ">=", 5).evaluate(row) is True
        assert Comparison("a", "<=", 4).evaluate(row) is False

    def test_column_comparison(self):
        assert Comparison("a", ">", col("b")).evaluate({"a": 5, "b": 3}) is True
        assert Comparison("a", "=", col("b")).evaluate({"a": 5, "b": 5}) is True

    def test_string_comparison(self):
        assert Comparison("s", "=", "cat").evaluate({"s": "cat"}) is True
        assert Comparison("s", "!=", "cat").evaluate({"s": "dog"}) is True

    def test_null_is_unknown(self):
        assert Comparison("a", ">", 4).evaluate({"a": None}) is None
        assert Comparison("a", ">", col("b")).evaluate({"a": 1, "b": None}) is None
        assert Comparison("a", ">", 4).evaluate({}) is None

    def test_and_three_valued(self):
        t = Comparison("a", ">", 0)
        f = Comparison("a", "<", 0)
        u = Comparison("missing", ">", 0)
        row = {"a": 1}
        assert And([t, t]).evaluate(row) is True
        assert And([t, f]).evaluate(row) is False
        assert And([t, u]).evaluate(row) is None
        assert And([f, u]).evaluate(row) is False  # False dominates unknown

    def test_or_three_valued(self):
        t = Comparison("a", ">", 0)
        f = Comparison("a", "<", 0)
        u = Comparison("missing", ">", 0)
        row = {"a": 1}
        assert Or([f, t]).evaluate(row) is True
        assert Or([f, f]).evaluate(row) is False
        assert Or([f, u]).evaluate(row) is None
        assert Or([t, u]).evaluate(row) is True  # True dominates unknown

    def test_not_three_valued(self):
        row = {"a": 1}
        assert Not(Comparison("a", ">", 0)).evaluate(row) is False
        assert Not(Comparison("missing", ">", 0)).evaluate(row) is None

    def test_true_predicate(self):
        assert TruePredicate().evaluate({}) is True

    def test_operator_sugar(self):
        p = Comparison("a", ">", 0) & Comparison("a", "<", 10) | ~Comparison("a", "=", 5)
        assert p.evaluate({"a": 3}) is True

    def test_attrs(self):
        p = And([Comparison("a", ">", 0), Comparison("b", "<", col("c"))])
        assert p.attrs() == {"a", "b", "c"}

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("a", "~", 3)

    def test_empty_and_rejected(self):
        with pytest.raises(QueryError):
            And([])


class TestRegions:
    def test_const_comparison_is_box(self):
        region = Comparison("a", "<", 5).to_region()
        assert isinstance(region, BoxRegion)
        assert region.contains({"a": 4.9})
        assert not region.contains({"a": 5.0})

    def test_equality_is_point(self):
        region = Comparison("a", "=", 5).to_region()
        assert region.contains({"a": 5.0})
        assert not region.contains({"a": 5.1})

    def test_inequality_excludes_point(self):
        region = Comparison("a", "!=", 5).to_region()
        assert not region.contains({"a": 5.0})
        assert region.contains({"a": 5.1})

    def test_column_comparison_is_predicate_region(self):
        region = Comparison("a", "<", col("b")).to_region()
        assert isinstance(region, PredicateRegion)
        assert region.contains({"a": 1, "b": 2})

    def test_and_of_boxes_stays_box(self):
        p = And([Comparison("a", ">", 0), Comparison("a", "<", 10), Comparison("b", "=", 1)])
        region = p.to_region()
        assert isinstance(region, BoxRegion)
        assert region.interval_set("a") == IntervalSet.between(
            0, 10, closed_lo=False, closed_hi=False
        )

    def test_or_of_same_attr_boxes_stays_box(self):
        p = Or([Comparison("a", "<", 0), Comparison("a", ">", 10)])
        region = p.to_region()
        assert isinstance(region, BoxRegion)
        assert region.contains({"a": -1}) and region.contains({"a": 11})
        assert not region.contains({"a": 5})

    def test_or_of_different_attrs_is_union(self):
        p = Or([Comparison("a", "<", 0), Comparison("b", ">", 10)])
        assert isinstance(p.to_region(), UnionRegion)

    def test_not_of_single_attr_box_stays_box(self):
        p = Not(Comparison("a", "<", 5))
        region = p.to_region()
        assert isinstance(region, BoxRegion)
        assert region.contains({"a": 5.0})
        assert not region.contains({"a": 4.9})

    def test_mixed_and_falls_back_to_intersection(self):
        p = And([Comparison("a", "<", col("b")), Comparison("a", ">", 0)])
        region = p.to_region()
        assert isinstance(region, IntersectionRegion)
        assert region.contains({"a": 1, "b": 2})
        assert not region.contains({"a": -1, "b": 2})

    def test_label_resolution(self):
        resolver = lambda attr, label: 42.0
        region = Comparison("tag", "=", "cat").to_region(resolver)
        assert region.contains({"tag": 42.0})

    def test_label_without_resolver_rejected(self):
        with pytest.raises(QueryError):
            Comparison("tag", "=", "cat").to_region()

    def test_label_range_rejected(self):
        with pytest.raises(QueryError):
            Comparison("tag", "<", "cat").to_region(lambda a, l: 1.0)

    def test_true_predicate_region_is_everything(self):
        region = TruePredicate().to_region()
        assert region.contains({})

    def test_repr_readable(self):
        p = And([Comparison("a", ">", 0), Not(Comparison("b", "=", col("c")))])
        text = repr(p)
        assert "AND" in text and "NOT" in text
