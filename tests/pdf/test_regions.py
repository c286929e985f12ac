"""Interval and region algebra tests, including algebraic property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PdfError
from repro.pdf.regions import (
    BoxRegion,
    ComplementRegion,
    Interval,
    IntersectionRegion,
    IntervalSet,
    PredicateRegion,
    UnionRegion,
)


class TestInterval:
    def test_closed_contains_endpoints(self):
        iv = Interval(2, 5)
        assert iv.contains_array(2) and iv.contains_array(5) and iv.contains_array(3.5)
        assert not iv.contains_array(1.999) and not iv.contains_array(5.001)

    def test_open_excludes_endpoints(self):
        iv = Interval(2, 5, closed_lo=False, closed_hi=False)
        assert not iv.contains_array(2) and not iv.contains_array(5)
        assert iv.contains_array(2.000001)

    def test_half_open(self):
        iv = Interval(2, 5, closed_lo=True, closed_hi=False)
        assert iv.contains_array(2) and not iv.contains_array(5)

    def test_empty_when_reversed(self):
        assert Interval(5, 2).is_empty()

    def test_point_interval(self):
        iv = Interval(3, 3)
        assert iv.contains_array(3) and not iv.is_empty()

    def test_open_point_is_empty(self):
        assert Interval(3, 3, closed_hi=False).is_empty()

    def test_infinite_endpoints_forced_open(self):
        iv = Interval(float("-inf"), float("inf"))
        assert not iv.closed_lo and not iv.closed_hi
        assert iv.contains_array(1e300) and not iv.contains_array(float("inf"))

    def test_nan_rejected(self):
        with pytest.raises(PdfError):
            Interval(float("nan"), 1)

    def test_measure(self):
        assert Interval(2, 5).measure == 3
        assert Interval(5, 2).measure == 0
        assert Interval(0, float("inf")).measure == float("inf")

    def test_intersect(self):
        a, b = Interval(0, 10), Interval(5, 15)
        assert a.intersect(b) == Interval(5, 10)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty()

    def test_intersect_open_boundary(self):
        a = Interval(0, 5, closed_hi=False)
        b = Interval(5, 10)
        assert a.intersect(b).is_empty()

    def test_contains_array(self):
        iv = Interval(2, 5, closed_hi=False)
        out = iv.contains_array(np.array([1.0, 2.0, 4.9, 5.0]))
        assert out.tolist() == [False, True, True, False]


class TestIntervalSet:
    def test_canonicalization_merges_touching(self):
        s = IntervalSet([(0, 2), (2, 5), (7, 9)])
        assert len(s.intervals) == 2
        assert s.intervals[0] == Interval(0, 5)

    def test_open_gap_not_merged(self):
        s = IntervalSet([Interval(0, 2, closed_hi=False), Interval(2, 5, closed_lo=False)])
        assert len(s.intervals) == 2
        assert not s.contains_array(2)

    def test_half_open_adjacent_merged(self):
        s = IntervalSet([Interval(0, 2, closed_hi=False), Interval(2, 5)])
        assert len(s.intervals) == 1

    def test_union(self):
        a = IntervalSet.between(0, 3)
        b = IntervalSet.between(5, 8)
        u = a.union(b)
        assert u.contains_array(1) and u.contains_array(6) and not u.contains_array(4)

    def test_intersect(self):
        a = IntervalSet([(0, 5), (10, 15)])
        b = IntervalSet.between(3, 12)
        out = a.intersect(b)
        assert out == IntervalSet([(3, 5), (10, 12)])

    def test_complement_of_empty_is_full(self):
        assert IntervalSet.empty().complement().is_full()

    def test_complement_of_full_is_empty(self):
        assert IntervalSet.full().complement().is_empty()

    def test_complement_boundary_openness(self):
        s = IntervalSet.between(0, 1)  # closed
        c = s.complement()
        assert not c.contains_array(0) and not c.contains_array(1)
        assert c.contains_array(-0.001) and c.contains_array(1.001)

    def test_difference(self):
        s = IntervalSet.between(0, 10).intersect(IntervalSet.between(3, 5).complement())
        assert s.contains_array(2) and not s.contains_array(4) and s.contains_array(6)

    def test_point_set(self):
        s = IntervalSet.point(3.5)
        assert s.contains_array(3.5) and not s.contains_array(3.4999)
        assert s.measure == 0

    def test_less_greater_constructors(self):
        assert IntervalSet.less_than(5).contains_array(4.999)
        assert not IntervalSet.less_than(5).contains_array(5)
        assert IntervalSet.less_than(5, inclusive=True).contains_array(5)
        assert IntervalSet.greater_than(5).contains_array(5.001)
        assert IntervalSet.greater_than(5, inclusive=True).contains_array(5)

    def test_bounds(self):
        s = IntervalSet([(2, 3), (7, 9)])
        assert s.bounds() == (2, 9)

    def test_equality_is_structural(self):
        assert IntervalSet([(0, 2), (2, 4)]) == IntervalSet([(0, 4)])

    def test_contains_array(self):
        s = IntervalSet([(0, 1), (3, 4)])
        out = s.contains_array(np.array([0.5, 2.0, 3.5]))
        assert out.tolist() == [True, False, True]

    def test_empty_intervals_dropped(self):
        s = IntervalSet([Interval(5, 2), Interval(1, 1, closed_hi=False)])
        assert s.is_empty()


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    intervals = []
    for _ in range(n):
        a = draw(finite)
        b = draw(finite)
        intervals.append(
            Interval(min(a, b), max(a, b), draw(st.booleans()), draw(st.booleans()))
        )
    return IntervalSet(intervals)


@settings(max_examples=80, deadline=None)
@given(interval_sets(), interval_sets(), st.lists(finite, min_size=1, max_size=10))
def test_union_semantics(a, b, points):
    u = a.union(b)
    for x in points:
        assert u.contains_array(x) == (a.contains_array(x) or b.contains_array(x))


@settings(max_examples=80, deadline=None)
@given(interval_sets(), interval_sets(), st.lists(finite, min_size=1, max_size=10))
def test_intersection_semantics(a, b, points):
    i = a.intersect(b)
    for x in points:
        assert i.contains_array(x) == (a.contains_array(x) and b.contains_array(x))


@settings(max_examples=80, deadline=None)
@given(interval_sets(), st.lists(finite, min_size=1, max_size=10))
def test_complement_semantics(a, points):
    c = a.complement()
    for x in points:
        assert c.contains_array(x) == (not a.contains_array(x))


@settings(max_examples=60, deadline=None)
@given(interval_sets())
def test_double_complement_is_identity(a):
    assert a.complement().complement() == a


@settings(max_examples=60, deadline=None)
@given(interval_sets(), interval_sets())
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersect(b.complement())
    assert lhs == rhs


class TestRegions:
    def test_box_region_contains(self):
        box = BoxRegion({"x": IntervalSet.between(0, 1), "y": IntervalSet.greater_than(5)})
        assert box.contains({"x": 0.5, "y": 6})
        assert not box.contains({"x": 0.5, "y": 4})
        assert not box.contains({"x": 2, "y": 6})

    def test_box_region_unconstrained_attr(self):
        box = BoxRegion({"x": IntervalSet.between(0, 1)})
        assert box.interval_set("other").is_full()

    def test_box_missing_attr_raises(self):
        box = BoxRegion({"x": IntervalSet.between(0, 1)})
        from repro.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            box.contains({"y": 1.0})

    def test_box_intersect_box(self):
        a = BoxRegion({"x": IntervalSet.between(0, 10)})
        b = BoxRegion({"x": IntervalSet.between(5, 15), "y": IntervalSet.point(1)})
        c = a.intersect_box(b)
        assert c.interval_set("x") == IntervalSet.between(5, 10)
        assert c.interval_set("y") == IntervalSet.point(1)

    def test_box_project(self):
        box = BoxRegion({"x": IntervalSet.between(0, 1), "y": IntervalSet.point(2)})
        assert box.project(["x"]).attrs == ("x",)
        assert box.project(["x"]).interval_set("y").is_full()

    def test_predicate_region(self):
        region = PredicateRegion(("a", "b"), lambda a, b: a < b, "a<b")
        assert region.contains({"a": 1, "b": 2})
        assert not region.contains({"a": 2, "b": 1})

    def test_predicate_region_vectorized(self):
        region = PredicateRegion(("a", "b"), lambda a, b: a < b, "a<b")
        out = region.contains({"a": np.array([1, 3]), "b": np.array([2, 2])})
        assert out.tolist() == [True, False]

    def test_combinators(self):
        a = BoxRegion({"x": IntervalSet.less_than(0)})
        b = BoxRegion({"x": IntervalSet.greater_than(10)})
        union = UnionRegion((a, b))
        assert union.contains({"x": -1}) and union.contains({"x": 11})
        assert not union.contains({"x": 5})
        inter = IntersectionRegion((a, b))
        assert not inter.contains({"x": -1})
        comp = ComplementRegion(a)
        assert comp.contains({"x": 5})

    def test_region_methods_compose(self):
        a = BoxRegion({"x": IntervalSet.less_than(0)})
        b = BoxRegion({"x": IntervalSet.greater_than(10)})
        assert a.complement().contains({"x": 1})
        assert not a.intersect(b).contains({"x": -1})
