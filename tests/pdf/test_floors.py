"""Symbolic floor tests — the paper's [Gaus(5,1), Floor{[5, inf]}] machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdf import (
    BoxRegion,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    IntervalSet,
    PredicateRegion,
    UniformPdf,
)


@pytest.fixture
def paper_floor():
    """The paper's Section III-A example: Gaus(5,1) under x < 5."""
    g = GaussianPdf(5, 1)
    return g.restrict(BoxRegion({"x": IntervalSet.less_than(5)}))


class TestFlooredBasics:
    def test_paper_example_mass(self, paper_floor):
        assert paper_floor.mass() == pytest.approx(0.5)

    def test_repr_shows_floor(self, paper_floor):
        assert "Floor" in repr(paper_floor)
        assert "GAUSSIAN" in repr(paper_floor)

    def test_density_zeroed_in_floor(self, paper_floor):
        assert paper_floor.prob(BoxRegion({"x": IntervalSet.between(5.5, 6.5)})) == 0.0
        assert paper_floor.prob(BoxRegion({"x": IntervalSet.between(3.5, 4.5)})) > 0.0

    def test_density_equals_base_inside(self, paper_floor):
        g = GaussianPdf(5, 1)
        edges = np.linspace(0, 4.99, 10)
        for lo, hi in zip(edges[:-1], edges[1:]):
            cell = BoxRegion({"x": IntervalSet.between(lo, hi)})
            assert paper_floor.prob(cell) == pytest.approx(g.prob(cell), rel=1e-12)

    def test_cdf(self, paper_floor):
        assert float(paper_floor.cdf(5)) == pytest.approx(0.5)
        assert float(paper_floor.cdf(100)) == pytest.approx(0.5)
        assert float(paper_floor.cdf(5 - 1)) == pytest.approx(
            float(GaussianPdf(5, 1).cdf(4))
        )

    def test_is_not_discrete(self, paper_floor):
        assert not paper_floor.is_discrete

    def test_with_attrs(self, paper_floor):
        renamed = paper_floor.with_attrs(["v"])
        assert renamed.attrs == ("v",)
        assert renamed.mass() == pytest.approx(0.5)


class TestFloorComposition:
    def test_floors_flatten(self):
        g = GaussianPdf(0, 1)
        once = g.restrict(BoxRegion({"x": IntervalSet.less_than(1)}))
        twice = once.restrict(BoxRegion({"x": IntervalSet.greater_than(-1)}))
        assert isinstance(twice, FlooredPdf)
        assert not isinstance(twice.base, FlooredPdf)
        assert twice.allowed == IntervalSet.between(-1, 1, closed_lo=False, closed_hi=False)

    def test_floor_order_irrelevant(self):
        """The paper: multiple floors yield floor(f, F1 ∪ ... ∪ Fk) in any order."""
        g = GaussianPdf(10, 4)
        r1 = BoxRegion({"x": IntervalSet.between(8, 14)})
        r2 = BoxRegion({"x": IntervalSet.between(9, 20)})
        ab = g.restrict(r1).restrict(r2)
        ba = g.restrict(r2).restrict(r1)
        assert ab == ba
        assert ab.mass() == pytest.approx(ba.mass())

    def test_fully_floored(self):
        g = GaussianPdf(0, 1)
        out = g.restrict(BoxRegion({"x": IntervalSet.empty()}))
        assert out.mass() == 0.0

    def test_floor_out_is_complement(self):
        g = GaussianPdf(0, 1)
        kept = g.restrict(BoxRegion({"x": IntervalSet.less_than(0.5)}))
        floored = g.floor_out(BoxRegion({"x": IntervalSet.greater_than(0.5, inclusive=True)}))
        assert kept.mass() == pytest.approx(floored.mass())


class TestFlooredQueries:
    def test_prob_interval_intersects(self, paper_floor):
        g = GaussianPdf(5, 1)
        # Query [4, 6] intersected with allowed (-inf, 5) = [4, 5).
        expected = float(g.cdf(5) - g.cdf(4))
        assert paper_floor.prob_interval(IntervalSet.between(4, 6)) == pytest.approx(expected)

    def test_prob_box(self, paper_floor):
        assert paper_floor.prob(
            BoxRegion({"x": IntervalSet.greater_than(5)})
        ) == pytest.approx(0.0)

    def test_predicate_region_goes_through_grid(self, paper_floor):
        region = PredicateRegion(("x",), lambda x: x < 4, "x<4")
        p = paper_floor.prob(region)
        assert p == pytest.approx(float(GaussianPdf(5, 1).cdf(4)), abs=0.01)

    def test_support_clipped(self, paper_floor):
        lo, hi = paper_floor.support()["x"]
        assert hi == pytest.approx(5.0)

    def test_to_grid_mass(self, paper_floor):
        grid = paper_floor.to_grid()
        assert grid.mass() == pytest.approx(0.5, abs=1e-9)

    def test_to_grid_exact_at_floor_boundaries(self):
        u = UniformPdf(0, 10)
        f = u.restrict(BoxRegion({"x": IntervalSet.between(2.5, 7.25)}))
        grid = f.to_grid()
        assert grid.mass() == pytest.approx(0.475, abs=1e-12)

    def test_moments_of_symmetric_floor(self):
        g = GaussianPdf(0, 1)
        f = g.restrict(BoxRegion({"x": IntervalSet.between(-1, 1)}))
        assert f.mean() == pytest.approx(0.0, abs=1e-6)
        assert 0 < f.variance() < 1.0

    def test_discrete_base_delegates(self):
        d = DiscretePdf({1: 0.5, 2: 0.5})
        f = FlooredPdf(d, IntervalSet.point(2))
        assert f.is_discrete
        assert f.mass() == pytest.approx(0.5)
        assert f.mean() == pytest.approx(2.0)

    def test_sampling_respects_floor(self, paper_floor, rng):
        samples = paper_floor.sample(rng, 500)["x"]
        assert np.all(samples < 5)

    def test_equality(self):
        g = GaussianPdf(0, 1)
        box = BoxRegion({"x": IntervalSet.less_than(0)})
        assert g.restrict(box) == g.restrict(box)
        assert g.restrict(box) != g.restrict(BoxRegion({"x": IntervalSet.less_than(1)}))


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=-20, max_value=20),
    var=st.floats(min_value=0.1, max_value=25),
    a=st.floats(min_value=-40, max_value=40),
    b=st.floats(min_value=-40, max_value=40),
)
def test_two_floors_intersect_mass(mean, var, a, b):
    """Mass after two floors equals base probability of the intersection."""
    g = GaussianPdf(mean, var)
    s1 = IntervalSet.less_than(max(a, b))
    s2 = IntervalSet.greater_than(min(a, b))
    f = g.restrict(BoxRegion({"x": s1})).restrict(BoxRegion({"x": s2}))
    assert f.mass() == pytest.approx(g.prob_interval(s1.intersect(s2)), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    cut=st.floats(min_value=-3, max_value=3),
    query=st.floats(min_value=-5, max_value=5),
)
def test_floored_cdf_never_exceeds_mass(cut, query):
    g = GaussianPdf(0, 1)
    f = g.restrict(BoxRegion({"x": IntervalSet.less_than(cut)}))
    assert 0.0 <= float(f.cdf(query)) <= f.mass() + 1e-12
