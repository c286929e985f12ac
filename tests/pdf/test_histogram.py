"""Histogram pdf tests: exact interval arithmetic and floor splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidDistributionError, PdfError
from repro.pdf import (
    BoxRegion,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    PredicateRegion,
    to_histogram,
)


class TestConstruction:
    def test_from_masses(self):
        h = HistogramPdf([0, 1, 2], [0.4, 0.6])
        assert h.mass() == pytest.approx(1.0)
        assert h.num_buckets == 2

    def test_partial_histogram(self):
        h = HistogramPdf([0, 1], [0.5])
        assert h.mass() == pytest.approx(0.5)

    def test_invalid_edges(self):
        with pytest.raises(InvalidDistributionError):
            HistogramPdf([0], [])
        with pytest.raises(InvalidDistributionError):
            HistogramPdf([0, 0], [0.5])
        with pytest.raises(InvalidDistributionError):
            HistogramPdf([2, 1], [0.5])

    def test_mismatched_masses(self):
        with pytest.raises(InvalidDistributionError):
            HistogramPdf([0, 1, 2], [1.0])

    def test_over_unit_mass(self):
        with pytest.raises(InvalidDistributionError):
            HistogramPdf([0, 1], [1.5])


class TestEvaluation:
    def test_density_inside_and_outside(self):
        h = HistogramPdf([0, 1, 3], [0.5, 0.5])
        assert h.prob(BoxRegion({"x": IntervalSet.between(0.25, 0.75)})) == pytest.approx(0.5 * 0.5)
        assert h.prob(BoxRegion({"x": IntervalSet.between(1.5, 2.5)})) == pytest.approx(0.25 * 1)
        assert h.prob(BoxRegion({"x": IntervalSet.between(-2, -1)})) == 0.0
        assert h.prob(BoxRegion({"x": IntervalSet.between(4, 5)})) == 0.0

    def test_density_at_last_edge(self):
        h = HistogramPdf([0, 1, 3], [0.5, 0.5])
        assert h.prob(BoxRegion({"x": IntervalSet.between(2.5, 3.0)})) == pytest.approx(0.25 * 0.5)
        assert h.prob(BoxRegion({"x": IntervalSet.greater_than(3.0)})) == 0.0

    def test_cdf_piecewise_linear(self):
        h = HistogramPdf([0, 2], [1.0])
        assert float(h.cdf(0)) == 0.0
        assert float(h.cdf(1)) == pytest.approx(0.5)
        assert float(h.cdf(2)) == pytest.approx(1.0)
        assert float(h.cdf(5)) == pytest.approx(1.0)

    def test_prob_interval_exact(self):
        h = HistogramPdf([0, 1, 2, 3], [0.2, 0.3, 0.5])
        assert h.prob_interval(IntervalSet.between(0.5, 2.5)) == pytest.approx(
            0.1 + 0.3 + 0.25
        )

    def test_moments(self):
        h = HistogramPdf([0, 2], [1.0])  # Uniform(0, 2)
        assert h.mean() == pytest.approx(1.0)
        assert h.variance() == pytest.approx(4 / 12)

    def test_support(self):
        h = HistogramPdf([3, 7], [1.0])
        assert h.support() == {"x": (3.0, 7.0)}


class TestRestrict:
    def test_restrict_aligned(self):
        h = HistogramPdf([0, 1, 2, 3], [0.2, 0.3, 0.5])
        out = h.restrict(BoxRegion({"x": IntervalSet.between(1, 3)}))
        assert out.mass() == pytest.approx(0.8)

    def test_restrict_splits_buckets(self):
        h = HistogramPdf([0, 2], [1.0])
        out = h.restrict(BoxRegion({"x": IntervalSet.between(0.5, 1.5)}))
        assert out.mass() == pytest.approx(0.5)
        # The restricted pdf is still exact: cdf is linear within the window.
        assert float(out.cdf(1.0)) == pytest.approx(0.25)

    def test_restrict_multi_interval(self):
        h = HistogramPdf([0, 4], [1.0])
        allowed = IntervalSet.between(0, 1).union(IntervalSet.between(3, 4))
        out = h.restrict(BoxRegion({"x": allowed}))
        assert out.mass() == pytest.approx(0.5)
        assert out.prob(BoxRegion({"x": IntervalSet.between(1.5, 2.5)})) == 0.0

    def test_restrict_everything_away(self):
        h = HistogramPdf([0, 1], [1.0])
        out = h.restrict(BoxRegion({"x": IntervalSet.between(5, 6)}))
        assert out.mass() == 0.0

    def test_restrict_preserves_mass_against_prob(self):
        g = GaussianPdf(50, 25)
        h = to_histogram(g, 7)
        window = IntervalSet.between(43.3, 57.9)
        restricted = h.restrict(BoxRegion({"x": window}))
        assert restricted.mass() == pytest.approx(h.prob_interval(window), abs=1e-12)

    def test_restrict_predicate_region(self):
        h = HistogramPdf([0, 1, 2, 3, 4], [0.25] * 4)
        out = h.restrict(PredicateRegion(("x",), lambda x: x > 2, "x>2"))
        # Cell centers 2.5, 3.5 pass.
        assert out.mass() == pytest.approx(0.5)

    def test_composition_matches_intersection(self):
        h = to_histogram(GaussianPdf(10, 9), 11)
        a = IntervalSet.between(5, 12)
        b = IntervalSet.between(8, 20)
        seq = h.restrict(BoxRegion({"x": a})).restrict(BoxRegion({"x": b}))
        direct = h.restrict(BoxRegion({"x": a.intersect(b)}))
        assert seq.mass() == pytest.approx(direct.mass(), abs=1e-12)


class TestConversions:
    def test_to_grid(self):
        h = HistogramPdf([0, 1, 2], [0.3, 0.7])
        grid = h.to_grid()
        assert grid.mass() == pytest.approx(1.0)
        assert not grid.is_discrete

    def test_sampling_within_support(self, rng):
        h = HistogramPdf([2, 3, 5], [0.5, 0.5])
        samples = h.sample(rng, 1000)["x"]
        assert samples.min() >= 2 and samples.max() <= 5

    def test_zero_mass_errors(self, rng):
        h = HistogramPdf([0, 1], [1.0]).restrict(BoxRegion({"x": IntervalSet.between(5, 6)}))
        with pytest.raises(PdfError):
            h.mean()
        with pytest.raises(PdfError):
            h.sample(rng, 1)


@st.composite
def histograms(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    start = draw(st.floats(min_value=-100, max_value=100))
    widths = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=50), min_size=n, max_size=n
        )
    )
    edges = np.concatenate([[start], start + np.cumsum(widths)])
    raw = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=n, max_size=n))
    total = sum(raw) or 1.0
    masses = np.array(raw) / total
    return HistogramPdf(edges, masses)


@settings(max_examples=60, deadline=None)
@given(
    histograms(),
    st.floats(min_value=-200, max_value=200),
    st.floats(min_value=0, max_value=100),
)
def test_restrict_mass_equals_prob(h, lo, width):
    window = IntervalSet.between(lo, lo + width)
    restricted = h.restrict(BoxRegion({"x": window}))
    assert restricted.mass() == pytest.approx(h.prob_interval(window), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(histograms(), st.floats(min_value=-200, max_value=200))
def test_cdf_split_partition(h, cut):
    below = h.prob_interval(IntervalSet.less_than(cut))
    above = h.prob_interval(IntervalSet.greater_than(cut))
    assert below + above == pytest.approx(h.mass(), abs=1e-9)
