"""Conversion tests: discretize / to_histogram (the Figure 4 competitors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PdfError
from repro.pdf import (
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    UniformPdf,
    discretize,
    to_histogram,
)


class TestDiscretize:
    def test_mass_preserved(self):
        d = discretize(GaussianPdf(10, 4), 7)
        assert d.mass() == pytest.approx(1.0, abs=1e-9)

    def test_point_count(self):
        d = discretize(GaussianPdf(10, 4), 7)
        assert len(d.values) == 7

    def test_points_equally_spaced(self):
        d = discretize(UniformPdf(0, 10), 5)
        assert np.allclose(np.diff(d.values), 2.0)

    def test_uniform_exact_masses(self):
        d = discretize(UniformPdf(0, 10), 5)
        assert np.allclose(d.probs, 0.2)

    def test_explicit_bounds(self):
        d = discretize(GaussianPdf(0, 1), 3, lo=-1, hi=1)
        # Tail mass is folded into the boundary points; total is preserved.
        assert d.mass() == pytest.approx(1.0, abs=1e-9)
        assert d.values.min() >= -1 and d.values.max() <= 1

    def test_invalid_count(self):
        with pytest.raises(PdfError):
            discretize(GaussianPdf(0, 1), 0)


class TestToHistogram:
    def test_mass_preserved(self):
        h = to_histogram(GaussianPdf(10, 4), 5)
        assert h.mass() == pytest.approx(1.0, abs=1e-9)

    def test_bucket_count(self):
        assert to_histogram(GaussianPdf(10, 4), 5).num_buckets == 5

    def test_uniform_roundtrip_exact(self):
        u = UniformPdf(0, 10)
        h = to_histogram(u, 4)
        xs = np.linspace(0, 10, 21)
        assert np.allclose(h.cdf(xs), u.cdf(xs), atol=1e-12)

    def test_bucket_masses_match_cdf(self):
        g = GaussianPdf(0, 1)
        h = to_histogram(g, 8, lo=-4, hi=4)
        for i in range(8):
            lo, hi = h.edges[i], h.edges[i + 1]
            expected = float(g.cdf(hi) - g.cdf(lo))
            if i == 0:
                expected += float(g.cdf(lo))
            if i == 7:
                expected += float(1 - g.cdf(hi))
            assert h.masses[i] == pytest.approx(expected, abs=1e-12)

    def test_invalid_count(self):
        with pytest.raises(PdfError):
            to_histogram(GaussianPdf(0, 1), 0)

    def test_unknown_method(self):
        with pytest.raises(PdfError):
            to_histogram(GaussianPdf(0, 1), 5, method="nope")


class TestEquidepth:
    def test_equal_bucket_masses(self):
        h = to_histogram(GaussianPdf(50, 4), 8, method="equidepth")
        assert np.allclose(h.masses, 1 / 8, atol=1e-6)

    def test_mass_preserved(self):
        h = to_histogram(GaussianPdf(0, 1), 5, method="equidepth")
        assert h.mass() == pytest.approx(1.0, abs=1e-9)

    def test_partial_pdf(self):
        from repro.pdf import BoxRegion, FlooredPdf

        partial = GaussianPdf(0, 1).restrict(
            BoxRegion({"x": IntervalSet.less_than(0)})
        )
        h = to_histogram(partial, 4, method="equidepth")
        assert h.mass() == pytest.approx(0.5, abs=1e-6)
        assert np.allclose(h.masses, 0.125, atol=1e-6)

    def test_middle_buckets_narrower_for_gaussian(self):
        h = to_histogram(GaussianPdf(0, 1), 8, method="equidepth")
        widths = np.diff(h.edges)
        # Dense center -> narrow buckets; tails -> wide buckets.
        assert widths[3] < widths[0]
        assert widths[4] < widths[-1]

    def test_uniform_equidepth_equals_equiwidth(self):
        u = UniformPdf(0, 10)
        ew = to_histogram(u, 5)
        ed = to_histogram(u, 5, method="equidepth")
        assert np.allclose(ew.edges, ed.edges, atol=1e-6)


class TestAccuracyOrdering:
    """The substance of Figure 4: histograms beat discrete at equal size."""

    def test_histogram_beats_discrete_at_equal_size(self):
        g = GaussianPdf(50, 4)
        rng = np.random.default_rng(3)
        hist = to_histogram(g, 5)
        disc = discretize(g, 5)
        hist_err, disc_err = [], []
        for _ in range(200):
            mid = rng.uniform(40, 60)
            length = max(rng.normal(10, 3), 0.5)
            window = IntervalSet.between(mid - length / 2, mid + length / 2)
            exact = g.prob_interval(window)
            hist_err.append(abs(hist.prob_interval(window) - exact))
            disc_err.append(abs(disc.prob_interval(window) - exact))
        assert np.mean(hist_err) < np.mean(disc_err)

    def test_error_decreases_with_size(self):
        g = GaussianPdf(50, 4)
        window = IntervalSet.between(47.3, 53.9)
        exact = g.prob_interval(window)
        errors = [
            abs(to_histogram(g, size).prob_interval(window) - exact)
            for size in (2, 8, 32)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_discrete_boundary_miss(self):
        """The paper's pathological case: the query barely misses a point."""
        g = GaussianPdf(0, 1)
        disc = discretize(g, 5)  # points at cell centers
        points = disc.values
        gap_lo = (points[1] + points[2]) / 2 + 1e-6
        gap_hi = points[2] - 1e-6
        window = IntervalSet.between(gap_lo, gap_hi)
        assert disc.prob_interval(window) == 0.0
        assert g.prob_interval(window) > 0.05


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(min_value=-50, max_value=50),
    var=st.floats(min_value=0.1, max_value=100),
    size=st.integers(min_value=1, max_value=40),
)
def test_conversions_preserve_mass(mean, var, size):
    g = GaussianPdf(mean, var)
    assert to_histogram(g, size).mass() == pytest.approx(1.0, abs=1e-9)
    assert discretize(g, size).mass() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=2, max_value=64))
def test_histogram_cdf_dominates_discrete_on_bucket_edges(size):
    """On cell edges both representations agree with the exact cdf."""
    g = GaussianPdf(0, 1)
    h = to_histogram(g, size)
    edges = h.edges[1:-1]
    assert np.allclose(h.cdf(edges), g.cdf(edges), atol=1e-12)
