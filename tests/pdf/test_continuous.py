"""Symbolic continuous distribution tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, InvalidDistributionError, PdfError
from repro.pdf import (
    TAIL_MASS,
    BoxRegion,
    GaussianPdf,
    IntervalSet,
    PredicateRegion,
    TriangularPdf,
    UniformPdf,
)
from repro.pdf.base import GRID_RESOLUTION
from repro.pdf.floors import FlooredPdf

ALL_FAMILIES = [
    GaussianPdf(10, 4),
    UniformPdf(0, 10),
    TriangularPdf(0, 3, 10),
]


class TestGaussian:
    def test_paper_parameterization_is_variance(self):
        g = GaussianPdf(20, 5)
        assert g.mean() == 20
        assert g.variance() == pytest.approx(5)

    def test_cdf_at_mean(self):
        assert float(GaussianPdf(20, 5).cdf(20)) == pytest.approx(0.5)

    def test_cdf_matches_scipy(self):
        from scipy import stats

        g = GaussianPdf(3, 2)
        xs = np.linspace(-3, 9, 20)
        assert np.allclose(g.cdf(xs), stats.norm(3, math.sqrt(2)).cdf(xs))

    def test_density_matches_scipy(self):
        from scipy import stats

        g = GaussianPdf(3, 2)
        xs = np.linspace(-3, 9, 20)
        assert np.allclose(g.pdf_at(xs), stats.norm(3, math.sqrt(2)).pdf(xs))

    def test_quantile_inverts_cdf(self):
        g = GaussianPdf(0, 1)
        for q in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert float(g.cdf(g.quantile(q))) == pytest.approx(q, abs=1e-9)

    def test_invalid_variance(self):
        with pytest.raises(InvalidDistributionError):
            GaussianPdf(0, 0)
        with pytest.raises(InvalidDistributionError):
            GaussianPdf(0, -1)

    def test_three_sigma_prob(self):
        g = GaussianPdf(0, 1)
        p = g.prob_interval(IntervalSet.between(-3, 3))
        assert p == pytest.approx(0.9973, abs=1e-4)


class TestUniform:
    def test_basic(self):
        u = UniformPdf(2, 6)
        assert u.mean() == 4
        assert u.variance() == pytest.approx(16 / 12)
        assert float(u.cdf(4)) == pytest.approx(0.5)
        assert float(u.pdf_at(3)) == pytest.approx(0.25)
        assert float(u.pdf_at(7)) == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidDistributionError):
            UniformPdf(5, 5)


class TestTriangular:
    def test_triangular_support(self):
        t = TriangularPdf(0, 3, 10)
        assert float(t.cdf(0)) == 0.0
        assert float(t.cdf(10)) == pytest.approx(1.0)
        assert t.support()["x"] == (0, 10)

    def test_triangular_invalid(self):
        with pytest.raises(InvalidDistributionError):
            TriangularPdf(0, 11, 10)

    def test_triangular_moments(self):
        t = TriangularPdf(0, 3, 10)
        assert t.mean() == pytest.approx(13 / 3)
        assert t.variance() == pytest.approx((0 + 9 + 100 - 0 - 0 - 30) / 18)
        assert float(t.cdf(t.quantile(0.3))) == pytest.approx(0.3)


@pytest.mark.parametrize("pdf", ALL_FAMILIES, ids=lambda p: p.symbol)
class TestContinuousContract:
    """The shared Pdf contract, over every symbolic family."""

    def test_mass_is_one(self, pdf):
        assert pdf.mass() == 1.0

    def test_not_discrete(self, pdf):
        assert not pdf.is_discrete

    def test_cdf_monotone(self, pdf):
        lo, hi = pdf.support()[pdf.attr]
        xs = np.linspace(lo, hi, 50)
        cdf = pdf.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_grid_preserves_mass(self, pdf):
        grid = pdf.to_grid()
        assert grid.mass() == pytest.approx(1.0, abs=1e-6)

    def test_grid_spans_the_support_hull(self, pdf):
        """An unbounded end of the hull sits at the ``TAIL_MASS`` quantile,
        and the grid covers exactly the hull in ``GRID_RESOLUTION`` cells."""
        lo, hi = pdf.support()[pdf.attr]
        raw_lo, raw_hi = pdf._raw_support()
        want_lo = TAIL_MASS if math.isinf(raw_lo) else 0.0
        want_hi = TAIL_MASS if math.isinf(raw_hi) else 0.0
        assert float(pdf.cdf(lo)) == pytest.approx(want_lo, rel=1e-6, abs=1e-15)
        assert 1.0 - float(pdf.cdf(hi)) == pytest.approx(want_hi, rel=1e-6, abs=1e-15)
        (axis,) = pdf.to_grid().axes
        assert (axis.edges[0], axis.edges[-1], axis.size) == (lo, hi, GRID_RESOLUTION)

    def test_grid_mean_close(self, pdf):
        grid = pdf.to_grid()
        assert grid.mean(pdf.attr) == pytest.approx(pdf.mean(), abs=0.05 * (1 + abs(pdf.mean())))

    def test_restrict_box_returns_floored(self, pdf):
        lo, hi = pdf.support()[pdf.attr]
        mid = (lo + hi) / 2
        out = pdf.restrict(BoxRegion({pdf.attr: IntervalSet.less_than(mid)}))
        assert isinstance(out, FlooredPdf)
        assert 0.0 < out.mass() < 1.0

    def test_restrict_predicate_collapses_to_grid(self, pdf):
        region = PredicateRegion((pdf.attr,), lambda x: x > pdf.mean(), "x>mean")
        out = pdf.restrict(region)
        # Predicate regions are resolved at grid-cell centers, so the error
        # can be up to one cell's mass (largest for heavy-tailed supports).
        lo, hi = pdf.support()[pdf.attr]
        cell_width = (hi - lo) / GRID_RESOLUTION
        tolerance = float(pdf.pdf_at(pdf.mean())) * cell_width + 1e-6
        assert out.mass() == pytest.approx(
            1.0 - float(pdf.cdf(pdf.mean())), abs=tolerance
        )

    def test_prob_full_line(self, pdf):
        assert pdf.prob(BoxRegion({pdf.attr: IntervalSet.full()})) == pytest.approx(1.0)

    def test_prob_interval_additive(self, pdf):
        lo, hi = pdf.support()[pdf.attr]
        mid = (lo + hi) / 2
        left = pdf.prob_interval(IntervalSet.between(lo, mid))
        right = pdf.prob_interval(IntervalSet.between(mid, hi))
        total = pdf.prob_interval(IntervalSet.between(lo, hi))
        assert left + right == pytest.approx(total, abs=1e-9)

    def test_with_attrs(self, pdf):
        renamed = pdf.with_attrs(["temperature"])
        assert renamed.attrs == ("temperature",)
        assert type(renamed) is type(pdf)
        assert renamed.params == pdf.params

    def test_rename(self, pdf):
        renamed = pdf.rename({pdf.attr: "z"})
        assert renamed.attrs == ("z",)

    def test_marginalize_identity(self, pdf):
        assert pdf.marginalize([pdf.attr]) is pdf

    def test_marginalize_wrong_attr_raises(self, pdf):
        with pytest.raises(DimensionMismatchError):
            pdf.marginalize(["nope"])

    def test_density_wrong_attr_raises(self, pdf):
        with pytest.raises(DimensionMismatchError):
            pdf.density({"nope": 1.0})

    def test_sampling_matches_moments(self, pdf, rng):
        samples = pdf.sample(rng, 20_000)[pdf.attr]
        assert samples.mean() == pytest.approx(
            pdf.mean(), abs=0.1 * (1 + abs(pdf.mean())) + 5 * math.sqrt(pdf.variance() / 20_000)
        )

    def test_equality_and_hash(self, pdf):
        clone = pdf.with_attrs([pdf.attr])
        assert clone == pdf
        assert hash(clone) == hash(pdf)

    def test_inequality_on_params(self, pdf):
        other = pdf.with_attrs(["other"])
        assert other != pdf


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=-100, max_value=100),
    var=st.floats(min_value=0.01, max_value=100),
    lo=st.floats(min_value=-200, max_value=200),
    width=st.floats(min_value=0.0, max_value=100),
)
def test_gaussian_interval_prob_bounds(mean, var, lo, width):
    g = GaussianPdf(mean, var)
    p = g.prob_interval(IntervalSet.between(lo, lo + width))
    assert 0.0 <= p <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=-50, max_value=50),
    var=st.floats(min_value=0.01, max_value=50),
    cut=st.floats(min_value=-100, max_value=100),
)
def test_gaussian_split_is_exhaustive(mean, var, cut):
    g = GaussianPdf(mean, var)
    below = g.prob_interval(IntervalSet.less_than(cut))
    above = g.prob_interval(IntervalSet.greater_than(cut))
    assert below + above == pytest.approx(1.0, abs=1e-9)
