"""Mixture tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PdfError
from repro.pdf import (
    BernoulliPdf,
    BoxRegion,
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    mixture,
)

from .. import mass_at


class TestMixture:
    def test_discrete_exact(self):
        a = DiscretePdf({0: 1.0})
        b = DiscretePdf({1: 1.0})
        m = mixture([a, b], [0.3, 0.7])
        assert mass_at(m, 0) == pytest.approx(0.3)
        assert mass_at(m, 1) == pytest.approx(0.7)

    def test_partial_weights_give_partial_pdf(self):
        m = mixture([DiscretePdf({0: 1.0})], [0.6])
        assert m.mass() == pytest.approx(0.6)

    def test_continuous_mixture_moments(self):
        m = mixture([GaussianPdf(0, 1), GaussianPdf(10, 1)], [0.5, 0.5], bins=256)
        assert isinstance(m, HistogramPdf)
        assert m.mass() == pytest.approx(1.0, abs=1e-6)
        assert m.mean() == pytest.approx(5.0, abs=0.1)

    def test_mixture_is_bimodal(self):
        m = mixture([GaussianPdf(0, 1), GaussianPdf(10, 1)], [0.5, 0.5], bins=256)
        def near(x):
            return m.prob(BoxRegion({m.attr: IntervalSet.between(x - 0.5, x + 0.5)}))

        assert near(0) > near(5)
        assert near(10) > near(5)

    def test_symbolic_discrete_inputs(self):
        m = mixture([BernoulliPdf(0.5), DiscretePdf({5: 1.0})], [0.5, 0.5])
        assert mass_at(m, 5) == pytest.approx(0.5)
        assert mass_at(m, 1) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(PdfError):
            mixture([], [])
        with pytest.raises(PdfError):
            mixture([DiscretePdf({0: 1.0})], [0.5, 0.5])
        with pytest.raises(PdfError):
            mixture([DiscretePdf({0: 1.0})], [-0.5])
        with pytest.raises(PdfError):
            mixture([DiscretePdf({0: 1.0}), DiscretePdf({1: 1.0})], [0.8, 0.8])


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    m1=st.floats(min_value=-10, max_value=10),
    m2=st.floats(min_value=-10, max_value=10),
)
def test_mixture_mean_is_convex_combination(w, m1, m2):
    mix = mixture([GaussianPdf(m1, 1), GaussianPdf(m2, 1)], [w, 1 - w], bins=512)
    expected = w * m1 + (1 - w) * m2
    if mix.mass() > 1e-9:
        assert mix.mean() == pytest.approx(expected, abs=0.2)
