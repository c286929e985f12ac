"""Arithmetic tests: convolutions, aggregate sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PdfError, UnsupportedOperationError
from repro.pdf import (
    BernoulliPdf,
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    UniformPdf,
    convolve_discrete,
    convolve_histograms,
    sum_independent,
)


class TestConvolveDiscrete:
    def test_two_dice(self):
        die = DiscretePdf({v: 1 / 6 for v in range(1, 7)})
        total = convolve_discrete([die, die])
        assert float(total.pdf_at(2)) == pytest.approx(1 / 36)
        assert float(total.pdf_at(7)) == pytest.approx(6 / 36)
        assert total.mass() == pytest.approx(1.0)

    def test_support_blowup(self):
        """The exponential growth the paper warns about (Section I)."""
        parts = [DiscretePdf({0: 0.5, 10**i: 0.5}) for i in range(4)]
        total = convolve_discrete(parts)
        assert len(total.values) == 2**4

    def test_partial_mass_multiplies(self):
        a = DiscretePdf({0: 0.5})
        b = DiscretePdf({1: 0.5})
        assert convolve_discrete([a, b]).mass() == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(PdfError):
            convolve_discrete([])


class TestConvolveHistograms:
    def test_uniform_sum_is_triangular(self):
        u = UniformPdf(0, 1)
        total = convolve_histograms([u, u], bins=64)
        assert total.mass() == pytest.approx(1.0, abs=1e-6)
        assert total.mean() == pytest.approx(1.0, abs=0.02)
        # Triangular peak at 1.
        assert float(total.pdf_at(1.0)) > float(total.pdf_at(0.2))

    def test_gaussian_sum_matches_closed_form(self):
        a, b = GaussianPdf(1, 1), GaussianPdf(2, 3)
        total = convolve_histograms([a, b], bins=128)
        # Grid convolution carries half-cell bias from tail clipping.
        assert total.mean() == pytest.approx(3.0, abs=0.15)
        assert total.variance() == pytest.approx(4.0, rel=0.1)


class TestSumIndependent:
    def test_gaussians_closed_form(self):
        out = sum_independent([GaussianPdf(1, 2), GaussianPdf(3, 4)])
        assert isinstance(out, GaussianPdf)
        assert out.mean() == pytest.approx(4.0)
        assert out.variance() == pytest.approx(6.0)

    def test_exact_discrete(self):
        out = sum_independent(
            [DiscretePdf({0: 0.5, 1: 0.5}), DiscretePdf({0: 0.5, 1: 0.5})],
            method="exact",
        )
        assert float(out.pdf_at(1)) == pytest.approx(0.5)

    def test_auto_falls_back_to_gaussian_on_blowup(self):
        # 2^18 distinct sums exceed the auto method's exact-support budget.
        parts = [DiscretePdf({0: 0.5, 3.0**i: 0.5}) for i in range(18)]
        out = sum_independent(parts, method="auto")
        assert isinstance(out, GaussianPdf)

    def test_auto_exact_when_small(self):
        parts = [BernoulliPdf(0.5), BernoulliPdf(0.5)]
        out = sum_independent(parts, method="auto")
        assert isinstance(out, DiscretePdf)
        assert float(out.pdf_at(1)) == pytest.approx(0.5)

    def test_histogram_method(self):
        out = sum_independent(
            [UniformPdf(0, 1), UniformPdf(0, 1)], method="histogram"
        )
        assert isinstance(out, HistogramPdf)

    def test_exact_rejects_continuous(self):
        with pytest.raises(UnsupportedOperationError):
            sum_independent([GaussianPdf(0, 1)], method="exact") if False else (
                sum_independent([GaussianPdf(0, 1), GaussianPdf(0, 1)], method="exact")
            )

    def test_single_input_renamed(self):
        out = sum_independent([GaussianPdf(0, 1, attr="v")])
        assert out.attrs == ("sum",)

    def test_unknown_method(self):
        with pytest.raises(PdfError):
            sum_independent([GaussianPdf(0, 1), GaussianPdf(0, 1)], method="nope")

    def test_empty_rejected(self):
        with pytest.raises(PdfError):
            sum_independent([])


@settings(max_examples=40, deadline=None)
@given(
    probs=st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6)
)
def test_bernoulli_sum_mean_matches(probs):
    """Sum of Bernoullis: exact convolution mean == sum of p."""
    parts = [BernoulliPdf(p) for p in probs]
    out = sum_independent(parts, method="exact")
    assert out.mean() == pytest.approx(sum(probs), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    means=st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=5),
    variances=st.lists(st.floats(min_value=0.1, max_value=10), min_size=2, max_size=5),
)
def test_gaussian_sum_moments(means, variances):
    n = min(len(means), len(variances))
    parts = [GaussianPdf(m, v) for m, v in zip(means[:n], variances[:n])]
    out = sum_independent(parts)
    assert out.mean() == pytest.approx(sum(m for m, _ in zip(means, range(n))))
    assert out.variance() == pytest.approx(sum(v for v, _ in zip(variances, range(n))))
