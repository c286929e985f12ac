"""Discrete distribution tests: explicit, categorical, and symbolic families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidDistributionError, PdfError
from repro.pdf.discrete import MAX_COUNT
from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    CategoricalPdf,
    DiscretePdf,
    GeometricPdf,
    IntervalSet,
    PoissonPdf,
    PredicateRegion,
    code_label,
    label_code,
)

from .. import mass_at


class TestDiscretePdf:
    def test_paper_notation(self):
        # Discrete(0: 0.1, 1: 0.9) from Section III-C.
        d = DiscretePdf({0: 0.1, 1: 0.9})
        assert d.mass() == pytest.approx(1.0)
        assert mass_at(d, 0) == pytest.approx(0.1)
        assert mass_at(d, 1) == pytest.approx(0.9)
        assert mass_at(d, 0.5) == 0.0

    def test_partial_pdf_allowed(self):
        d = DiscretePdf({4: 0.2, 7: 0.2})
        assert d.mass() == pytest.approx(0.4)

    def test_over_unit_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            DiscretePdf({0: 0.8, 1: 0.4})

    def test_negative_prob_rejected(self):
        with pytest.raises(InvalidDistributionError):
            DiscretePdf({0: -0.1, 1: 0.5})

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            DiscretePdf({})

    def test_values_sorted(self):
        d = DiscretePdf({5: 0.2, 1: 0.3, 3: 0.5})
        assert d.values.tolist() == [1, 3, 5]

    def test_cdf_steps(self):
        d = DiscretePdf({1: 0.25, 2: 0.5, 4: 0.25})
        assert float(d.cdf(0.5)) == 0.0
        assert float(d.cdf(1)) == pytest.approx(0.25)
        assert float(d.cdf(1.5)) == pytest.approx(0.25)
        assert float(d.cdf(2)) == pytest.approx(0.75)
        assert float(d.cdf(10)) == pytest.approx(1.0)

    def test_prob_interval_respects_openness(self):
        d = DiscretePdf({1: 0.25, 2: 0.5, 4: 0.25})
        closed = IntervalSet.between(1, 2)
        open_ = IntervalSet.between(1, 2, closed_lo=False, closed_hi=False)
        assert d.prob_interval(closed) == pytest.approx(0.75)
        assert d.prob_interval(open_) == 0.0

    def test_restrict_box(self):
        d = DiscretePdf({1: 0.25, 2: 0.5, 4: 0.25})
        out = d.restrict(BoxRegion({"x": IntervalSet.greater_than(1)}))
        assert out.mass() == pytest.approx(0.75)
        assert mass_at(out, 1) == 0.0

    def test_restrict_to_nothing_keeps_zero_mass(self):
        d = DiscretePdf({1: 1.0})
        out = d.restrict(BoxRegion({"x": IntervalSet.greater_than(10)}))
        assert out.mass() == 0.0

    def test_restrict_predicate(self):
        d = DiscretePdf({1: 0.25, 2: 0.5, 4: 0.25})
        out = d.restrict(PredicateRegion(("x",), lambda x: x % 2 == 0, "even"))
        assert out.mass() == pytest.approx(0.75)

    def test_moments(self):
        d = DiscretePdf({0: 0.5, 10: 0.5})
        assert d.mean() == pytest.approx(5.0)
        assert d.variance() == pytest.approx(25.0)

    def test_partial_moments_are_conditional(self):
        d = DiscretePdf({0: 0.25, 10: 0.25})
        assert d.mean() == pytest.approx(5.0)

    def test_sampling_only_support_values(self, rng):
        d = DiscretePdf({1: 0.5, 3: 0.5})
        samples = d.sample(rng, 500)["x"]
        assert set(np.unique(samples)) <= {1.0, 3.0}

    def test_sample_zero_mass_raises(self, rng):
        d = DiscretePdf({1: 1.0}).restrict(BoxRegion({"x": IntervalSet.greater_than(5)}))
        with pytest.raises(PdfError):
            d.sample(rng, 1)

    def test_to_grid_roundtrip(self):
        d = DiscretePdf({1: 0.3, 2: 0.7})
        grid = d.to_grid()
        assert grid.is_discrete
        assert grid.mass() == pytest.approx(1.0)
        assert mass_at(grid, {"x": 2}) == pytest.approx(0.7)

    def test_equality(self):
        assert DiscretePdf({1: 0.5, 2: 0.5}) == DiscretePdf({2: 0.5, 1: 0.5})
        assert DiscretePdf({1: 0.5, 2: 0.5}) != DiscretePdf({1: 0.4, 2: 0.6})


class TestCategoricalPdf:
    def test_label_roundtrip(self):
        c = CategoricalPdf({"cat": 0.7, "dog": 0.3}, attr="animal")
        assert mass_at(c, label_code("cat")) == pytest.approx(0.7)
        assert mass_at(c, label_code("fish")) == 0.0
        assert dict(c.label_items()) == pytest.approx({"cat": 0.7, "dog": 0.3})

    def test_codes_are_global(self):
        a = CategoricalPdf({"red": 0.5, "blue": 0.5})
        b = CategoricalPdf({"blue": 1.0})
        assert label_code("blue") in a.values
        assert b.values.tolist() == [label_code("blue")]

    def test_label_code_interning(self):
        code = label_code("some-unique-label-xyz")
        assert code_label(code) == "some-unique-label-xyz"
        assert label_code("some-unique-label-xyz") == code

    def test_code_label_unknown_raises(self):
        with pytest.raises(KeyError):
            code_label(10**9)

    def test_partial_categorical(self):
        c = CategoricalPdf({"person": 0.6, "place": 0.2})
        assert c.mass() == pytest.approx(0.8)

    def test_with_attrs_preserves_labels(self):
        c = CategoricalPdf({"x": 0.5, "y": 0.5}, attr="a")
        r = c.with_attrs(["b"])
        assert isinstance(r, CategoricalPdf)
        assert mass_at(r, label_code("x")) == pytest.approx(0.5)

    def test_restrict_by_code(self):
        c = CategoricalPdf({"cat": 0.7, "dog": 0.3})
        out = c.restrict(BoxRegion({"x": IntervalSet.point(label_code("dog"))}))
        assert out.mass() == pytest.approx(0.3)


SYMBOLIC = [
    BernoulliPdf(0.3),
    BinomialPdf(10, 0.4),
    PoissonPdf(3.5),
    GeometricPdf(0.25),
]


@pytest.mark.parametrize("pdf", SYMBOLIC, ids=lambda p: p.symbol)
class TestSymbolicDiscrete:
    def test_mass(self, pdf):
        assert pdf.mass() == 1.0

    def test_is_discrete(self, pdf):
        assert pdf.is_discrete

    def test_materialize_covers_mass(self, pdf):
        d = pdf.materialize()
        assert d.mass() == pytest.approx(1.0, abs=1e-9)

    def test_materialize_matches_pmf(self, pdf):
        d = pdf.materialize()
        for v in d.values[:10]:
            assert mass_at(d, v) == pytest.approx(pdf.prob_interval(IntervalSet.point(v)))

    def test_moments_match_materialized(self, pdf):
        d = pdf.materialize()
        assert d.mean() == pytest.approx(pdf.mean(), abs=1e-6)
        assert d.variance() == pytest.approx(pdf.variance(), abs=1e-4)

    def test_restrict_returns_discrete(self, pdf):
        out = pdf.restrict(BoxRegion({"x": IntervalSet.less_than(pdf.mean(), inclusive=True)}))
        assert isinstance(out, DiscretePdf)
        assert out.mass() == pytest.approx(float(pdf.cdf(pdf.mean())), abs=1e-9)

    def test_with_attrs(self, pdf):
        out = pdf.with_attrs(["k"])
        assert out.attrs == ("k",)
        assert out == type(pdf)(attr="k", **pdf.params)

    def test_sampling_integers(self, pdf, rng):
        samples = pdf.sample(rng, 200)["x"]
        assert np.allclose(samples, np.round(samples))

    def test_probability_of_the_support_is_exactly_one(self, pdf):
        assert pdf.prob_interval(IntervalSet.greater_than(0, inclusive=True)) == 1.0
        assert pdf.prob_interval(IntervalSet.full()) == 1.0
        # two pieces that hold every integer between them
        split = IntervalSet.less_than(0.5).union(IntervalSet.greater_than(0.5))
        assert pdf.prob_interval(split) == 1.0
        assert pdf.prob_interval(IntervalSet.less_than(0)) == 0.0

    def test_covering_region_leaves_the_pdf_unchanged(self, pdf):
        least = pdf.support()["x"][0]
        covering = (
            IntervalSet.greater_than(least - 0.5),
            IntervalSet.greater_than(least, inclusive=True),
        )
        for allowed in covering:
            assert pdf.restrict(BoxRegion({"x": allowed})) is pdf
        assert pdf.restrict(BoxRegion({"x": IntervalSet.greater_than(least)})) is not pdf

    def test_open_and_closed_endpoints(self, pdf):
        p0, p1 = float(pdf.cdf(0) - pdf.cdf(-1)), float(pdf.cdf(1) - pdf.cdf(0))
        assert pdf.prob_interval(IntervalSet.between(0, 1)) == pytest.approx(p0 + p1)
        assert pdf.prob_interval(IntervalSet.between(0, 1, closed_lo=False)) == pytest.approx(p1)
        assert pdf.prob_interval(IntervalSet.between(0, 1, closed_hi=False)) == pytest.approx(p0)
        assert pdf.prob_interval(IntervalSet.between(0, 1, False, False)) == 0.0
        assert pdf.prob_interval(IntervalSet.between(0.2, 0.8)) == 0.0


class TestSymbolicDiscreteValidation:
    def test_bernoulli_bounds(self):
        with pytest.raises(InvalidDistributionError):
            BernoulliPdf(1.5)

    def test_binomial_bounds(self):
        with pytest.raises(InvalidDistributionError):
            BinomialPdf(-1, 0.5)
        with pytest.raises(InvalidDistributionError):
            BinomialPdf(2.5, 0.5)

    def test_poisson_bounds(self):
        with pytest.raises(InvalidDistributionError):
            PoissonPdf(0)
        with pytest.raises(InvalidDistributionError):
            PoissonPdf(1e300)

    def test_geometric_bounds(self):
        with pytest.raises(InvalidDistributionError):
            GeometricPdf(0.0)

    def test_counts_are_bounded(self):
        BinomialPdf(MAX_COUNT, 0.5)
        PoissonPdf(MAX_COUNT)
        for bad in (MAX_COUNT + 1, 1e30, float("inf"), float("nan")):
            with pytest.raises(InvalidDistributionError):
                BinomialPdf(bad, 0.5)
            with pytest.raises(InvalidDistributionError):
                PoissonPdf(bad)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=-50, max_value=50).map(float),
        st.floats(min_value=0.001, max_value=1.0),
        min_size=1,
        max_size=8,
    ),
    cut=st.floats(min_value=-60, max_value=60),
)
def test_discrete_restrict_partition(pairs, cut):
    """Restricting below and above a cut partitions the mass exactly."""
    total = sum(pairs.values())
    pairs = {k: v / total for k, v in pairs.items()}
    d = DiscretePdf(pairs)
    below = d.restrict(BoxRegion({"x": IntervalSet.less_than(cut)}))
    above = d.restrict(BoxRegion({"x": IntervalSet.greater_than(cut, inclusive=True)}))
    assert below.mass() + above.mass() == pytest.approx(d.mass(), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=-20, max_value=20).map(float),
        st.floats(min_value=0.001, max_value=1.0),
        min_size=1,
        max_size=6,
    )
)
def test_discrete_cdf_limits(pairs):
    total = sum(pairs.values())
    pairs = {k: v / total for k, v in pairs.items()}
    d = DiscretePdf(pairs)
    assert float(d.cdf(-1000)) == 0.0
    assert float(d.cdf(1000)) == pytest.approx(1.0)
