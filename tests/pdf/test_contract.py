"""The Pdf contract, enforced uniformly across every concrete representation.

One parametrized matrix: each invariant below must hold for every pdf kind
the model can ever hold — symbolic, generic, floored, joint, lazy product.
These are the invariants the relational operators silently rely on.
"""

import numpy as np
import pytest

from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    CategoricalPdf,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    IntervalSet,
    JointDiscretePdf,
    JointGaussianPdf,
    PoissonPdf,
    PredicateRegion,
    ProductPdf,
    TriangularPdf,
    UniformPdf,
)


def _floored_gaussian():
    return FlooredPdf(GaussianPdf(5, 2, attr="x"), IntervalSet.between(3, 6))


ALL_PDFS = [
    pytest.param(GaussianPdf(10, 4, attr="x"), id="gaussian"),
    pytest.param(UniformPdf(0, 10, attr="x"), id="uniform"),
    pytest.param(TriangularPdf(0, 2, 9, attr="x"), id="triangular"),
    pytest.param(BernoulliPdf(0.4, attr="x"), id="bernoulli"),
    pytest.param(BinomialPdf(8, 0.3, attr="x"), id="binomial"),
    pytest.param(PoissonPdf(2.5, attr="x"), id="poisson"),
    pytest.param(GeometricPdf(0.4, attr="x"), id="geometric"),
    pytest.param(DiscretePdf({1: 0.2, 3: 0.5, 7: 0.3}, attr="x"), id="discrete"),
    pytest.param(DiscretePdf({1: 0.3, 2: 0.3}, attr="x"), id="discrete-partial"),
    pytest.param(CategoricalPdf({"u": 0.5, "v": 0.5}, attr="x"), id="categorical"),
    pytest.param(HistogramPdf([0, 2, 5, 9], [0.25, 0.5, 0.25], attr="x"), id="histogram"),
    pytest.param(HistogramPdf([0, 4], [0.7], attr="x"), id="histogram-partial"),
    pytest.param(_floored_gaussian(), id="floored"),
    pytest.param(GaussianPdf(0, 1, attr="x").to_grid(), id="grid-1d"),
    pytest.param(
        JointDiscretePdf(("x", "y"), {(0, 1): 0.4, (1, 0): 0.3, (1, 1): 0.3}),
        id="joint-discrete",
    ),
    pytest.param(
        JointGaussianPdf(("x", "y"), [1, 2], [[1, 0.4], [0.4, 2]]), id="joint-gaussian"
    ),
    pytest.param(
        ProductPdf([GaussianPdf(0, 1, attr="x"), DiscretePdf({1: 0.5, 2: 0.5}, attr="y")]),
        id="product",
    ),
    pytest.param(
        JointGaussianPdf(("x", "y"), [0, 0], [[1, 0.5], [0.5, 1]]).to_grid(),
        id="grid-2d",
    ),
]


@pytest.mark.parametrize("pdf", ALL_PDFS)
class TestPdfContract:
    def test_mass_in_unit_interval(self, pdf):
        assert 0.0 <= pdf.mass() <= 1.0 + 1e-9

    def test_arity_matches_attrs(self, pdf):
        assert pdf.arity == len(pdf.attrs)
        assert len(set(pdf.attrs)) == pdf.arity

    def test_density_nonnegative(self, pdf):
        """No slab of the support hull and no grid cell carries negative mass."""
        attr = pdf.attrs[0]
        edges = np.linspace(*pdf.support()[attr], 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            assert pdf.prob(BoxRegion({attr: IntervalSet.between(lo, hi)})) >= 0.0
        assert np.all(pdf.to_grid().masses >= 0.0)

    def test_prob_of_full_box_is_mass(self, pdf):
        region = BoxRegion({a: IntervalSet.full() for a in pdf.attrs})
        assert pdf.prob(region) == pytest.approx(pdf.mass(), abs=1e-6)

    def test_prob_of_empty_box_is_zero(self, pdf):
        region = BoxRegion({pdf.attrs[0]: IntervalSet.empty()})
        assert pdf.prob(region) == pytest.approx(0.0, abs=1e-12)

    def test_restrict_never_increases_mass(self, pdf):
        attr = pdf.attrs[0]
        lo, hi = pdf.support()[attr]
        cut = (lo + hi) / 2
        restricted = pdf.restrict(BoxRegion({attr: IntervalSet.less_than(cut, inclusive=True)}))
        assert restricted.mass() <= pdf.mass() + 1e-9

    def test_restrict_split_partitions_mass(self, pdf):
        attr = pdf.attrs[0]
        lo, hi = pdf.support()[attr]
        cut = (lo + hi) / 2
        below = pdf.restrict(BoxRegion({attr: IntervalSet.less_than(cut, inclusive=True)}))
        above = pdf.restrict(BoxRegion({attr: IntervalSet.greater_than(cut)}))
        assert below.mass() + above.mass() == pytest.approx(pdf.mass(), abs=1e-6)

    def test_floor_composition_is_intersection(self, pdf):
        """Theorem 1's microfoundation: floors compose in any order."""
        attr = pdf.attrs[0]
        lo, hi = pdf.support()[attr]
        a = IntervalSet.between(lo, lo + 0.7 * (hi - lo))
        b = IntervalSet.between(lo + 0.3 * (hi - lo), hi)
        seq = pdf.restrict(BoxRegion({attr: a})).restrict(BoxRegion({attr: b}))
        swapped = pdf.restrict(BoxRegion({attr: b})).restrict(BoxRegion({attr: a}))
        direct = pdf.restrict(BoxRegion({attr: a.intersect(b)}))
        assert seq.mass() == pytest.approx(direct.mass(), abs=1e-6)
        assert swapped.mass() == pytest.approx(direct.mass(), abs=1e-6)

    def test_marginalize_each_attr_preserves_mass(self, pdf):
        for attr in pdf.attrs:
            marg = pdf.marginalize([attr])
            assert marg.mass() == pytest.approx(pdf.mass(), abs=1e-6)
            assert marg.attrs == (attr,)

    def test_with_attrs_roundtrip(self, pdf):
        fresh = [f"n{i}" for i in range(pdf.arity)]
        renamed = pdf.with_attrs(fresh)
        assert renamed.attrs == tuple(fresh)
        back = renamed.with_attrs(list(pdf.attrs))
        assert back.attrs == pdf.attrs
        assert back.mass() == pytest.approx(pdf.mass(), abs=1e-12)

    def test_to_grid_preserves_mass(self, pdf):
        assert pdf.to_grid().mass() == pytest.approx(pdf.mass(), abs=1e-5)

    def test_grid_marginal_mean_consistent(self, pdf):
        grid = pdf.to_grid()
        for attr in pdf.attrs:
            direct = grid.mean(attr)
            via_marginal = grid.marginalize([attr]).mean(attr)
            assert direct == pytest.approx(via_marginal, abs=1e-9)

    def test_sampling_within_support(self, pdf, rng):
        if pdf.mass() < 1e-6:
            pytest.skip("zero-mass pdf")
        samples = pdf.sample(rng, 200)
        support = pdf.support()
        for attr in pdf.attrs:
            lo, hi = support[attr]
            span = max(hi - lo, 1.0)
            assert samples[attr].min() >= lo - 0.01 * span
            assert samples[attr].max() <= hi + 0.01 * span

    def test_support_hull_contains_nearly_all_mass(self, pdf):
        region = BoxRegion(
            {a: IntervalSet.between(lo, hi) for a, (lo, hi) in pdf.support().items()}
        )
        assert pdf.prob(region) >= pdf.mass() - 1e-4


def _regions(pdf):
    """A box, a union of boxes, an open box and a predicate over the first attribute."""
    attr = pdf.attrs[0]
    lo, hi = pdf.support()[attr]
    q1, mid = lo + 0.25 * (hi - lo), (lo + hi) / 2
    return [
        BoxRegion({attr: IntervalSet.between(lo, mid)}),
        BoxRegion({attr: IntervalSet.less_than(q1).union(IntervalSet.greater_than(mid))}),
        BoxRegion({attr: IntervalSet.between(q1, mid, closed_lo=False, closed_hi=False)}),
        PredicateRegion(pdf.attrs, lambda first, *rest: first > mid, f"{attr} > {mid}"),
    ]


@pytest.mark.parametrize("pdf", [p for p in ALL_PDFS if p.id != "joint-gaussian"])
def test_prob_is_the_mass_of_the_floor(pdf):
    """One spelling of Pr(region): ``prob`` is ``restrict(region).mass()``, bit for bit.

    ``JointGaussianPdf`` alone answers a box with its exact multivariate cdf.
    """
    for region in _regions(pdf):
        assert pdf.prob(region) == pdf.restrict(region).mass()
