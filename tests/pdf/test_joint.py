"""Joint distribution tests: grids, joint discrete, joint Gaussian, products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, InvalidDistributionError, PdfError
from repro.pdf import (
    BoxRegion,
    ContinuousAxis,
    DiscreteAxis,
    DiscretePdf,
    GaussianPdf,
    IntervalSet,
    JointDiscretePdf,
    JointGaussianPdf,
    JointGridPdf,
    PredicateRegion,
    ProductPdf,
    UniformPdf,
    as_joint_discrete,
    independent_product,
)

from .. import mass_at


class TestAxes:
    def test_continuous_axis_locate(self):
        ax = ContinuousAxis("x", [0, 1, 2, 3])
        idx, inside = ax.locate(np.array([0.5, 1.0, 3.0, -1.0, 3.5]))
        assert idx[:3].tolist() == [0, 1, 2]
        assert inside.tolist() == [True, True, True, False, False]

    def test_continuous_axis_refine(self):
        ax = ContinuousAxis("x", [0, 2])
        new, parent, frac = ax.refine([0.5, 1.0])
        assert new.edges.tolist() == [0, 0.5, 1.0, 2.0]
        assert parent.tolist() == [0, 0, 0]
        assert frac.tolist() == [0.25, 0.25, 0.5]

    def test_discrete_axis_locate(self):
        ax = DiscreteAxis("k", [1, 3, 5])
        idx, inside = ax.locate(np.array([1.0, 2.0, 5.0]))
        assert inside.tolist() == [True, False, True]

    def test_invalid_axes(self):
        with pytest.raises(InvalidDistributionError):
            ContinuousAxis("x", [1])
        with pytest.raises(InvalidDistributionError):
            DiscreteAxis("x", [2, 1])


class TestJointGrid:
    def make_2d(self):
        return JointGridPdf(
            (ContinuousAxis("x", [0, 1, 2]), DiscreteAxis("k", [0, 1])),
            np.array([[0.1, 0.2], [0.3, 0.4]]),
        )

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            JointGridPdf((ContinuousAxis("x", [0, 1, 2]),), np.array([1.0]))

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(DimensionMismatchError):
            JointGridPdf(
                (ContinuousAxis("x", [0, 1]), DiscreteAxis("x", [0])),
                np.array([[1.0]]),
            )

    def test_mass(self):
        assert self.make_2d().mass() == pytest.approx(1.0)

    def test_marginalize_orders_attrs(self):
        g = self.make_2d()
        marg = g.marginalize(["k"])
        assert marg.attrs == ("k",)
        assert marg.masses.tolist() == pytest.approx([0.4, 0.6])

    def test_marginalize_reorder(self):
        g = self.make_2d()
        swapped = g.marginalize(["k", "x"])
        assert swapped.attrs == ("k", "x")
        assert swapped.mass() == pytest.approx(1.0)
        cell = BoxRegion({"k": IntervalSet.point(0), "x": IntervalSet.between(0.25, 0.75)})
        assert swapped.prob(cell) == pytest.approx(g.prob(cell))

    def test_density_mixed(self):
        g = self.make_2d()
        # Half of the width-1 continuous cell, all of the discrete point.
        cell = BoxRegion({"x": IntervalSet.between(0.25, 0.75), "k": IntervalSet.point(1)})
        assert g.prob(cell) == pytest.approx(0.5 * 0.2)

    def test_prob_box_exact_via_refinement(self):
        g = JointGridPdf((ContinuousAxis("x", [0, 2]),), np.array([1.0]))
        p = g.prob(BoxRegion({"x": IntervalSet.between(0.25, 0.75)}))
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_restrict_box_exact(self):
        g = JointGridPdf((ContinuousAxis("x", [0, 2]),), np.array([1.0]))
        out = g.restrict(BoxRegion({"x": IntervalSet.between(0.5, 1.0)}))
        assert out.mass() == pytest.approx(0.25, abs=1e-12)

    def test_restrict_predicate(self):
        g = self.make_2d()
        out = g.restrict(PredicateRegion(("x", "k"), lambda x, k: x < k, "x<k"))
        # cells with center x=0.5 and k=1 pass: mass 0.2
        assert out.mass() == pytest.approx(0.2)

    def test_region_unknown_attr_raises(self):
        g = self.make_2d()
        with pytest.raises(DimensionMismatchError):
            g.prob(BoxRegion({"zzz": IntervalSet.full()}))

    def test_mean_variance(self):
        g = JointGridPdf((ContinuousAxis("x", [0, 2]),), np.array([1.0]))
        assert g.mean("x") == pytest.approx(1.0)
        assert g.variance("x") == pytest.approx(4 / 12)

    def test_sampling(self, rng):
        g = self.make_2d()
        samples = g.sample(rng, 400)
        assert set(samples) == {"x", "k"}
        assert samples["x"].min() >= 0 and samples["x"].max() <= 2
        assert set(np.unique(samples["k"])) <= {0.0, 1.0}

    def test_with_attrs(self):
        g = self.make_2d().with_attrs(["a", "b"])
        assert g.attrs == ("a", "b")


class TestJointDiscrete:
    def test_paper_example_table(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.06, (0, 2): 0.04, (1, 2): 0.36})
        assert j.mass() == pytest.approx(0.46)
        assert mass_at(j, {"a": 0, "b": 1}) == pytest.approx(0.06)
        assert mass_at(j, {"a": 1, "b": 1}) == 0.0

    def test_arity_checked(self):
        with pytest.raises(DimensionMismatchError):
            JointDiscretePdf(("a", "b"), {(1,): 0.5})

    def test_marginalize_to_univariate(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 1): 0.3, (1, 2): 0.2})
        marg = j.marginalize(["a"])
        assert isinstance(marg, DiscretePdf)
        assert mass_at(marg, 1) == pytest.approx(0.5)

    def test_marginalize_multi(self):
        j = JointDiscretePdf(
            ("a", "b", "c"), {(0, 1, 2): 0.5, (0, 1, 3): 0.25, (1, 1, 2): 0.25}
        )
        marg = j.marginalize(["c", "a"])
        assert marg.attrs == ("c", "a")
        assert mass_at(marg, {"c": 2, "a": 0}) == pytest.approx(0.5)

    def test_restrict_box(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 2): 0.5})
        out = j.restrict(BoxRegion({"b": IntervalSet.point(2)}))
        assert out.mass() == pytest.approx(0.5)

    def test_restrict_predicate(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (3, 2): 0.5})
        out = j.restrict(PredicateRegion(("a", "b"), lambda a, b: a < b, "a<b"))
        assert out.mass() == pytest.approx(0.5)

    def test_restrict_everything_keeps_zero_entry(self):
        j = JointDiscretePdf(("a",), {(0,): 1.0})
        out = j.restrict(BoxRegion({"a": IntervalSet.point(5)}))
        assert out.mass() == 0.0

    def test_to_grid_roundtrip(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 2): 0.3})
        grid = j.to_grid()
        assert grid.is_discrete
        back = as_joint_discrete(grid)
        assert back == j.with_attrs(back.attrs)

    def test_merging_duplicate_keys(self):
        j = JointDiscretePdf(("a",), {(1.0,): 0.25})
        k = JointDiscretePdf(("a",), {(1,): 0.25})
        assert j == k

    def test_sampling(self, rng):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 2): 0.5})
        s = j.sample(rng, 100)
        assert np.all((s["a"] == 0) | (s["a"] == 1))
        # b is deterministic given a in this table
        assert np.all(s["b"] == s["a"] + 1)


class TestJointGaussian:
    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            JointGaussianPdf(("x", "y"), [0], [[1, 0], [0, 1]])
        with pytest.raises(InvalidDistributionError):
            JointGaussianPdf(("x", "y"), [0, 0], [[1, 2], [2, 1]])  # not PD

    def test_ragged_covariance_is_a_shape_error(self):
        with pytest.raises(DimensionMismatchError):
            JointGaussianPdf(("x", "y"), [0, 0], [[1, 0.5], [0, 0.5, 1]])

    def test_marginalize_exact(self):
        jg = JointGaussianPdf(("x", "y"), [1, 2], [[4, 1], [1, 9]])
        mx = jg.marginalize(["x"])
        assert isinstance(mx, GaussianPdf)
        assert mx.mean() == pytest.approx(1.0)
        assert mx.variance() == pytest.approx(4.0)

    def test_marginalize_joint_subset(self):
        jg = JointGaussianPdf(
            ("x", "y", "z"),
            [0, 0, 0],
            [[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]],
        )
        sub = jg.marginalize(["y", "x"])
        assert isinstance(sub, JointGaussianPdf)
        assert sub.attrs == ("y", "x")
        assert sub.cov[0, 1] == pytest.approx(0.5)

    def test_quadrant_probability(self):
        # P(X<0, Y<0) for standard bivariate normal with rho:
        # 1/4 + arcsin(rho) / (2 pi)
        rho = 0.5
        jg = JointGaussianPdf(("x", "y"), [0, 0], [[1, rho], [rho, 1]])
        p = jg.prob(
            BoxRegion({"x": IntervalSet.less_than(0), "y": IntervalSet.less_than(0)})
        )
        assert p == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-6)

    def test_grid_mass_normalised(self):
        jg = JointGaussianPdf(("x", "y"), [0, 0], [[1, 0.9], [0.9, 1]])
        assert jg.to_grid().mass() == pytest.approx(1.0, abs=1e-9)

    def test_restrict_returns_grid(self):
        jg = JointGaussianPdf(("x", "y"), [0, 0], [[1, 0], [0, 1]])
        out = jg.restrict(PredicateRegion(("x", "y"), lambda x, y: x < y, "x<y"))
        assert isinstance(out, JointGridPdf)
        # Predicate regions are resolved at cell centers; the diagonal band
        # (one cell wide) is the worst case for x < y on an aligned grid.
        assert out.mass() == pytest.approx(0.5, abs=0.03)

    def test_sampling_covariance(self, rng):
        jg = JointGaussianPdf(("x", "y"), [0, 0], [[1, 0.8], [0.8, 1]])
        s = jg.sample(rng, 20_000)
        assert np.corrcoef(s["x"], s["y"])[0, 1] == pytest.approx(0.8, abs=0.03)


class TestProductPdf:
    def test_disjoint_attrs_enforced(self):
        with pytest.raises(DimensionMismatchError):
            ProductPdf([GaussianPdf(0, 1, attr="x"), UniformPdf(0, 1, attr="x")])

    def test_mass_multiplies(self):
        p = ProductPdf(
            [DiscretePdf({1: 0.5}, attr="a"), DiscretePdf({2: 0.8}, attr="b")]
        )
        assert p.mass() == pytest.approx(0.4)

    def test_flattens_nested(self):
        inner = ProductPdf([GaussianPdf(0, 1, attr="x")], weight=0.5)
        outer = ProductPdf([inner, UniformPdf(0, 1, attr="y")], weight=0.8)
        assert len(outer.factors) == 2
        assert outer.weight == pytest.approx(0.4)

    def test_box_prob_factorizes(self):
        p = ProductPdf([GaussianPdf(0, 1, attr="x"), UniformPdf(0, 10, attr="y")])
        box = BoxRegion(
            {"x": IntervalSet.less_than(0), "y": IntervalSet.between(0, 5)}
        )
        assert p.prob(box) == pytest.approx(0.25)

    def test_restrict_box_pushes_down(self):
        p = ProductPdf([GaussianPdf(0, 1, attr="x"), UniformPdf(0, 10, attr="y")])
        out = p.restrict(BoxRegion({"x": IntervalSet.less_than(0)}))
        assert isinstance(out, ProductPdf)
        assert out.mass() == pytest.approx(0.5)

    def test_marginalize_drops_factor_into_weight(self):
        p = ProductPdf(
            [DiscretePdf({1: 0.5}, attr="a"), GaussianPdf(0, 1, attr="x")]
        )
        out = p.marginalize(["x"])
        assert out.mass() == pytest.approx(0.5)
        assert set(out.attrs) == {"x"}

    def test_density_product(self):
        p = ProductPdf([UniformPdf(0, 2, attr="x"), UniformPdf(0, 4, attr="y")])
        cell = BoxRegion({"x": IntervalSet.between(1, 1.5), "y": IntervalSet.between(1, 2)})
        assert p.prob(cell) == pytest.approx((0.5 * 0.5) * (0.25 * 1))

    def test_to_grid_outer_product(self):
        p = ProductPdf(
            [DiscretePdf({0: 0.5, 1: 0.5}, attr="a"), DiscretePdf({0: 1.0}, attr="b")]
        )
        grid = p.to_grid()
        assert grid.mass() == pytest.approx(1.0)
        assert grid.attrs == ("a", "b")

    def test_sampling_merges_factors(self, rng):
        p = ProductPdf([GaussianPdf(0, 1, attr="x"), UniformPdf(5, 6, attr="y")])
        s = p.sample(rng, 100)
        assert set(s) == {"x", "y"}
        assert np.all((s["y"] >= 5) & (s["y"] <= 6))


class TestIndependentProduct:
    def test_discrete_inputs_give_exact_joint(self):
        a = DiscretePdf({0: 0.1, 1: 0.9}, attr="a")
        b = DiscretePdf({1: 0.6, 2: 0.4}, attr="b")
        j = independent_product(a, b)
        assert isinstance(j, JointDiscretePdf)
        assert mass_at(j, {"a": 1, "b": 2}) == pytest.approx(0.36)

    def test_mixed_inputs_stay_lazy(self):
        j = independent_product(
            GaussianPdf(0, 1, attr="x"), DiscretePdf({1: 1.0}, attr="k")
        )
        assert isinstance(j, ProductPdf)

    def test_single_input_passthrough(self):
        g = GaussianPdf(0, 1)
        assert independent_product(g) is g

    def test_zero_inputs_rejected(self):
        with pytest.raises(PdfError):
            independent_product()


class TestAsJointDiscrete:
    def test_univariate(self):
        d = DiscretePdf({1: 0.5, 2: 0.5}, attr="a")
        j = as_joint_discrete(d)
        assert j.attrs == ("a",)

    def test_symbolic_discrete(self):
        from repro.pdf import BernoulliPdf

        j = as_joint_discrete(BernoulliPdf(0.3, attr="flag"))
        assert mass_at(j, {"flag": 1}) == pytest.approx(0.3)

    def test_continuous_returns_none(self):
        assert as_joint_discrete(GaussianPdf(0, 1)) is None

    def test_product_of_discretes(self):
        p = ProductPdf(
            [DiscretePdf({0: 0.5, 1: 0.5}, attr="a"), DiscretePdf({7: 0.5}, attr="b")],
        )
        j = as_joint_discrete(p)
        assert j is not None
        assert j.mass() == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(
    table=st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
        ),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=8,
    )
)
def test_joint_discrete_marginal_consistency(table):
    total = sum(table.values())
    table = {k: v / total for k, v in table.items()}
    j = JointDiscretePdf(("a", "b"), table)
    ma = j.marginalize(["a"])
    mb = j.marginalize(["b"])
    assert ma.mass() == pytest.approx(j.mass(), abs=1e-9)
    assert mb.mass() == pytest.approx(j.mass(), abs=1e-9)
    # Marginal of a equals direct sum over b.
    for a_val in {k[0] for k in table}:
        direct = sum(p for (x, _), p in table.items() if x == a_val)
        assert mass_at(ma, a_val) == pytest.approx(direct, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(min_value=-5, max_value=5),
    width=st.floats(min_value=0.1, max_value=5),
)
def test_grid_refinement_preserves_mass(lo, width):
    g = GaussianPdf(0, 4).to_grid()
    window = BoxRegion({"x": IntervalSet.between(lo, lo + width)})
    inside = g.restrict(window).mass()
    outside = g.restrict(window.complement()).mass()
    assert inside + outside == pytest.approx(g.mass(), abs=1e-9)
