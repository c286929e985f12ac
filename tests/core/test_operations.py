"""Tests for the pdf primitives: marginalize, floor_out, product, support_region."""

import numpy as np
import pytest

from repro.core import HistoryStore, ModelConfig
from repro.core.history import AncestorRef, fresh_lineage, rename_lineage
from repro.core.operations import cached_marginalize, product, support_region
from repro.errors import HistoryError
from repro.pdf import (
    BoxRegion,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    JointDiscretePdf,
    JointGridPdf,
    PredicateRegion,
    ProductPdf,
)


class TestPrimitiveWrappers:
    def test_marginalize(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 1): 0.5})
        assert j.marginalize(["a"]).attrs == ("a",)
        assert cached_marginalize(j, ["a"]).attrs == ("a",)

    def test_floor_removes_region(self):
        g = GaussianPdf(0, 1)
        out = g.floor_out(BoxRegion({"x": IntervalSet.greater_than(0)}))
        assert out.mass() == pytest.approx(0.5)
        assert float(out.pdf_at(1.0)) == 0.0


class TestSupportRegion:
    def test_full_support_continuous(self):
        assert support_region(GaussianPdf(0, 1)) is None

    def test_floored_gives_box(self):
        g = GaussianPdf(0, 1).restrict(BoxRegion({"x": IntervalSet.less_than(0)}))
        region = support_region(g)
        assert isinstance(region, BoxRegion)
        assert not region.contains_point({"x": 1.0})
        assert region.contains_point({"x": -1.0})

    def test_discrete_points(self):
        d = DiscretePdf({1: 0.5, 3: 0.5}, attr="v")
        region = support_region(d)
        assert region.contains_point({"v": 1.0})
        assert not region.contains_point({"v": 2.0})

    def test_discrete_zero_prob_value_excluded(self):
        d = DiscretePdf({1: 0.0, 3: 1.0}, attr="v")
        region = support_region(d)
        assert not region.contains_point({"v": 1.0})

    def test_histogram_gaps(self):
        h = HistogramPdf([0, 1, 2, 3], [0.5, 0.0, 0.5], attr="v")
        region = support_region(h)
        assert region.contains_point({"v": 0.5})
        assert not region.contains_point({"v": 1.5})

    def test_histogram_all_positive_is_none(self):
        h = HistogramPdf([0, 1, 2], [0.5, 0.5], attr="v")
        assert support_region(h) is None

    def test_joint_discrete_membership(self):
        j = JointDiscretePdf(("a", "b"), {(0, 1): 0.5, (1, 2): 0.5})
        region = support_region(j)
        assert region.contains_point({"a": 0, "b": 1})
        assert not region.contains_point({"a": 0, "b": 2})

    def test_product_combines_factors(self):
        p = ProductPdf(
            [
                DiscretePdf({1: 1.0}, attr="a"),
                GaussianPdf(0, 1, attr="x"),
            ]
        )
        region = support_region(p)
        assert isinstance(region, BoxRegion)
        assert region.contains_point({"a": 1.0, "x": 5.0})
        assert not region.contains_point({"a": 2.0, "x": 5.0})


def _store_with(*pdfs):
    """Register each pdf as a separate base tuple; return store + lineages."""
    store = HistoryStore()
    lineages = []
    for pdf in pdfs:
        tid = store.new_tuple_id()
        ref = store.register_base(tid, pdf)
        lin = fresh_lineage(ref)
        store.acquire(lin)
        lineages.append(lin)
    return store, lineages


class TestIndependentProduct:
    def test_two_discrete(self):
        a = DiscretePdf({0: 0.1, 1: 0.9}, attr="a")
        b = DiscretePdf({1: 0.6, 2: 0.4}, attr="b")
        store, (la, lb) = _store_with(a, b)
        joint, lineage = product([(a, la), (b, lb)], store)
        assert isinstance(joint, JointDiscretePdf)
        assert float(joint.density({"a": 1, "b": 2})) == pytest.approx(0.36)
        assert lineage == la | lb

    def test_single_input_passthrough(self):
        a = DiscretePdf({0: 1.0}, attr="a")
        store, (la,) = _store_with(a)
        joint, lineage = product([(a, la)], store)
        assert joint is a

    def test_attr_collision_rejected(self):
        a = DiscretePdf({0: 1.0}, attr="a")
        store, (la,) = _store_with(a)
        with pytest.raises(HistoryError):
            product([(a, la), (a, la)], store)

    def test_empty_rejected(self):
        with pytest.raises(HistoryError):
            product([], HistoryStore())


class TestDependentProduct:
    def _figure3_setup(self):
        """One joint base pdf (a, b); derive floored marginals of a and b."""
        base = JointDiscretePdf(("a", "b"), {(4, 5): 0.9, (2, 3): 0.1})
        store = HistoryStore()
        tid = store.new_tuple_id()
        ref = store.register_base(tid, base)
        lin = fresh_lineage(ref)
        store.acquire(lin)
        fa = base.marginalize(["a"])  # Discrete(2:0.1, 4:0.9)
        fb = base.marginalize(["b"]).restrict(
            BoxRegion({"b": IntervalSet.greater_than(4)})
        )  # Discrete(5:0.9)
        return store, fa, fb, lin

    def test_reconstructs_joint_from_ancestor(self):
        store, fa, fb, lin = self._figure3_setup()
        joint, lineage = product([(fa, lin), (fb, lin)], store)
        assert float(joint.density({"a": 4, "b": 5})) == pytest.approx(0.9)
        # (2, 3) was floored away via fb's zero set.
        assert float(joint.density({"a": 2, "b": 3})) == 0.0
        assert joint.mass() == pytest.approx(0.9)

    def test_without_history_config_multiplies_marginals(self):
        store, fa, fb, lin = self._figure3_setup()
        config = ModelConfig(use_history=False)
        joint, _ = product([(fa, lin), (fb, lin)], store, config)
        # Wrong by design: 0.9 * 0.9 = 0.81.
        assert float(joint.density({"a": 4, "b": 5})) == pytest.approx(0.81)

    def test_partially_shared_ancestors(self):
        """One shared ancestor plus one private: D_i and C_j both non-empty."""
        shared = JointDiscretePdf(("a", "b"), {(0, 0): 0.5, (1, 1): 0.5})
        private = DiscretePdf({7: 1.0}, attr="c")
        store = HistoryStore()
        t1 = store.new_tuple_id()
        ref = store.register_base(t1, shared)
        lin_shared = fresh_lineage(ref)
        store.acquire(lin_shared)
        t2 = store.new_tuple_id()
        ref2 = store.register_base(t2, private)
        lin_c = fresh_lineage(ref2)
        store.acquire(lin_c)

        fa = shared.marginalize(["a"])
        # Input 1: joint over (a, c) built independently.
        joint_ac, lin_ac = product([(fa, lin_shared), (private, lin_c)], store)
        fb = shared.marginalize(["b"])
        # Input 2 shares the (a, b) ancestor with input 1 through a.
        final, lineage = product([(joint_ac, lin_ac), (fb, lin_shared)], store)
        # a and b must be perfectly correlated (from the ancestor).
        assert float(final.density({"a": 0, "b": 0, "c": 7})) == pytest.approx(0.5)
        assert float(final.density({"a": 0, "b": 1, "c": 7})) == 0.0
        assert lineage == lin_shared | lin_c

    def test_floors_propagate_from_both_inputs(self):
        base = JointDiscretePdf(("a", "b"), {(i, j): 0.25 for i in (0, 1) for j in (0, 1)})
        store = HistoryStore()
        ref = store.register_base(store.new_tuple_id(), base)
        lin = fresh_lineage(ref)
        store.acquire(lin)
        fa = base.marginalize(["a"]).restrict(BoxRegion({"a": IntervalSet.point(0)}))
        fb = base.marginalize(["b"]).restrict(BoxRegion({"b": IntervalSet.point(1)}))
        joint, _ = product([(fa, lin), (fb, lin)], store)
        assert joint.mass() == pytest.approx(0.25)
        assert float(joint.density({"a": 0, "b": 1})) == pytest.approx(0.25)

    def test_diagonal_aliasing(self):
        """Same base attr under two names: exact diagonal for discrete."""
        base = DiscretePdf({1: 0.5, 2: 0.5}, attr="v")
        store = HistoryStore()
        ref = store.register_base(store.new_tuple_id(), base)
        lin = fresh_lineage(ref)
        store.acquire(lin)
        left = base.with_attrs(["l.v"])
        right = base.with_attrs(["r.v"])
        lin_l = rename_lineage(lin, {"v": "l.v"})
        lin_r = rename_lineage(lin, {"v": "r.v"})
        joint, _ = product([(left, lin_l), (right, lin_r)], store)
        assert float(joint.density({"l.v": 1, "r.v": 1})) == pytest.approx(0.5)
        assert float(joint.density({"l.v": 1, "r.v": 2})) == 0.0

    def test_continuous_dependent_product_keeps_floors(self):
        base = GaussianPdf(0, 1, attr="v")
        store = HistoryStore()
        ref = store.register_base(store.new_tuple_id(), base)
        lin = fresh_lineage(ref)
        store.acquire(lin)
        # Two floored versions of the same Gaussian, joined with a fresh attr.
        floored = base.restrict(BoxRegion({"v": IntervalSet.less_than(0)}))
        other = DiscretePdf({3: 1.0}, attr="k")
        ref2 = store.register_base(store.new_tuple_id(), other)
        lin2 = fresh_lineage(ref2)
        store.acquire(lin2)
        joint, _ = product([(floored, lin), (other, lin2)], store)
        assert joint.mass() == pytest.approx(0.5)
