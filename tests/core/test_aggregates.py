"""Aggregate tests: COUNT / SUM / EXPECTED / MIN / MAX over uncertain data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    assert_tuples_independent,
    count_distribution,
    cross_product,
    expected_value,
    max_distribution,
    min_distribution,
    project,
    sum_distribution,
)
from repro.errors import QueryError, UnsupportedOperationError
from repro.pdf import DiscretePdf, GaussianPdf, IntervalSet, JointDiscretePdf, UniformPdf

from .. import mass_at


def _value_relation(pdfs):
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema)
    for i, pdf in enumerate(pdfs):
        rel.insert(certain={"id": i}, uncertain={"v": pdf})
    return rel


class TestCount:
    def test_certain_tuples(self):
        rel = _value_relation([DiscretePdf({1: 1.0}), DiscretePdf({2: 1.0})])
        dist = count_distribution(rel)
        assert mass_at(dist, 2) == pytest.approx(1.0)

    def test_partial_tuples_poisson_binomial(self):
        rel = _value_relation([DiscretePdf({1: 0.5}), DiscretePdf({2: 0.5})])
        dist = count_distribution(rel)
        assert mass_at(dist, 0) == pytest.approx(0.25)
        assert mass_at(dist, 1) == pytest.approx(0.5)
        assert mass_at(dist, 2) == pytest.approx(0.25)

    def test_empty_relation(self):
        rel = _value_relation([])
        dist = count_distribution(rel)
        assert mass_at(dist, 0) == pytest.approx(1.0)

    def test_count_mean_is_sum_of_probs(self):
        probs = [0.3, 0.5, 0.9]
        rel = _value_relation([DiscretePdf({1: p}) for p in probs])
        dist = count_distribution(rel)
        assert dist.mean() == pytest.approx(sum(probs))

    def test_dependent_tuples_rejected(self, figure3_relation):
        ta = project(figure3_relation, ["a"])
        tb = project(figure3_relation, ["b"])
        crossed = cross_product(ta, tb)
        with pytest.raises(UnsupportedOperationError):
            count_distribution(crossed)


class TestSum:
    def test_exact_discrete(self):
        rel = _value_relation(
            [DiscretePdf({0: 0.5, 1: 0.5}), DiscretePdf({0: 0.5, 1: 0.5})]
        )
        dist = sum_distribution(rel, "v", method="exact")
        assert mass_at(dist, 1) == pytest.approx(0.5)

    def test_absent_tuple_contributes_zero(self):
        rel = _value_relation([DiscretePdf({10: 0.5})])
        dist = sum_distribution(rel, "v", method="exact")
        assert mass_at(dist, 0) == pytest.approx(0.5)
        assert mass_at(dist, 10) == pytest.approx(0.5)

    def test_gaussian_closed_form(self):
        rel = _value_relation([GaussianPdf(1, 2), GaussianPdf(3, 4)])
        dist = sum_distribution(rel, "v", method="gaussian")
        assert dist.mean() == pytest.approx(4.0)
        assert dist.variance() == pytest.approx(6.0)

    def test_gaussian_approx_of_partial_continuous(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        from repro.pdf import BoxRegion

        partial = GaussianPdf(10, 1).restrict(
            BoxRegion({"x": IntervalSet.less_than(10)})
        )
        rel.insert(uncertain={"v": partial})
        dist = sum_distribution(rel, "v", method="gaussian")
        # E[contribution] = mass * conditional mean.
        expected_mean = partial.mass() * partial.mean()
        assert dist.mean() == pytest.approx(expected_mean, abs=0.05)

    def test_certain_attr_rejected(self):
        rel = _value_relation([DiscretePdf({1: 1.0})])
        with pytest.raises(QueryError):
            sum_distribution(rel, "id")

    def test_empty_relation_sum_is_zero(self):
        rel = _value_relation([])
        dist = sum_distribution(rel, "v")
        assert mass_at(dist, 0) == pytest.approx(1.0)


class TestExpectedValue:
    def test_weighted_by_existence(self):
        rel = _value_relation([DiscretePdf({10: 0.5}), DiscretePdf({4: 1.0})])
        assert expected_value(rel, "v") == pytest.approx(0.5 * 10 + 4)

    def test_matches_exact_sum_mean(self):
        rel = _value_relation(
            [DiscretePdf({1: 0.3, 5: 0.4}), DiscretePdf({2: 0.9, 3: 0.1})]
        )
        exact = sum_distribution(rel, "v", method="exact")
        assert expected_value(rel, "v") == pytest.approx(exact.mean())


class TestMinMax:
    def test_max_of_uniforms(self):
        rel = _value_relation([UniformPdf(0, 1), UniformPdf(0, 1)])
        dist = max_distribution(rel, "v", bins=512)
        # P(max <= x) = x^2 -> mean 2/3.
        assert dist.mean() == pytest.approx(2 / 3, abs=0.01)

    def test_min_of_uniforms(self):
        rel = _value_relation([UniformPdf(0, 1), UniformPdf(0, 1)])
        dist = min_distribution(rel, "v", bins=512)
        assert dist.mean() == pytest.approx(1 / 3, abs=0.01)

    def test_max_dominates_min(self):
        rel = _value_relation([GaussianPdf(0, 1), GaussianPdf(1, 1)])
        mx = max_distribution(rel, "v")
        mn = min_distribution(rel, "v")
        assert mx.mean() > mn.mean()

    def test_partial_tuples_rejected(self):
        rel = _value_relation([DiscretePdf({1: 0.5})])
        with pytest.raises(UnsupportedOperationError):
            max_distribution(rel, "v")

    def test_empty_relation_rejected(self):
        rel = _value_relation([])
        with pytest.raises(QueryError):
            min_distribution(rel, "v")


class TestIndependenceCheck:
    def test_independent_passes(self):
        rel = _value_relation([DiscretePdf({1: 1.0}), DiscretePdf({2: 1.0})])
        assert_tuples_independent(rel)  # no raise

    def test_shared_ancestors_rejected(self, figure3_relation):
        ta = project(figure3_relation, ["a"])
        tb = project(figure3_relation, ["b"])
        crossed = cross_product(ta, tb)
        with pytest.raises(UnsupportedOperationError):
            assert_tuples_independent(crossed)


@settings(max_examples=30, deadline=None)
@given(
    probs=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6)
)
def test_count_distribution_is_valid_pmf(probs):
    rel = _value_relation([DiscretePdf({1: p}) for p in probs])
    dist = count_distribution(rel)
    assert dist.mass() == pytest.approx(1.0, abs=1e-9)
    assert dist.values.min() >= 0 and dist.values.max() <= len(probs)


@settings(max_examples=25, deadline=None)
@given(
    tables=st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=5).map(float),
            st.floats(min_value=0.05, max_value=1.0),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_exact_sum_matches_monte_carlo_mean(tables):
    normalized = []
    for t in tables:
        total = sum(t.values())
        normalized.append({k: v / total for k, v in t.items()})
    rel = _value_relation([DiscretePdf(t) for t in normalized])
    dist = sum_distribution(rel, "v", method="exact")
    expected = sum(
        sum(k * p for k, p in t.items()) for t in normalized
    )
    assert dist.mean() == pytest.approx(expected, abs=1e-9)
