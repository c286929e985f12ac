"""Duplicate-elimination tests (the restricted future-work operator)."""

import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    cross_product,
    enumerate_worlds,
    existence_probability,
    expected_multiplicities,
    project,
    select,
)
from repro.core.distinct import EXISTS_ATTR, distinct
from repro.core.predicates import Comparison
from repro.errors import UnsupportedOperationError
from repro.pdf import DiscretePdf, JointDiscretePdf


def _tagged_relation():
    """Tuples with a certain tag and a partial pdf deciding existence."""
    schema = ProbabilisticSchema(
        [Column("tag", DataType.TEXT), Column("v", DataType.INT)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema, name="T")
    rel.insert(certain={"tag": "a"}, uncertain={"v": DiscretePdf({1: 0.5})})
    rel.insert(certain={"tag": "a"}, uncertain={"v": DiscretePdf({2: 0.5})})
    rel.insert(certain={"tag": "b"}, uncertain={"v": DiscretePdf({3: 1.0})})
    return rel


class TestDistinct:
    def test_group_probabilities(self):
        rel = _tagged_relation()
        projected = project(rel, ["tag"])
        out = distinct(projected)
        assert len(out) == 2
        by_tag = {t.certain["tag"]: t for t in out}
        # P(some 'a' row exists) = 1 - 0.5 * 0.5 = 0.75
        assert existence_probability(out, by_tag["a"]) == pytest.approx(0.75)
        assert existence_probability(out, by_tag["b"]) == pytest.approx(1.0)

    def test_matches_possible_worlds(self):
        rel = _tagged_relation()
        projected = project(rel, ["tag"])
        out = distinct(projected)

        # Brute force: P(tag present in the distinct result)
        presence = {}
        for world in enumerate_worlds({"T": rel}):
            tags = {r["tag"] for r in world.relations["T"]}
            for tag in tags:
                presence[tag] = presence.get(tag, 0.0) + world.probability
        by_tag = {t.certain["tag"]: t for t in out}
        for tag, prob in presence.items():
            assert existence_probability(out, by_tag[tag]) == pytest.approx(prob)

    def test_schema_uses_exists_phantom(self):
        out = distinct(project(_tagged_relation(), ["tag"]))
        assert out.schema.visible_attrs == ("tag",)
        assert out.schema.phantom_attrs == {EXISTS_ATTR}

    def test_order_of_first_appearance(self):
        out = distinct(project(_tagged_relation(), ["tag"]))
        assert [t.certain["tag"] for t in out] == ["a", "b"]

    def test_uncertain_visible_attr_rejected(self):
        rel = _tagged_relation()
        with pytest.raises(UnsupportedOperationError):
            distinct(rel)  # 'v' is visible and uncertain

    def test_historically_dependent_duplicates_rejected(self):
        schema = ProbabilisticSchema(
            [Column("a", DataType.INT), Column("b", DataType.INT)], [{"a", "b"}]
        )
        rel = ProbabilisticRelation(schema, name="T")
        rel.insert(
            uncertain={("a", "b"): JointDiscretePdf(("a", "b"), {(1, 1): 0.5, (2, 2): 0.3})}
        )
        left = project(rel, [])  # no visible columns; partial set kept as phantoms
        # Build a relation where the same ancestor appears in two tuples with
        # equal certain values: cross the projection with itself.
        from repro.core import prefix_attrs

        crossed = cross_product(prefix_attrs(left, "l"), prefix_attrs(left, "r"))
        # Two identical (empty) keys, sharing ancestors -> refused.
        doubled = ProbabilisticRelation(crossed.schema, crossed.store)
        for t in crossed.tuples:
            doubled.add_tuple(t, acquire=False)
            doubled.add_tuple(t, acquire=False)
        with pytest.raises(UnsupportedOperationError):
            distinct(doubled)

    def test_all_certain_relation(self):
        schema = ProbabilisticSchema([Column("x", DataType.INT)])
        rel = ProbabilisticRelation(schema)
        for v in (1, 2, 2, 1, 3):
            rel.insert(certain={"x": v})
        out = distinct(rel)
        assert [t.certain["x"] for t in out] == [1, 2, 3]
        for t in out:
            assert existence_probability(out, t) == pytest.approx(1.0)

    def test_null_values_group_together(self):
        schema = ProbabilisticSchema([Column("x", DataType.INT)])
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"x": None})
        rel.insert(certain={"x": None})
        out = distinct(rel)
        assert len(out) == 1

    def test_nan_equals_nothing(self):
        """Not even the very same NaN object a dict would find by identity."""
        nan = float("nan")
        schema = ProbabilisticSchema([Column("x", DataType.REAL)])
        rel = ProbabilisticRelation(schema)
        for v in (nan, nan, 1.0, float("nan"), 1.0):
            rel.insert(certain={"x": v})
        out = distinct(rel)
        assert [repr(t.certain["x"]) for t in out] == ["nan", "nan", "1.0", "nan"]
