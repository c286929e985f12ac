"""Join / cross-product / collapse tests (Section III-D)."""

import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    collapse_history,
    cross_product,
    expected_multiplicities,
    join,
    model_multiplicities,
    multiplicities_match,
    prefix_attrs,
    project,
    rename,
    select,
    world_join,
    world_project,
    world_select,
)
from repro.core.predicates import And, Comparison, TruePredicate, col
from repro.errors import SchemaError
from repro.pdf import DiscretePdf, GaussianPdf, JointDiscretePdf


def _relation(name, attr, pairs, store=None):
    schema = ProbabilisticSchema([Column(attr, DataType.INT)], [{attr}])
    rel = ProbabilisticRelation(schema, store, name=name)
    for p in pairs:
        rel.insert(uncertain={attr: DiscretePdf(p)})
    return rel


class TestCrossProduct:
    def test_sizes_multiply(self):
        r1 = _relation("r1", "a", [{1: 1.0}, {2: 1.0}])
        r2 = _relation("r2", "b", [{5: 1.0}], store=r1.store)
        out = cross_product(r1, r2)
        assert len(out) == 2
        assert set(out.schema.visible_attrs) == {"a", "b"}

    def test_pdfs_and_histories_copied(self):
        r1 = _relation("r1", "a", [{1: 0.5}])
        r2 = _relation("r2", "b", [{5: 1.0}], store=r1.store)
        out = cross_product(r1, r2)
        t = out.tuples[0]
        assert t.pdfs[frozenset({"a"})].mass() == pytest.approx(0.5)
        assert len(t.lineage[frozenset({"a"})]) == 1

    def test_visible_collision_rejected(self):
        r1 = _relation("r1", "a", [{1: 1.0}])
        r2 = _relation("r2", "a", [{2: 1.0}], store=r1.store)
        with pytest.raises(SchemaError):
            cross_product(r1, r2)

    def test_different_stores_rejected(self):
        r1 = _relation("r1", "a", [{1: 1.0}])
        r2 = _relation("r2", "b", [{2: 1.0}])
        with pytest.raises(SchemaError):
            cross_product(r1, r2)

    def test_phantom_collision_renamed(self, figure3_relation):
        ta = project(figure3_relation, ["a"])  # may carry phantom b
        tb = project(
            select(figure3_relation, Comparison("b", ">", 4)), ["b"]
        )  # carries phantom a
        out = cross_product(ta, tb)
        assert set(out.schema.visible_attrs) == {"a", "b"}


class TestJoin:
    def test_join_equals_select_of_cross(self):
        r1 = _relation("r1", "a", [{1: 0.5, 2: 0.5}])
        r2 = _relation("r2", "b", [{1: 0.5, 3: 0.5}], store=r1.store)
        pred = Comparison("a", "<", col("b"))
        j1 = join(r1, r2, pred)
        j2 = select(cross_product(r1, r2), pred)
        assert multiplicities_match(
            model_multiplicities(j1), model_multiplicities(j2)
        )

    def test_join_matches_pws(self):
        r1 = _relation("T1", "a", [{1: 0.5, 2: 0.5}, {4: 0.7}])
        r2 = _relation("T2", "b", [{1: 0.4, 3: 0.6}], store=r1.store)
        pred = Comparison("a", "<", col("b"))
        j = join(r1, r2, pred)
        pws = expected_multiplicities(
            {"T1": r1, "T2": r2},
            lambda w: world_join(w["T1"], w["T2"], pred),
        )
        assert multiplicities_match(model_multiplicities(j), pws)

    def test_prefix_attrs(self):
        r1 = _relation("r1", "a", [{1: 1.0}])
        out = prefix_attrs(r1, "left")
        assert out.schema.visible_attrs == ("left.a",)
        (link,) = out.tuples[0].lineage[frozenset({"left.a"})]
        assert link.mapping_dict() == {"a": "left.a"}

    def test_continuous_join(self):
        schema = ProbabilisticSchema(
            [Column("rid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
        )
        r1 = ProbabilisticRelation(schema, name="r1")
        r1.insert(certain={"rid": 1}, uncertain={"v": GaussianPdf(0, 1)})
        r2 = ProbabilisticRelation(
            ProbabilisticSchema(
                [Column("sid", DataType.INT), Column("w", DataType.REAL)], [{"w"}]
            ),
            r1.store,
            name="r2",
        )
        r2.insert(certain={"sid": 9}, uncertain={"w": GaussianPdf(10, 1)})
        out = join(r1, r2, Comparison("v", "<", col("w")))
        assert len(out) == 1
        joint = out.tuples[0].pdfs[frozenset({"v", "w"})]
        # P(V < W) for independent N(0,1), N(10,1) is essentially 1.
        assert joint.mass() == pytest.approx(1.0, abs=1e-3)


class TestCollapseHistory:
    def _correlated_relation(self):
        """Two dependency sets in each tuple that share one base ancestor."""
        base_schema = ProbabilisticSchema(
            [Column("a", DataType.INT), Column("b", DataType.INT)], [{"a", "b"}]
        )
        base = ProbabilisticRelation(base_schema, name="base")
        base.insert(
            uncertain={("a", "b"): JointDiscretePdf(("a", "b"), {(1, 2): 0.5, (3, 4): 0.5})}
        )
        ta = project(base, ["a"])
        tb = project(base, ["b"])
        return cross_product(ta, tb), base

    def test_collapse_merges_dependent_sets(self):
        crossed, base = self._correlated_relation()
        assert len(crossed.schema.dependency) == 2
        collapsed = collapse_history(crossed)
        assert len(collapsed.schema.dependency) == 1
        joint = collapsed.tuples[0].pdfs[frozenset({"a", "b"})]
        # Perfectly correlated: only (1,2) and (3,4) survive.
        assert float(joint.density({"a": 1, "b": 2})) == pytest.approx(0.5)
        assert float(joint.density({"a": 1, "b": 4})) == 0.0

    def test_collapse_noop_when_independent(self):
        r1 = _relation("r1", "a", [{1: 1.0}])
        r2 = _relation("r2", "b", [{2: 1.0}], store=r1.store)
        crossed = cross_product(r1, r2)
        assert collapse_history(crossed) is crossed

    def test_collapse_and_lazy_agree(self):
        crossed, base = self._correlated_relation()
        collapsed = collapse_history(crossed)
        assert multiplicities_match(
            model_multiplicities(crossed), model_multiplicities(collapsed)
        )


class TestThreeWayJoin:
    def test_three_relations_match_pws(self):
        r1 = _relation("T1", "a", [{1: 0.6, 2: 0.4}])
        r2 = _relation("T2", "b", [{1: 0.5, 2: 0.5}], store=r1.store)
        r3 = _relation("T3", "c", [{2: 0.8}], store=r1.store)
        pred = And([Comparison("a", "<=", col("b")), Comparison("b", "<=", col("c"))])
        out = select(cross_product(cross_product(r1, r2), r3), pred)
        pws = expected_multiplicities(
            {"T1": r1, "T2": r2, "T3": r3},
            lambda w: world_join(world_join(w["T1"], w["T2"], TruePredicate()), w["T3"], pred),
        )
        assert multiplicities_match(model_multiplicities(out), pws)
