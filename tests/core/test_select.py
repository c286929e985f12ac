"""Selection operator tests (Section III-C): all three cases plus closure."""

import pytest

from repro.core import (
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    closure,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    select,
    world_select,
)
from repro.core.predicates import And, Comparison, Or, TruePredicate, col
from repro.errors import QueryError
from repro.pdf import (
    CategoricalPdf,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    JointDiscretePdf,
    JointGaussianPdf,
    TAIL_MASS,
)


class TestClosure:
    def test_paper_example(self):
        """Ω({{a,b},{c,d},{e,f}} ∪ {b,c,g}) = {{a,b,c,d,g},{e,f}}."""
        sets = [frozenset("ab"), frozenset("cd"), frozenset("ef")]
        untouched, merged = closure(sets, frozenset("bcg"))
        assert merged == frozenset("abcdg")
        assert untouched == (frozenset("ef"),)

    def test_disjoint_new_set(self):
        untouched, merged = closure([frozenset("ab")], frozenset("xy"))
        assert merged == frozenset("xy")
        assert untouched == (frozenset("ab"),)


class TestCase1CertainOnly:
    def test_filters_on_certain(self, sensor_relation):
        out = select(sensor_relation, Comparison("id", "=", 1))
        assert len(out) == 1
        assert out.tuples[0].certain["id"] == 1
        # pdfs copied over untouched
        assert out.tuples[0].pdf_of_attr("location").params["mean"] == 20.0

    def test_schema_unchanged(self, sensor_relation):
        out = select(sensor_relation, Comparison("id", ">", 1))
        assert out.schema == sensor_relation.schema

    def test_null_dropped(self):
        schema = ProbabilisticSchema([Column("id", DataType.INT)])
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"id": None})
        rel.insert(certain={"id": 5})
        out = select(rel, Comparison("id", ">", 0))
        assert len(out) == 1

    def test_history_copied(self, sensor_relation):
        out = select(sensor_relation, Comparison("id", "=", 1))
        t_in = sensor_relation.tuples[0]
        t_out = out.tuples[0]
        assert t_out.lineage == t_in.lineage


class TestCase2Uncertain:
    def test_paper_section_3c_example(self, table2_relation):
        """σ_{a<b} over Table II gives the exact joint of the paper."""
        out = select(table2_relation, Comparison("a", "<", col("b")))
        assert len(out) == 1
        joint = out.tuples[0].pdfs[frozenset({"a", "b"})]
        assert isinstance(joint, JointDiscretePdf)
        expected = {(0.0, 1.0): 0.06, (0.0, 2.0): 0.04, (1.0, 2.0): 0.36}
        got = {k: pytest.approx(v) for k, v in joint.table.items() if v > 0}
        assert {k: v for k, v in joint.table.items() if v > 0} == pytest.approx(expected)

    def test_schema_merges_dependency_sets(self, table2_relation):
        out = select(table2_relation, Comparison("a", "<", col("b")))
        assert set(out.schema.dependency) == {frozenset({"a", "b"})}

    def test_history_is_union(self, table2_relation):
        out = select(table2_relation, Comparison("a", "<", col("b")))
        t_in = table2_relation.tuples[0]
        t_out = out.tuples[0]
        expected = t_in.lineage[frozenset({"a"})] | t_in.lineage[frozenset({"b"})]
        assert t_out.lineage[frozenset({"a", "b"})] == expected

    def test_case_2a_untouched_sets_copied(self):
        schema = ProbabilisticSchema(
            [Column("u"), Column("v")], [{"u"}, {"v"}]
        )
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"u": DiscretePdf({1: 1.0}), "v": DiscretePdf({2: 1.0})})
        out = select(rel, Comparison("u", "=", 1))
        t = out.tuples[0]
        assert t.pdfs[frozenset({"v"})] == DiscretePdf({2: 1.0}, attr="v")

    def test_symbolic_floor_for_range(self, sensor_relation):
        out = select(
            sensor_relation,
            And([Comparison("location", ">", 18), Comparison("location", "<", 22)]),
        )
        pdf = out.tuples[0].pdfs[frozenset({"location"})]
        assert isinstance(pdf, FlooredPdf)
        g = GaussianPdf(20, 5)
        expected = float(g.cdf(22) - g.cdf(18))
        assert pdf.mass() == pytest.approx(expected)

    def test_fully_floored_tuple_dropped(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"v": DiscretePdf({1: 1.0})})
        out = select(rel, Comparison("v", ">", 100))
        assert len(out) == 0

    def test_null_pdf_dropped(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"v": None})
        rel.insert(uncertain={"v": DiscretePdf({5: 1.0})})
        out = select(rel, Comparison("v", ">", 0))
        assert len(out) == 1

    def test_certain_attr_absorbed_into_joint(self):
        """Case 2(b): certain attrs in the predicate become uncertain."""
        schema = ProbabilisticSchema(
            [Column("k", DataType.INT), Column("v")], [{"v"}]
        )
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"k": 3}, uncertain={"v": DiscretePdf({1: 0.5, 5: 0.5})})
        out = select(rel, Comparison("v", ">", col("k")))
        assert out.schema.is_uncertain("k")
        t = out.tuples[0]
        joint = t.pdfs[frozenset({"k", "v"})]
        assert joint.mass() == pytest.approx(0.5)
        assert "k" not in t.certain

    def test_certain_null_in_uncertain_predicate_drops(self):
        schema = ProbabilisticSchema(
            [Column("k", DataType.INT), Column("v")], [{"v"}]
        )
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"k": None}, uncertain={"v": DiscretePdf({1: 1.0})})
        out = select(rel, Comparison("v", ">", col("k")))
        assert len(out) == 0

    def test_categorical_selection(self):
        schema = ProbabilisticSchema([Column("tag", DataType.TEXT)], [{"tag"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"tag": CategoricalPdf({"cat": 0.7, "dog": 0.3})})
        out = select(rel, Comparison("tag", "=", "cat"))
        assert len(out) == 1
        assert out.tuples[0].pdfs[frozenset({"tag"})].mass() == pytest.approx(0.7)

    def test_categorical_unseen_label_drops_all(self):
        schema = ProbabilisticSchema([Column("tag", DataType.TEXT)], [{"tag"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(uncertain={"tag": CategoricalPdf({"cat": 1.0})})
        out = select(rel, Comparison("tag", "=", "zebra"))
        assert len(out) == 0

    def test_joint_gaussian_box_selection(self):
        schema = ProbabilisticSchema(
            [Column("x"), Column("y")], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema)
        rel.insert(
            uncertain={("x", "y"): JointGaussianPdf(("x", "y"), [0, 0], [[1, 0], [0, 1]])}
        )
        out = select(rel, And([Comparison("x", "<", 0), Comparison("y", "<", 0)]))
        pdf = out.tuples[0].pdfs[frozenset({"x", "y"})]
        assert pdf.mass() == pytest.approx(0.25, abs=1e-6)

    def test_or_predicate(self, table2_relation):
        out = select(
            table2_relation, Or([Comparison("a", "=", 0), Comparison("a", "=", 7)])
        )
        masses = sorted(
            t.pdfs[frozenset({"a"})].mass() for t in out.tuples
        )
        assert masses == [pytest.approx(0.1), pytest.approx(1.0)]

    def test_unknown_attr_rejected(self, table2_relation):
        with pytest.raises(QueryError):
            select(table2_relation, Comparison("zzz", ">", 1))


def test_the_cut_and_the_hull_clip_the_same_tail_mass():
    """A pdf whose support hull misses a range keeps at most ``TAIL_MASS``
    there, which the selection drops, so a hull test (synopsis, threshold
    index) never changes an answer; a range inside the hull keeps more."""
    rel = ProbabilisticRelation(ProbabilisticSchema([Column("x")], [{"x"}]))
    g = GaussianPdf(20, 5, attr="x")
    rel.insert(uncertain={"x": g})
    hi = g.support()["x"][1]
    beyond = float(g.quantile(1.0 - TAIL_MASS / 2))
    inside = float(g.quantile(1.0 - 2 * TAIL_MASS))
    assert inside < hi < beyond
    assert len(select(rel, Comparison("x", ">", beyond))) == 0
    assert len(select(rel, Comparison("x", ">", inside))) == 1


class TestSelectionVsPossibleWorlds:
    def test_matches_pws(self, table2_relation):
        pred = Comparison("a", "<", col("b"))
        out = select(table2_relation, pred)
        pws = expected_multiplicities(
            {"T": table2_relation}, lambda w: world_select(w["T"], pred)
        )
        assert multiplicities_match(model_multiplicities(out), pws)

    def test_successive_selections_match_pws(self, table2_relation):
        p1 = Comparison("a", "<", col("b"))
        p2 = Comparison("b", "=", 2)
        out = select(select(table2_relation, p1), p2)
        pws = expected_multiplicities(
            {"T": table2_relation},
            lambda w: world_select(world_select(w["T"], p1), p2),
        )
        assert multiplicities_match(model_multiplicities(out), pws)

    def test_selection_order_irrelevant(self, table2_relation):
        """Theorem 1 corollary: floors commute."""
        p1 = Comparison("a", "<", col("b"))
        p2 = Comparison("b", "=", 2)
        ab = select(select(table2_relation, p1), p2)
        ba = select(select(table2_relation, p2), p1)
        assert multiplicities_match(
            model_multiplicities(ab), model_multiplicities(ba)
        )
