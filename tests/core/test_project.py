"""Projection operator tests (Section III-B): phantoms and marginalisation."""

import pytest

from repro.core import (
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    project,
    select,
    world_project,
    world_select,
)
from repro.core.predicates import Comparison, col
from repro.core.project import ProjectionPlan
from repro.errors import QueryError
from repro.pdf import DiscretePdf, GaussianPdf, JointDiscretePdf

from .. import mass_at


@pytest.fixture
def joint_relation():
    schema = ProbabilisticSchema(
        [Column("id", DataType.INT), Column("a", DataType.INT), Column("b", DataType.INT)],
        [{"a", "b"}],
    )
    rel = ProbabilisticRelation(schema)
    rel.insert(
        certain={"id": 1},
        uncertain={("a", "b"): JointDiscretePdf(("a", "b"), {(1, 2): 0.5, (3, 4): 0.5})},
    )
    return rel


class TestBasics:
    def test_certain_projection(self, sensor_relation):
        out = project(sensor_relation, ["id"])
        assert out.schema.visible_attrs == ("id",)
        assert [t.certain["id"] for t in out] == [1, 2, 3]
        # The full-mass location set is dropped entirely.
        assert out.schema.dependency == ()

    def test_column_order_preserved(self, sensor_relation):
        out = project(sensor_relation, ["location", "id"])
        assert out.schema.visible_attrs == ("location", "id")

    def test_duplicate_attr_rejected(self, sensor_relation):
        with pytest.raises(QueryError):
            project(sensor_relation, ["id", "id"])

    def test_unknown_attr_rejected(self, sensor_relation):
        with pytest.raises(QueryError):
            project(sensor_relation, ["nope"])

    def test_no_tuples_lost(self, sensor_relation):
        out = project(sensor_relation, ["id"])
        assert len(out) == len(sensor_relation)


class TestMarginalisationPolicy:
    def test_full_mass_joint_is_marginalised(self, joint_relation):
        out = project(joint_relation, ["id", "a"])
        assert set(out.schema.dependency) == {frozenset({"a"})}
        pdf = out.tuples[0].pdfs[frozenset({"a"})]
        assert isinstance(pdf, DiscretePdf)
        assert mass_at(pdf, 1) == pytest.approx(0.5)

    def test_partial_mass_keeps_phantoms(self, joint_relation):
        selected = select(joint_relation, Comparison("b", ">", 2))
        out = project(selected, ["id", "a"])
        # The (a, b) joint carries mass 0.5 < 1: kept whole, b is phantom.
        assert frozenset({"a", "b"}) in out.schema.dependency
        assert out.schema.phantom_attrs == {"b"}
        joint = out.tuples[0].pdfs[frozenset({"a", "b"})]
        assert joint.mass() == pytest.approx(0.5)

    def test_lineage_preserved(self, joint_relation):
        out = project(joint_relation, ["id", "a"])
        t_in = joint_relation.tuples[0]
        t_out = out.tuples[0]
        assert t_out.lineage[frozenset({"a"})] == t_in.lineage[frozenset({"a", "b"})]

    def test_disjoint_partial_set_kept_as_phantoms(self):
        schema = ProbabilisticSchema(
            [Column("id", DataType.INT), Column("v")], [{"v"}]
        )
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"id": 1}, uncertain={"v": DiscretePdf({1: 0.5})})
        out = project(rel, ["id"])
        # v is partial -> the tuple's existence information must survive.
        assert frozenset({"v"}) in out.schema.dependency
        assert out.schema.phantom_attrs == {"v"}

    def test_null_pdfs_pass_through(self):
        schema = ProbabilisticSchema([Column("id", DataType.INT), Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert(certain={"id": 1}, uncertain={"v": None})
        out = project(rel, ["id", "v"])
        assert out.tuples[0].pdfs[frozenset({"v"})] is None

    def test_aggressive_marginalises_partial(self, joint_relation):
        selected = select(joint_relation, Comparison("b", ">", 2))
        out = project(selected, ["id", "a"], aggressive=True)
        assert set(out.schema.dependency) == {frozenset({"a"})}
        pdf = out.tuples[0].pdfs[frozenset({"a"})]
        # Mass (existence) is still preserved by marginalisation.
        assert pdf.mass() == pytest.approx(0.5)


class TestStreamingPlan:
    def test_conservative_plan_keeps_everything(self, joint_relation):
        plan = ProjectionPlan(joint_relation.schema, ["id", "a"], partial_sets=None)
        # Without relation-wide knowledge the plan must not marginalise.
        assert frozenset({"a", "b"}) in plan.output_schema.dependency

    def test_informed_plan_marginalises(self, joint_relation):
        plan = ProjectionPlan(
            joint_relation.schema, ["id", "a"], partial_sets=frozenset()
        )
        assert set(plan.output_schema.dependency) == {frozenset({"a"})}


class TestProjectionVsPossibleWorlds:
    def test_project_after_select_matches_pws(self, figure3_relation):
        pred = Comparison("b", ">", 4)
        out = project(select(figure3_relation, pred), ["b"])
        pws = expected_multiplicities(
            {"T": figure3_relation},
            lambda w: world_project(world_select(w["T"], pred), ["b"]),
        )
        assert multiplicities_match(model_multiplicities(out), pws)

    def test_plain_projection_matches_pws(self, figure3_relation):
        out = project(figure3_relation, ["a"])
        pws = expected_multiplicities(
            {"T": figure3_relation}, lambda w: world_project(w["T"], ["a"])
        )
        assert multiplicities_match(model_multiplicities(out), pws)
