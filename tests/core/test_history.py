"""History tests: ancestor tracking, refcounts, phantoms, Figure 3."""

import pytest

from repro.core import (
    Column,
    DataType,
    HistoryStore,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
    expected_multiplicities,
    historically_dependent,
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
from repro.core.history import AncestorLink, AncestorRef, fresh_lineage, rename_lineage
from repro.core.predicates import Comparison, TruePredicate, col
from repro.errors import HistoryError
from repro.pdf import DiscretePdf, GaussianPdf, JointDiscretePdf


class TestHistoryStore:
    def test_register_and_fetch(self):
        store = HistoryStore()
        pdf = GaussianPdf(0, 1, attr="v")
        ref = store.register_base(1, pdf)
        assert store.pdf(ref) is pdf
        assert ref.attrs == frozenset({"v"})

    def test_double_register_rejected(self):
        store = HistoryStore()
        store.register_base(1, GaussianPdf(0, 1, attr="v"))
        with pytest.raises(HistoryError):
            store.register_base(1, GaussianPdf(0, 2, attr="v"))

    def test_unknown_ref_raises(self):
        store = HistoryStore()
        with pytest.raises(HistoryError):
            store.pdf(AncestorRef(99, frozenset({"v"})))

    def test_refcounting_and_phantoms(self):
        store = HistoryStore()
        base = _base_tuple(store, 1, DiscretePdf({1: 1.0}, attr="v"))
        (lineage,) = base.lineage.values()
        (link,) = lineage
        ref = link.ref
        store.acquire(lineage)  # a stored derived tuple
        store.drop_tuple(base)  # base tuple deleted...
        # still referenced by the derived tuple -> phantom node
        assert ref in store
        assert store.is_phantom(ref)
        assert store.pdf(ref) is base.pdfs[ref.attrs]
        store.release(lineage)
        assert ref not in store
        with pytest.raises(HistoryError):
            store.pdf(ref)

    def test_delete_unreferenced_base(self):
        store = HistoryStore()
        base = _base_tuple(store, 1, DiscretePdf({1: 1.0}, attr="v"))
        store.drop_tuple(base)
        assert len(store) == 0
        with pytest.raises(HistoryError):
            store.pdf(AncestorRef(1, frozenset({"v"})))

    def test_release_underflow(self):
        store = HistoryStore()
        ref = store.register_base(1, DiscretePdf({1: 1.0}, attr="v"))
        with pytest.raises(HistoryError):
            store.release(fresh_lineage(ref))

    def test_stats(self):
        store = HistoryStore()
        base = _base_tuple(store, 1, DiscretePdf({1: 1.0}, attr="v"))
        (lineage,) = base.lineage.values()
        store.acquire(lineage)
        store.drop_tuple(base)
        assert store.stats() == {"total": 1, "phantom": 1}

    def test_resolver_supplies_live_base_pdfs(self):
        stored = GaussianPdf(0, 1, attr="v")
        store = HistoryStore(lambda ref: stored, lambda ref: ref.tuple_id == 1)
        base = ProbabilisticTuple(
            1, {}, {frozenset({"v"}): stored}, {frozenset({"v"}): fresh_lineage(AncestorRef(1, frozenset({"v"})))}
        )
        (lineage,) = base.lineage.values()
        store.acquire(lineage)  # checks the ancestor's tuple is stored
        assert store.pdf(AncestorRef(1, frozenset({"v"}))) is stored
        assert len(store) == 1 and not store.stats()["phantom"]

    def test_acquiring_an_unknown_ancestor_counts_nothing(self):
        store = HistoryStore()
        known = store.register_base(1, DiscretePdf({1: 1.0}, attr="v"))
        unknown = AncestorRef(2, frozenset({"v"}))
        with pytest.raises(HistoryError):
            store.acquire([AncestorLink.identity(known), AncestorLink.identity(unknown)])
        assert len(store) == 0


def _base_tuple(store, tuple_id, pdf):
    """A base tuple of one set, its pdf kept in ``store`` (Definition 2)."""
    ref = store.register_base(tuple_id, pdf)
    return ProbabilisticTuple(tuple_id, {}, {ref.attrs: pdf}, {ref.attrs: fresh_lineage(ref)})


class TestLineage:
    def test_identity_link(self):
        ref = AncestorRef(3, frozenset({"a", "b"}))
        link = AncestorLink.identity(ref)
        assert link.mapping_dict() == {"a": "a", "b": "b"}

    def test_rename_composition(self):
        ref = AncestorRef(3, frozenset({"a"}))
        link = AncestorLink.identity(ref).renamed({"a": "x"}).renamed({"x": "left.x"})
        assert link.mapping_dict() == {"a": "left.x"}

    def test_rename_lineage(self):
        ref = AncestorRef(3, frozenset({"a"}))
        lineage = fresh_lineage(ref)
        renamed = rename_lineage(lineage, {"a": "z"})
        (link,) = renamed
        assert link.mapping_dict() == {"a": "z"}
        assert link.ref == ref

    def test_historical_dependence_ignores_mapping(self):
        ref = AncestorRef(1, frozenset({"a"}))
        l1 = fresh_lineage(ref)
        l2 = rename_lineage(l1, {"a": "b"})
        assert historically_dependent(l1, l2)

    def test_independent_lineages(self):
        l1 = fresh_lineage(AncestorRef(1, frozenset({"a"})))
        l2 = fresh_lineage(AncestorRef(2, frozenset({"a"})))
        assert not historically_dependent(l1, l2)

    def test_refs_and_links_are_plain_tuples(self):
        """No dataclass machinery: tuple equality, hashing and field access,
        with the history's own ``repr``."""
        import dataclasses

        ref = AncestorRef(3, frozenset({"b", "a"}))
        link = AncestorLink.identity(ref).renamed({"a": "x"})
        for obj, fields in ((ref, ("tuple_id", "attrs")), (link, ("ref", "mapping"))):
            assert isinstance(obj, tuple) and not dataclasses.is_dataclass(obj)
            assert type(obj)._fields == fields
        assert ref == AncestorRef(3, frozenset({"a", "b"}))
        assert hash(link) == hash(AncestorLink(ref, (("a", "x"), ("b", "b"))))
        assert repr(ref) == "t3.{a,b}" and repr(link) == "t3.{a,b}[a->x]"

    def test_fresh_lineage_under_a_mapping_is_the_renamed_lineage(self):
        ref = AncestorRef(4, frozenset({"a", "b"}))
        renames = {"a": "q.a", "b": "q.b"}
        (link,) = rename_lineage(fresh_lineage(ref), renames)
        assert fresh_lineage(ref, link.mapping) == rename_lineage(fresh_lineage(ref), renames)


class TestFigure3:
    """The paper's Figure 3, end to end."""

    def _join(self, figure3_relation, config):
        ta = project(figure3_relation, ["a"], config)
        tb = project(
            select(figure3_relation, Comparison("b", ">", 4), config), ["b"], config
        )
        return join(ta, tb, TruePredicate(), config)

    def test_correct_with_histories(self, figure3_relation):
        joined = self._join(figure3_relation, ModelConfig())
        got = model_multiplicities(joined)
        expected = {
            frozenset({("a", 4.0), ("b", 5.0)}): 0.9,
            frozenset({("a", 7.0), ("b", 5.0)}): 0.63,
        }
        assert multiplicities_match(got, expected)

    def test_incorrect_without_histories(self, figure3_relation):
        config = ModelConfig(use_history=False)
        joined = self._join(figure3_relation, config)
        got = model_multiplicities(joined, config)
        # Exactly the paper's "Incorrect!" table T1.
        wrong = {
            frozenset({("a", 2.0), ("b", 5.0)}): 0.09,
            frozenset({("a", 4.0), ("b", 5.0)}): 0.81,
            frozenset({("a", 7.0), ("b", 5.0)}): 0.63,
        }
        assert multiplicities_match(got, wrong)

    def test_matches_possible_worlds(self, figure3_relation):
        joined = self._join(figure3_relation, ModelConfig())

        def query(world):
            ta = world_project(world["T"], ["a"])
            tb = world_project(world_select(world["T"], Comparison("b", ">", 4)), ["b"])
            return world_join(ta, tb, TruePredicate())

        pws = expected_multiplicities({"T": figure3_relation}, query)
        assert multiplicities_match(model_multiplicities(joined), pws)


class TestSelfJoinAliasing:
    def test_diagonal_self_join_discrete(self):
        """Joining a table with itself correlates the two copies perfectly."""
        schema = ProbabilisticSchema([Column("v", DataType.INT)], [{"v"}])
        rel = ProbabilisticRelation(schema, name="T")
        rel.insert(uncertain={"v": DiscretePdf({1: 0.5, 2: 0.5})})

        left = prefix_attrs(rel, "l")
        right = prefix_attrs(rel, "r")
        joined = join(left, right, Comparison("l.v", "=", col("r.v")))
        got = model_multiplicities(joined)
        # The same base variable on both sides: always equal, never mixed.
        expected = {
            frozenset({("l.v", 1.0), ("r.v", 1.0)}): 0.5,
            frozenset({("l.v", 2.0), ("r.v", 2.0)}): 0.5,
        }
        assert multiplicities_match(got, expected)

    def test_self_join_continuous_raises(self):
        from repro.errors import UnsupportedOperationError

        schema = ProbabilisticSchema([Column("v", DataType.REAL)], [{"v"}])
        rel = ProbabilisticRelation(schema, name="T")
        rel.insert(uncertain={"v": GaussianPdf(0, 1)})
        left = prefix_attrs(rel, "l")
        right = prefix_attrs(rel, "r")
        with pytest.raises(UnsupportedOperationError):
            join(left, right, Comparison("l.v", "<", col("r.v")))


class TestRenameRelation:
    def test_rename_preserves_history(self, figure3_relation):
        renamed = rename(figure3_relation, {"a": "x", "b": "y"})
        t = renamed.tuples[0]
        (link,) = t.lineage[frozenset({"x", "y"})]
        assert link.mapping_dict() == {"a": "x", "b": "y"}

    def test_rename_unknown_attr_rejected(self, figure3_relation):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            rename(figure3_relation, {"zzz": "y"})
