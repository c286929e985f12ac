"""Schema, tuple, and relation tests (Section II structures)."""

import dataclasses
import re

import pytest

from repro.core import (
    Column,
    DataType,
    HistoryStore,
    ProbabilisticRelation,
    ProbabilisticSchema,
)
from repro.core.model import ModelConfig
from repro.errors import ReproError, SchemaError
from repro.pdf import GaussianPdf, JointGaussianPdf


class TestModelConfig:
    def test_docstring_documents_exactly_the_fields(self):
        documented = re.findall(r"^    ``(\w+)``$", ModelConfig.__doc__, re.MULTILINE)
        assert documented == [f.name for f in dataclasses.fields(ModelConfig)]

    def test_fields_are_exactly_the_three_knobs(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "use_history", "work_mem", "spill_dir",
        ]
        # switches removed with the code paths they selected; ``grid``, which
        # nothing read; and values no program set, now constants
        # (``TAIL_MASS``, ``DEFAULT_BATCH_SIZE``, lazy merging)
        for gone in (
            "columnar", "scan_pruning", "lazy_decode", "grid",
            "mass_epsilon", "eager_merge", "batch_size",
        ):
            with pytest.raises(TypeError):
                ModelConfig(**{gone: False})

    @pytest.mark.parametrize("value", [-1, True, 1.5, "4MB"])
    def test_bad_work_mem_rejected(self, value):
        with pytest.raises(ReproError, match="work_mem") as info:
            ModelConfig(work_mem=value)
        assert repr(value) in str(info.value)

    def test_valid_sizes_accepted(self):
        config = ModelConfig(work_mem=0)
        assert config.work_mem == 0
        assert ModelConfig(work_mem=None).work_mem is None
        assert dataclasses.replace(config, work_mem=4096).work_mem == 4096


class TestSchema:
    def test_attribute_classification(self):
        schema = ProbabilisticSchema(
            [Column("id", DataType.INT), Column("x", DataType.REAL), Column("y", DataType.REAL)],
            [{"x", "y"}],
        )
        assert schema.certain_attrs == ("id",)
        assert schema.uncertain_attrs == {"x", "y"}
        assert schema.phantom_attrs == frozenset()

    def test_phantom_attrs(self):
        schema = ProbabilisticSchema(
            [Column("a", DataType.INT)], [{"a", "b_hidden"}]
        )
        assert schema.phantom_attrs == {"b_hidden"}
        assert schema.visible_attrs == ("a",)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            ProbabilisticSchema([Column("a"), Column("a")])

    def test_overlapping_dependency_sets_rejected(self):
        with pytest.raises(SchemaError):
            ProbabilisticSchema([Column("a"), Column("b")], [{"a"}, {"a", "b"}])

    def test_empty_dependency_set_rejected(self):
        with pytest.raises(SchemaError):
            ProbabilisticSchema([Column("a")], [set()])

    def test_dependency_set_of(self):
        schema = ProbabilisticSchema(
            [Column("a"), Column("b"), Column("c")], [{"a", "b"}]
        )
        assert schema.dependency_set_of("a") == frozenset({"a", "b"})
        assert schema.dependency_set_of("c") is None
        assert schema.is_uncertain("b") and not schema.is_uncertain("c")

    def test_unknown_column_raises(self):
        schema = ProbabilisticSchema([Column("a")])
        with pytest.raises(SchemaError):
            schema.column("zzz")

    def test_renamed(self):
        schema = ProbabilisticSchema([Column("a"), Column("b")], [{"a"}])
        renamed = schema.renamed({"a": "x"})
        assert renamed.visible_attrs == ("x", "b")
        assert renamed.is_uncertain("x")

    def test_equality(self):
        s1 = ProbabilisticSchema([Column("a")], [{"a"}])
        s2 = ProbabilisticSchema([Column("a")], [{"a"}])
        assert s1 == s2


class TestInsert:
    def test_paper_table_i(self, sensor_relation):
        assert len(sensor_relation) == 3
        t = sensor_relation.tuples[0]
        assert t.certain["id"] == 1
        pdf = t.pdf_of_attr("location")
        assert pdf.params == {"mean": 20.0, "variance": 5.0}
        assert pdf.attrs == ("location",)

    def test_pdf_renamed_positionally(self):
        schema = ProbabilisticSchema([Column("v", DataType.REAL)], [{"v"}])
        rel = ProbabilisticRelation(schema)
        t = rel.insert(uncertain={"v": GaussianPdf(0, 1, attr="whatever")})
        assert t.pdf_of_attr("v").attrs == ("v",)

    def test_joint_insert(self):
        schema = ProbabilisticSchema(
            [Column("oid", DataType.INT), Column("x"), Column("y")], [{"x", "y"}]
        )
        rel = ProbabilisticRelation(schema)
        jg = JointGaussianPdf(("a", "b"), [0, 0], [[1, 0.5], [0.5, 1]])
        t = rel.insert(certain={"oid": 1}, uncertain={("x", "y"): jg})
        pdf = t.pdfs[frozenset({"x", "y"})]
        assert set(pdf.attrs) == {"x", "y"}

    def test_missing_uncertain_defaults_to_null(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        t = rel.insert()
        assert t.pdf_of_attr("v") is None

    def test_missing_certain_defaults_to_null(self):
        schema = ProbabilisticSchema([Column("id", DataType.INT)])
        rel = ProbabilisticRelation(schema)
        t = rel.insert()
        assert t.certain["id"] is None

    def test_wrong_dependency_set_rejected(self):
        schema = ProbabilisticSchema([Column("x"), Column("y")], [{"x", "y"}])
        rel = ProbabilisticRelation(schema)
        with pytest.raises(SchemaError):
            rel.insert(uncertain={"x": GaussianPdf(0, 1)})

    def test_certain_value_for_uncertain_attr_rejected(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        with pytest.raises(SchemaError):
            rel.insert(certain={"v": 5})

    def test_arity_mismatch_rejected(self):
        schema = ProbabilisticSchema([Column("x"), Column("y")], [{"x", "y"}])
        rel = ProbabilisticRelation(schema)
        with pytest.raises(SchemaError):
            rel.insert(uncertain={("x", "y"): GaussianPdf(0, 1)})

    def test_ancestors_registered(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        store = HistoryStore()
        rel = ProbabilisticRelation(schema, store)
        t = rel.insert(uncertain={"v": GaussianPdf(0, 1)})
        (link,) = t.lineage[frozenset({"v"})]
        assert link.ref in store
        assert store.pdf(link.ref).attrs == ("v",)

    def test_tuple_ids_unique(self, sensor_relation):
        ids = [t.tuple_id for t in sensor_relation]
        assert len(set(ids)) == 3


class TestDelete:
    def test_delete_removes_tuple(self, sensor_relation):
        t = sensor_relation.tuples[0]
        sensor_relation.delete(t)
        assert len(sensor_relation) == 2

    def test_delete_unreferenced_drops_ancestor(self, sensor_relation):
        store = sensor_relation.store
        t = sensor_relation.tuples[0]
        refs = {link.ref for lin in t.lineage.values() for link in lin}
        assert refs and all(ref in store for ref in refs)
        sensor_relation.delete(t)
        assert not any(ref in store for ref in refs)


class TestDisplay:
    def test_pretty_contains_values(self, sensor_relation):
        text = sensor_relation.pretty()
        assert "GAUSSIAN(20, 5)" in text
        assert "id" in text and "location" in text

    def test_pretty_null(self):
        schema = ProbabilisticSchema([Column("v")], [{"v"}])
        rel = ProbabilisticRelation(schema)
        rel.insert()
        assert "NULL" in rel.pretty()

    def test_repr(self, sensor_relation):
        assert "3 tuples" in repr(sensor_relation)
