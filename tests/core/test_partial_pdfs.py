"""Table IV: missing attribute values vs missing tuples (Section II-B).

The paper distinguishes two readings of "missing data":

* NULL — the attribute values are unknown but the tuple certainly exists,
* a *partial pdf* — under the closed-world assumption, the deficit
  ``1 - mass`` is the probability the tuple does not exist at all.

These tests pin down both semantics and how each interacts with the
operators.
"""

import pytest

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
    count_distribution,
    existence_probability,
    project,
    select,
    threshold_select,
)
from repro.core.predicates import Comparison
from repro.pdf import JointDiscretePdf

from .. import mass_at


@pytest.fixture
def table_iv():
    """The paper's Table IV, both blocks in one relation.

    Tuple 1: (1, {b,c} jointly distributed with full mass 0.8 + NULL 0.2?) —
    the paper's *first* reading stores (1, 2, 3) with prob 0.8 and
    (1, NULL, NULL) with 0.2: values unknown 20% of the time, tuple certain.
    We model that reading with a NULL pdf tuple plus a full one is not
    expressible row-wise; instead the reading maps to: tuple exists
    certainly, pdf over (b, c) may be NULL.  The *second* reading (rows 3-4
    of Table IV) is a partial pdf: mass 0.8 means the tuple exists with 0.8.
    """
    schema = ProbabilisticSchema(
        [Column("a", DataType.INT), Column("b", DataType.REAL), Column("c", DataType.REAL)],
        [{"b", "c"}],
    )
    rel = ProbabilisticRelation(schema, name="T")
    # Reading 1: NULL pdf — values unknown, existence certain.
    rel.insert(certain={"a": 1}, uncertain={("b", "c"): None})
    # Reading 2: partial pdf — Pr(b,c) sums to 0.8, so Pr(exists) = 0.8.
    rel.insert(
        certain={"a": 2},
        uncertain={
            ("b", "c"): JointDiscretePdf(("b", "c"), {(4, 7): 0.2, (4.1, 3.7): 0.6})
        },
    )
    return rel


class TestExistenceSemantics:
    def test_null_tuple_exists_certainly(self, table_iv):
        t = table_iv.tuples[0]
        assert existence_probability(table_iv, t) == pytest.approx(1.0)

    def test_partial_tuple_exists_with_mass(self, table_iv):
        t = table_iv.tuples[1]
        assert existence_probability(table_iv, t) == pytest.approx(0.8)

    def test_count_sees_the_difference(self, table_iv):
        dist = count_distribution(table_iv)
        # 1 certain tuple + 1 with p=0.8: count is 1 w.p. 0.2, 2 w.p. 0.8.
        assert mass_at(dist, 1) == pytest.approx(0.2)
        assert mass_at(dist, 2) == pytest.approx(0.8)

    def test_threshold_distinguishes(self, table_iv):
        certain_only = threshold_select(table_iv, None, ">=", 0.99)
        assert [t.certain["a"] for t in certain_only] == [1]


class TestOperatorInteraction:
    def test_selection_on_null_pdf_drops_tuple(self, table_iv):
        out = select(table_iv, Comparison("b", ">", 0))
        # Tuple 1's b is unknown -> predicate unknown -> excluded (SQL-like).
        assert [t.certain["a"] for t in out] == [2]

    def test_selection_on_certain_attr_keeps_null(self, table_iv):
        out = select(table_iv, Comparison("a", "<", 10))
        assert len(out) == 2
        assert out.tuples[0].pdfs[frozenset({"b", "c"})] is None

    def test_projection_keeps_partial_existence(self, table_iv):
        out = project(table_iv, ["a"])
        # The partial (b, c) set must survive as phantoms for tuple 2.
        assert frozenset({"b", "c"}) in out.schema.dependency
        assert existence_probability(out, out.tuples[1]) == pytest.approx(0.8)
        assert existence_probability(out, out.tuples[0]) == pytest.approx(1.0)

    def test_partial_masses_after_further_selection(self, table_iv):
        out = select(table_iv, Comparison("b", ">=", 4.05))
        (t,) = out.tuples
        # Only the (4.1, 3.7): 0.6 outcome survives.
        assert existence_probability(out, t) == pytest.approx(0.6)
