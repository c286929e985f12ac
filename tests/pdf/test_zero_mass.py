"""Zero- and near-zero-mass partial pdfs through floors, products, and
PROB thresholds.

A partial pdf with (almost) no remaining mass is the boundary case of the
paper's partial-pdf semantics: the tuple almost certainly does not exist.
These tests pin down that floors, the history-aware product, the PROB
threshold operator, and the vectorized kernel all agree — no NaNs, no
negative masses, no spurious survivors — on BOTH the scalar methods and the
batch evaluation path (kernel sweep for the symbolic families, the scalar
reference for every other row).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.history import HistoryStore
from repro.core.model import DEFAULT_CONFIG
from repro.core.operations import product
from repro.core.threshold import columnar_probability_of, probability_of
from repro.engine.database import Database
from repro.engine.executor import RelationScan
from repro.pdf import (
    BinomialPdf,
    BoxRegion,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    PoissonPdf,
    TriangularPdf,
    UniformPdf,
)
from repro.pdf.kernels import FAMILY_PARAMS, interval_probs_params

ZERO_FLOORS = [
    # (base pdf, allowed set that removes every last bit of mass)
    (UniformPdf(0, 10), IntervalSet.greater_than(20)),
    (UniformPdf(0, 10), IntervalSet.less_than(-5)),
    (GaussianPdf(0, 1), IntervalSet.less_than(-600)),  # cdf underflows to 0.0
    (DiscretePdf({1: 0.5, 2: 0.5}), IntervalSet.between(3, 4)),
    # Kernelized families floored entirely outside their supports.
    (TriangularPdf(0, 1, 2), IntervalSet.greater_than(5)),
    (TriangularPdf(0, 1, 2), IntervalSet.less_than(-1)),
    (TriangularPdf(0, 0, 2), IntervalSet.less_than(-0.5)),
    (TriangularPdf(3, 5, 5), IntervalSet.greater_than(5)),
    (UniformPdf(-3, -1), IntervalSet.greater_than(0)),
    (GaussianPdf(0, 1e-4), IntervalSet.greater_than(1e3)),
    (HistogramPdf([0.0, 1.0, 2.0], [0.5, 0.5]), IntervalSet.between(10, 20)),
    # Symbolic discrete families floored between or outside their integers.
    (PoissonPdf(4), IntervalSet.less_than(0)),
    (BinomialPdf(5, 0.5), IntervalSet.between(2, 3, closed_lo=False, closed_hi=False)),
]

NEAR_ZERO_FLOORS = [
    (GaussianPdf(0, 1), IntervalSet.less_than(-30)),
    (GaussianPdf(100, 0.1), IntervalSet.greater_than(104)),
    (UniformPdf(0, 1), IntervalSet.between(0, 1e-300)),
    (DiscretePdf({1: 1e-12, 2: 1.0 - 1e-12}), IntervalSet.point(1)),
    (TriangularPdf(0, 1, 2), IntervalSet.between(0, 1e-9)),
    (TriangularPdf(0, 1, 2), IntervalSet.greater_than(2 - 1e-9)),
    (GaussianPdf(0, 1), IntervalSet.greater_than(12)),
    (UniformPdf(0, 1), IntervalSet.between(1 - 1e-12, 5)),
    (PoissonPdf(4), IntervalSet.greater_than(20)),
]


def _floor(base, allowed):
    return base.restrict(BoxRegion({base.attr: allowed}))


class TestZeroMassFloors:
    @pytest.mark.parametrize("base,allowed", ZERO_FLOORS)
    def test_mass_is_exactly_zero(self, base, allowed):
        assert _floor(base, allowed).mass() == 0.0

    @pytest.mark.parametrize("base,allowed", ZERO_FLOORS)
    def test_density_zero_everywhere_probed(self, base, allowed):
        f = _floor(base, allowed)
        xs = np.linspace(-50, 50, 41)
        assert np.all(f.density({f.attr: xs}) == 0.0)

    @pytest.mark.parametrize("base,allowed", ZERO_FLOORS)
    def test_further_restriction_stays_zero(self, base, allowed):
        f = _floor(base, allowed)
        again = f.restrict(BoxRegion({f.attr: IntervalSet.less_than(1000)}))
        assert again.mass() == 0.0

    @pytest.mark.parametrize("base,allowed", ZERO_FLOORS)
    def test_cdf_is_zero_and_finite(self, base, allowed):
        f = _floor(base, allowed)
        vals = np.atleast_1d(f.cdf(np.array([-1e9, 0.0, 1e9])))
        assert np.all(vals == 0.0)
        assert np.all(np.isfinite(vals))


class TestNearZeroMassFloors:
    @pytest.mark.parametrize("base,allowed", NEAR_ZERO_FLOORS)
    def test_mass_tiny_but_legal(self, base, allowed):
        m = _floor(base, allowed).mass()
        assert 0.0 <= m < 1e-6
        assert math.isfinite(m)

    @pytest.mark.parametrize("base,allowed", NEAR_ZERO_FLOORS)
    def test_prob_interval_never_exceeds_mass(self, base, allowed):
        f = _floor(base, allowed)
        m = f.mass()
        for probe in (IntervalSet.full(), IntervalSet.less_than(0), IntervalSet.greater_than(0)):
            p = f.prob_interval(probe)
            assert 0.0 <= p <= m + 1e-18


def _value_relation(pdfs):
    from repro.core.model import (
        Column,
        DataType,
        ProbabilisticRelation,
        ProbabilisticSchema,
    )

    schema = ProbabilisticSchema(
        [Column("rid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )
    rel = ProbabilisticRelation(schema)
    for rid, pdf in enumerate(pdfs, start=1):
        rel.insert({"rid": rid}, {"v": pdf})
    return rel


def _batch_probabilities(rel):
    """``Pr(*)`` per row the way the engine computes it: one scan batch
    through the batch entry point."""
    (batch,) = RelationScan(rel).batches(len(rel.tuples))
    return columnar_probability_of(batch, rel.store, None, DEFAULT_CONFIG)


def _kernel_prob(base, allowed):
    fam = type(base)
    (p,) = interval_probs_params(fam, FAMILY_PARAMS[fam]([base]), allowed)
    return p


class TestKernelScalarIdentity:
    """The batch path must be bit-identical to the scalar methods, down into
    the zero-mass corner."""

    def test_batch_mass_matches_scalar(self):
        floors = [_floor(b, a) for b, a in ZERO_FLOORS + NEAR_ZERO_FLOORS]
        scalar = np.array([f.mass() for f in floors])
        batch = _batch_probabilities(_value_relation(floors))
        assert np.array_equal(batch, scalar)  # bitwise: every mass is <= 1

    def test_batch_interval_probs_matches_scalar(self):
        swept = 0
        for base, allowed in ZERO_FLOORS + NEAR_ZERO_FLOORS:
            scalar = float(base.prob_interval(allowed))
            assert scalar == FlooredPdf(base, allowed).mass()
            if type(base) in FAMILY_PARAMS:  # the rows the kernel sweeps
                assert _kernel_prob(base, allowed) == scalar, (base, allowed)
                swept += 1
        assert swept == 16  # all but the discrete bases and the histogram

    def test_empty_interval_set_is_zero(self):
        for base in (GaussianPdf(0, 1), UniformPdf(0, 1)):
            assert _kernel_prob(base, IntervalSet.empty()) == 0.0
            assert float(base.prob_interval(IntervalSet.empty())) == 0.0


class TestProductsWithZeroMass:
    def test_product_with_zero_factor_is_zero(self):
        store = HistoryStore()
        zero = _floor(GaussianPdf(0, 1), IntervalSet.less_than(-600)).with_attrs(["a"])
        live = GaussianPdf(5, 1).with_attrs(["b"])
        joint, _ = product(
            [(zero, frozenset()), (live, frozenset())], store, DEFAULT_CONFIG
        )
        assert joint.mass() == pytest.approx(0.0, abs=1e-300)

    def test_product_of_near_zeros_underflows_gracefully(self):
        store = HistoryStore()
        a = _floor(GaussianPdf(0, 1), IntervalSet.less_than(-30)).with_attrs(["a"])
        b = _floor(GaussianPdf(0, 1), IntervalSet.greater_than(30)).with_attrs(["b"])
        joint, _ = product(
            [(a, frozenset()), (b, frozenset())], store, DEFAULT_CONFIG
        )
        m = joint.mass()
        assert 0.0 <= m < 1e-100
        assert math.isfinite(m)


class TestProbThresholds:
    """PROB(...) thresholds over zero/near-zero tuples — SQL surface,
    exercising both the scalar executor and the batched kernel pipeline."""

    @pytest.fixture
    def db(self):
        d = Database()
        d.execute("CREATE TABLE t (rid INT, v REAL UNCERTAIN)")
        d.execute("INSERT INTO t VALUES (1, GAUSSIAN(0, 1))")
        d.execute("INSERT INTO t VALUES (2, GAUSSIAN(100, 1))")
        d.execute("INSERT INTO t VALUES (3, UNIFORM(0, 10))")
        d.execute("INSERT INTO t VALUES (4, DISCRETE(1:0.000000000001, 2:0.999999999999))")
        return d

    def test_selection_prunes_zero_mass_tuples(self, db):
        # v > 500 floors every pdf to (near-)zero mass; all four fall
        # below ``TAIL_MASS`` and are pruned by the selection itself.
        db.execute("CREATE TABLE dead AS SELECT rid, v FROM t WHERE v > 500")
        assert db.execute("SELECT rid FROM dead").rowcount == 0

    def test_near_zero_above_epsilon_survives_selection(self, db):
        # Only GAUSSIAN(100, 1) keeps representable mass above 103
        # (~1.35e-3, above the 1e-6 epsilon); everything else is pruned.
        db.execute("CREATE TABLE thin AS SELECT rid, v FROM t WHERE v > 103")
        rows = db.execute("SELECT rid FROM thin").rows
        assert {t.certain["rid"] for t in rows} == {2}

    def test_threshold_filters_near_zero_mass(self, db):
        db.execute("CREATE TABLE thin AS SELECT rid, v FROM t WHERE v > 103")
        alive = db.execute("SELECT rid FROM thin WHERE PROB(*) > 0").rows
        assert {t.certain["rid"] for t in alive} == {2}
        assert db.execute("SELECT rid FROM thin WHERE PROB(*) >= 0.01").rowcount == 0
        assert db.execute("SELECT rid FROM thin WHERE PROB(*) >= 0.001").rowcount == 1
        assert db.execute("SELECT rid FROM thin WHERE PROB(*) <= 0.01").rowcount == 1

    def test_selection_never_emits_zero_mass_even_at_epsilon_zero(self, monkeypatch):
        """``mass <= TAIL_MASS`` pruning is strict: with the cut at 0, exact
        zero-mass tuples are still dropped, only positive mass survives."""
        import importlib

        monkeypatch.setattr(importlib.import_module("repro.core.select"), "TAIL_MASS", 0.0)
        d = Database()
        d.execute("CREATE TABLE t (rid INT, v REAL UNCERTAIN)")
        d.execute("INSERT INTO t VALUES (1, UNIFORM(0, 10))")
        d.execute("INSERT INTO t VALUES (2, GAUSSIAN(100, 1))")
        d.execute("CREATE TABLE dead AS SELECT rid, v FROM t WHERE v > 500")
        assert d.execute("SELECT rid FROM dead").rowcount == 0
        # A cut at 0 admits masses TAIL_MASS would prune (rid 1 keeps 1e-8)
        # — inside the pdf's support hull; what lies beyond the hull the
        # scan's synopsis test clips at every cut.
        d.execute("CREATE TABLE faint AS SELECT rid, v FROM t WHERE v > 9.9999999")
        faint = d.execute("SELECT rid FROM faint WHERE PROB(*) < 0.000001").rows
        assert {t.certain["rid"] for t in faint} == {1}

    def test_threshold_operator_classifies_exact_zero_mass(self):
        """A hand-built zero-mass partial pdf (below the SQL surface, so
        no selection pruning) through ``threshold_select``."""
        from repro.core.model import Column, DataType, ProbabilisticSchema
        from repro.core.threshold import threshold_select

        schema = ProbabilisticSchema(
            [Column("rid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
        )
        from repro.core.model import ProbabilisticRelation

        rel = ProbabilisticRelation(schema)
        zero = _floor(UniformPdf(0, 10), IntervalSet.greater_than(20))
        live = GaussianPdf(5, 1)
        rel.insert({"rid": 1}, {"v": zero})
        rel.insert({"rid": 2}, {"v": live})
        kept = threshold_select(rel, None, ">", 0.0)
        assert [t.certain["rid"] for t in kept.tuples] == [2]
        dead = threshold_select(rel, None, "<=", 0.0)
        assert [t.certain["rid"] for t in dead.tuples] == [1]
        everyone = threshold_select(rel, None, ">=", 0.0)
        assert len(everyone.tuples) == 2

    def test_batch_probability_matches_scalar(self):
        """Tuples spanning zero, near-zero, and full mass: the batched
        existence probability equals the scalar path exactly."""
        rel = _value_relation(
            [
                _floor(UniformPdf(0, 10), IntervalSet.greater_than(20)),
                _floor(GaussianPdf(0, 1), IntervalSet.less_than(-30)),
                GaussianPdf(5, 1),
                None,
            ]
        )
        scalar = [probability_of(t, rel.store, None, DEFAULT_CONFIG) for t in rel.tuples]
        batch = _batch_probabilities(rel)
        assert batch == scalar  # exact, element-wise
        assert batch[0] == 0.0 and 0.0 < batch[1] < 1e-6
        assert batch[2] == 1.0 and batch[3] == 1.0
