"""Batched probabilities must equal scalar ones exactly.

Two things are pinned.  :func:`repro.pdf.kernels.interval_probs_params` — the
one kernel, over the three continuous families' parameter arrays — against
scalar ``prob_interval``.  And, for every pdf type the kernel does *not*
sweep (histograms, symbolic and explicit discrete pdfs, floors), the engine's
one batch path — ``Filter`` / ``columnar_probability_of`` over a column view,
which hands those rows to ``SelectionPlan.apply`` / ``probability_of`` —
against the scalar pdf methods: a batch may mix swept and unswept rows, and
neither kind may change a bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.columnar import ColumnarSegment
from repro.core.predicates import Predicate
from repro.core.threshold import columnar_probability_of
from repro.engine.executor import Filter, RelationScan
from repro.engine.executor.batch import TupleBatch
from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    Interval,
    IntervalSet,
    PoissonPdf,
    TAIL_MASS,
    TriangularPdf,
    UniformPdf,
)
from repro.pdf import kernels

INF = float("inf")


def _interval_sets():
    return [
        IntervalSet([Interval(-1.0, 1.0)]),
        IntervalSet([Interval(-INF, 0.3)]),
        IntervalSet([Interval(0.7, INF)]),
        IntervalSet([Interval(-2.0, -0.5), Interval(0.5, 2.0)]),
        IntervalSet([Interval(-INF, -1.0), Interval(0.0, 0.25), Interval(3.0, INF)]),
        IntervalSet([Interval(-INF, INF)]),
        IntervalSet([]),  # empty: probability 0
    ]


def _family_zoo():
    rng = np.random.default_rng(7)
    pdfs = []
    for _ in range(8):
        pdfs.append(GaussianPdf(float(rng.normal()), float(0.3 + rng.random())))
        pdfs.append(UniformPdf(float(-2 + rng.random()), float(1 + rng.random())))
        lo = float(-2 + rng.random())
        pdfs.append(TriangularPdf(lo, lo + 0.5 + rng.random(), lo + 2 + rng.random()))
    return pdfs


def _kernel_probs(pdfs, allowed):
    """``interval_probs_params`` over same-family pdfs."""
    fam = type(pdfs[0])
    return kernels.interval_probs_params(fam, kernels.FAMILY_PARAMS[fam](pdfs), allowed)


class _Within(Predicate):
    """``x ∈ allowed``: a selection whose region is a given interval set."""

    def __init__(self, allowed):
        self.allowed = allowed

    def attrs(self):
        return frozenset({"x"})

    def to_region(self, resolver=None):
        return BoxRegion({"x": self.allowed})


X = frozenset({"x"})


def _relation(pdfs):
    """One uncertain column ``x``, row ``i`` carrying ``pdfs[i]``."""
    schema = ProbabilisticSchema([Column("i", DataType.INT), Column("x", DataType.REAL)], [X])
    rel = ProbabilisticRelation(schema)
    for i, pdf in enumerate(pdfs):
        rel.insert(certain={"i": i}, uncertain={"x": pdf})
    return rel


def _selected(pdfs, allowed):
    """Each pdf floored to ``allowed`` by the engine's batch path — kernel rows
    swept, the rest through ``SelectionPlan.apply`` — ``None`` where the row
    was dropped for keeping no mass."""
    rel = _relation(pdfs)
    out = [None] * len(pdfs)
    for t in Filter(RelationScan(rel), _Within(allowed), rel.store):
        out[t.certain["i"]] = t.pdfs[X]
    return out


def _assert_selected_masses_match_scalar(pdfs, alloweds):
    """Every pdf under every interval set: what the selection leaves is scalar
    ``restrict``, its mass scalar ``mass()`` — for a symbolic family that is
    ``prob_interval`` of the base — all bitwise."""
    for allowed in alloweds:
        for pdf, floor in zip(pdfs, _selected(pdfs, allowed)):
            expected = pdf.restrict(BoxRegion({"x": allowed}))
            if type(pdf) in kernels.FAMILY_PARAMS:
                assert expected.mass() == pdf.prob_interval(allowed)
            if expected.mass() <= TAIL_MASS:  # the tuple vanishes
                assert floor is None, (repr(pdf), allowed)
            else:
                assert floor == expected, (repr(pdf), allowed)
                assert floor.mass() == expected.mass(), (repr(pdf), allowed)


def _batch_probabilities(pdfs):
    """``Pr(x)`` per pdf through the one batch entry point."""
    rel = _relation(pdfs)
    return columnar_probability_of(TupleBatch(rel.tuples), rel.store)


class TestBatchIntervalProbs:
    def test_matches_scalar_bitwise_across_families(self):
        by_family = {}
        for pdf in _family_zoo():
            by_family.setdefault(type(pdf), []).append(pdf)
        assert set(by_family) == set(kernels.FAMILY_PARAMS)
        for group in by_family.values():
            for allowed in _interval_sets():
                vec = _kernel_probs(group, allowed)
                for i, pdf in enumerate(group):
                    assert vec[i] == pdf.prob_interval(allowed), (repr(pdf), allowed)

    def test_scalar_fallback_for_unregistered_types(self):
        pdfs = [
            DiscretePdf({0.0: 0.5, 1.0: 0.5}),
            HistogramPdf([0.0, 1.0, 2.0], [0.4, 0.6]),
            GaussianPdf(0, 1),
        ]
        col = ColumnarSegment(_relation(pdfs).tuples).column(X)
        assert col.other_rows.tolist() == [0, 1]  # no parameter-array form
        assert [(fam, rows.tolist()) for fam, rows, *_ in col.groups] == [(GaussianPdf, [2])]
        _assert_selected_masses_match_scalar(pdfs, [IntervalSet([Interval(-0.5, 0.5)])])

    def test_empty_interval_set_is_zero(self):
        assert _kernel_probs([GaussianPdf(0, 1)], IntervalSet([]))[0] == 0.0

    def test_empty_batch(self):
        params = kernels.FAMILY_PARAMS[GaussianPdf]([])
        for allowed in _interval_sets():
            assert len(kernels.interval_probs_params(GaussianPdf, params, allowed)) == 0

    def test_infinite_endpoints(self):
        g = GaussianPdf(0, 1)
        full = IntervalSet([Interval(-INF, INF)])
        assert _kernel_probs([g], full)[0] == g.prob_interval(full) == 1.0

    def test_clamped_to_unit_interval(self):
        # Adjacent intervals can accumulate tiny fp excess; the kernel must
        # clamp exactly like the scalar min/max.
        g = GaussianPdf(0, 1)
        tight = IntervalSet([Interval(-9.0, 0.0), Interval(0.0, 9.0)])
        vec = _kernel_probs([g], tight)
        assert 0.0 <= vec[0] <= 1.0
        assert vec[0] == g.prob_interval(tight)


class TestBatchMass:
    def test_matches_scalar_for_floored_and_raw(self):
        sets = _interval_sets()
        pdfs = []
        for i, base in enumerate(_family_zoo()):
            pdfs.append(FlooredPdf(base, sets[i % len(sets)]))
        pdfs += _family_zoo()  # raw families: mass exactly 1
        pdfs.append(DiscretePdf({0.0: 0.3, 2.0: 0.5}))
        vec = _batch_probabilities(pdfs)
        for i, p in enumerate(pdfs):
            assert vec[i] == p.mass(), repr(p)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(-50, 50),
    sd=st.floats(0.01, 20),
    lo=st.floats(-100, 100),
    width=st.floats(0, 100),
)
def test_gaussian_kernel_property(mu, sd, lo, width):
    _assert_kernel_matches_scalar(GaussianPdf(mu, sd), lo, width)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-50, 50),
    width_pdf=st.floats(0.01, 40),
    qlo=st.floats(-100, 100),
    width=st.floats(0, 100),
)
def test_uniform_kernel_property(lo, width_pdf, qlo, width):
    _assert_kernel_matches_scalar(UniformPdf(lo, lo + width_pdf), qlo, width)


def _discrete_zoo():
    rng = np.random.default_rng(11)
    pdfs = []
    for _ in range(6):
        pdfs.append(BernoulliPdf(float(0.05 + 0.9 * rng.random())))
        pdfs.append(BinomialPdf(int(1 + rng.integers(20)), float(0.05 + 0.9 * rng.random())))
        pdfs.append(PoissonPdf(float(0.2 + 10 * rng.random())))
    return pdfs


def _assert_materialized_like_scalar(pdfs):
    """A selection leaves each symbolic discrete row bit for bit as its scalar
    ``restrict``: the pdf itself under a region that covers its support,
    otherwise its ``materialize()`` floored to the region."""
    for allowed in (
        IntervalSet([Interval(-INF, INF)]),
        IntervalSet([Interval(-0.5, 2.5)]),
        IntervalSet([Interval(1.0, INF, closed_lo=False)]),
    ):
        for pdf, out in zip(pdfs, _selected(pdfs, allowed)):
            ref = pdf.restrict(BoxRegion({"x": allowed}))
            if ref.mass() <= TAIL_MASS:  # the tuple vanishes
                assert out is None
                continue
            assert type(out) is type(ref)
            assert out.attrs == ref.attrs
            if isinstance(ref, DiscretePdf):
                np.testing.assert_array_equal(out.values, ref.values)
                np.testing.assert_array_equal(out.probs, ref.probs)
            else:
                assert ref is pdf and out == pdf


class TestBatchMaterialize:
    def test_matches_scalar_materialize_bitwise(self):
        _assert_materialized_like_scalar(_discrete_zoo())

    def test_mixed_batch_falls_back_per_element(self):
        pdfs = [BinomialPdf(5, 0.4), GeometricPdf(0.3), PoissonPdf(3.0), BinomialPdf(3, 0.9)]
        _assert_materialized_like_scalar(pdfs)
        # ... also when kernel rows sit between them in the same batch
        mixed = [pdfs[0], GaussianPdf(2, 1), pdfs[1], UniformPdf(0, 4), pdfs[2], pdfs[3]]
        _assert_selected_masses_match_scalar(mixed, _interval_sets())

    def test_empty_batch(self):
        assert _selected([], IntervalSet([Interval(-1.0, 1.0)])) == []
        assert _batch_probabilities([]) == []

    def test_interval_probs_route_discrete_families(self):
        _assert_selected_masses_match_scalar(_discrete_zoo(), _interval_sets())

    def test_batch_mass_discrete_families_is_one(self):
        pdfs = _discrete_zoo()
        vec = _batch_probabilities(pdfs)
        for i, p in enumerate(pdfs):
            assert vec[i] == p.mass() == 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), p=st.floats(0.01, 0.99))
def test_binomial_batch_materialize_property(n, p):
    _assert_materialized_like_scalar([BinomialPdf(n, p)])


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(0.01, 80))
def test_poisson_batch_materialize_property(rate):
    _assert_materialized_like_scalar([PoissonPdf(rate)])


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.01, 0.99), qlo=st.floats(-2, 40), width=st.floats(0, 50))
def test_geometric_kernel_property(p, qlo, width):
    pdf = GeometricPdf(p)
    _assert_selected_masses_match_scalar(
        [pdf, pdf], [IntervalSet([Interval(qlo, qlo + width)])]
    )


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99))
def test_geometric_batch_materialize_property(p):
    _assert_materialized_like_scalar([GeometricPdf(p)])


def test_geometric_degenerate_p_one_raises_identically():
    """GeometricPdf(1.0) has a degenerate scipy support (its quantiles
    collapse to 0, outside the support), so the family refuses p = 1: the
    scalar method and a selection over such a row fail the same way rather
    than the batch path silently diverging."""
    from repro.errors import InvalidDistributionError

    with pytest.raises(InvalidDistributionError):
        GeometricPdf(1.0).materialize()
    with pytest.raises(InvalidDistributionError):
        _selected([GaussianPdf(0, 1), GeometricPdf(1.0)], IntervalSet([Interval(0.0, 5.0)]))


# ---------------------------------------------------------------------------
# Triangular: hypothesis equivalence vs scalar
# ---------------------------------------------------------------------------


def _assert_kernel_matches_scalar(pdf, lo, width):
    """interval_probs_params vs scalar, bitwise."""
    allowed = IntervalSet([Interval(lo, lo + width)])
    expected = float(pdf.prob_interval(allowed))
    vec = _kernel_probs([pdf, pdf], allowed)
    assert vec[0] == expected
    assert vec[1] == expected


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(-50, 50),
    mode_off=st.floats(0.01, 20),
    hi_off=st.floats(0.01, 20),
    qlo=st.floats(-80, 80),
    width=st.floats(0, 100),
)
def test_triangular_kernel_property(lo, mode_off, hi_off, qlo, width):
    pdf = TriangularPdf(lo, lo + mode_off, lo + mode_off + hi_off)
    _assert_kernel_matches_scalar(pdf, qlo, width)


def test_new_families_in_vector_registry():
    """The kernel sweeps exactly the three continuous families; a gather
    without its cdf (or the reverse) could not be swept."""
    three = {GaussianPdf, UniformPdf, TriangularPdf}
    assert set(kernels.FAMILY_PARAMS) == set(kernels._FAMILY_CDF) == three


# ---------------------------------------------------------------------------
# Histogram vector path
# ---------------------------------------------------------------------------


def _histogram_zoo():
    rng = np.random.default_rng(23)
    pdfs = []
    for buckets in (1, 2, 5, 5, 8):  # repeated counts exercise the grouping
        edges = np.sort(rng.uniform(-5, 5, buckets + 1))
        while np.any(np.diff(edges) <= 0):
            edges = np.sort(rng.uniform(-5, 5, buckets + 1))
        masses = rng.random(buckets)
        masses = masses / masses.sum()
        pdfs.append(HistogramPdf(edges.tolist(), masses.tolist()))
    return pdfs


class TestHistogramKernel:
    def test_matches_scalar_bitwise(self):
        _assert_selected_masses_match_scalar(_histogram_zoo() * 2, _interval_sets())

    def test_mixed_with_symbolic_families(self):
        pdfs = _histogram_zoo() + _family_zoo()[:10] + _discrete_zoo()[:6]
        _assert_selected_masses_match_scalar(pdfs, _interval_sets())

    def test_batch_mass_histograms(self):
        pdfs = _histogram_zoo()
        floors = [
            FlooredPdf(p, IntervalSet([Interval(-1.0, 1.5)])) for p in pdfs
        ]
        vec = _batch_probabilities(pdfs + floors)
        for i, p in enumerate(pdfs + floors):
            assert vec[i] == min(p.mass(), 1.0), repr(p)  # Pr() clamps fp excess


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    buckets=st.integers(1, 10),
    qlo=st.floats(-10, 10),
    width=st.floats(0, 15),
)
def test_histogram_kernel_property(data, buckets, qlo, width):
    cuts = data.draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False),
            min_size=buckets + 1,
            max_size=buckets + 1,
            unique=True,
        )
    )
    edges = sorted(cuts)
    masses = data.draw(
        st.lists(
            st.floats(0.01, 1.0), min_size=buckets, max_size=buckets
        )
    )
    total = sum(masses)
    masses = [m / total for m in masses]
    pdf = HistogramPdf(edges, masses)
    _assert_selected_masses_match_scalar(
        [pdf, pdf], [IntervalSet([Interval(qlo, qlo + width)])]
    )
