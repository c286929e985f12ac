"""Columnar struct-of-arrays execution ≡ batched ≡ scalar.

The columnar path decodes scans into per-family parameter arrays and sweeps
selection and PROB thresholds with fused ufunc kernels
(:mod:`repro.core.columnar`, ``SelectionPlan.apply_columnar``).  These tests
pin the acceptance criterion of the columnar work: for relations spanning
every symbolic family, histogram pdfs, explicit discrete pdfs, floored
partials, and NULLs, all three execution modes produce bitwise-identical
tuples in identical order — same ids, same certain values, same pdfs, same
masses.  Also covered: the EXPLAIN ANALYZE columnar counters and the
relation-level segment cache invalidation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Column,
    DataType,
    ProbabilisticRelation,
    ProbabilisticSchema,
)
from repro.core.expr import ColExpr
from repro.core.history import HistoryStore
from repro.core.model import ModelConfig
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import And, Comparison, col
from repro.engine.catalog import Catalog
from repro.engine.executor import (
    AggSpec,
    Compute,
    Filter,
    GroupAggregate,
    HashJoin,
    ProbFilter,
    Project,
    RelationScan,
    SeqScan,
    ThresholdFilter,
)
from repro.engine.executor.batch import TupleBatch
from repro.engine.executor.columnar import ColumnarBatch
from repro.pdf import (
    BernoulliPdf,
    BetaPdf,
    BinomialPdf,
    BoxRegion,
    DiscretePdf,
    ExponentialPdf,
    GammaPdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    Interval,
    IntervalSet,
    LognormalPdf,
    PoissonPdf,
    TriangularPdf,
    UniformPdf,
    WeibullPdf,
)

BATCH_SIZES = (1, 3, 7, 64)


def _schema():
    return ProbabilisticSchema(
        [Column("sid", DataType.INT), Column("v", DataType.REAL)], [{"v"}]
    )


def _pdf_for(i: int):
    """Deterministic all-families rotation, including edge shapes."""
    kind = i % 16
    if kind == 0:
        return GaussianPdf(i % 11, 1.0 + (i % 3), attr="v")
    if kind == 1:
        return UniformPdf(i % 7, i % 7 + 4.0, attr="v")
    if kind == 2:
        return ExponentialPdf(0.3 + (i % 5) / 5.0, attr="v")
    if kind == 3:
        lo = float(i % 5)
        return TriangularPdf(lo, lo + 1.5, lo + 4.0, attr="v")
    if kind == 4:
        return GammaPdf(1.0 + (i % 4), 0.5 + (i % 3) / 2.0, attr="v")
    if kind == 5:
        return LognormalPdf((i % 5) / 2.0, 0.3 + (i % 3) / 4.0, attr="v")
    if kind == 6:
        return BetaPdf(1.0 + (i % 4), 1.0 + ((i + 1) % 4), attr="v")
    if kind == 7:
        return WeibullPdf(0.8 + (i % 3), 2.0 + (i % 4), attr="v")
    if kind == 8:
        return BernoulliPdf(0.1 + (i % 8) / 10.0, attr="v")
    if kind == 9:
        return BinomialPdf(4 + (i % 9), 0.2 + (i % 6) / 10.0, attr="v")
    if kind == 10:
        return PoissonPdf(1.0 + (i % 7), attr="v")
    if kind == 11:
        return GeometricPdf(0.15 + (i % 7) / 10.0, attr="v")
    if kind == 12:
        return HistogramPdf(
            [float(i % 4), i % 4 + 2.0, i % 4 + 3.0, i % 4 + 6.0],
            [0.2, 0.5, 0.3],
            attr="v",
        )
    if kind == 13:
        return DiscretePdf({float(i % 5): 0.25, i % 5 + 2.0: 0.75}, attr="v")
    if kind == 14:
        # Floored partial: the columnar path must fall back per-row here.
        g = GaussianPdf(i % 9, 2.0, attr="v")
        return g.restrict(
            BoxRegion({"v": IntervalSet([Interval(float(i % 3), float("inf"))])})
        )
    return None  # NULL pdf


def _all_families_relation(n=64):
    rel = ProbabilisticRelation(_schema(), name="zoo")
    for i in range(n):
        rel.insert(certain={"sid": i}, uncertain={"v": _pdf_for(i)})
    return rel


def _assert_bitwise_equal(expected, actual):
    """Tuples equal down to the bit: ids, certain, pdfs, masses, order."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.tuple_id == b.tuple_id
        assert a.certain == b.certain
        assert set(a.pdfs) == set(b.pdfs)
        assert set(a.lineage) == set(b.lineage)
        for dep, pa in a.pdfs.items():
            pb = b.pdfs[dep]
            if pa is None:
                assert pb is None
                continue
            assert type(pa) is type(pb)
            assert pa.attrs == pb.attrs
            assert pa == pb
            assert pa.mass() == pb.mass()  # bitwise, no tolerance


def _three_ways(make_plan):
    """Rows from scalar, legacy-batched, and columnar execution."""
    PDF_OP_CACHE.reset()
    scalar = list(make_plan(False))
    modes = {}
    for size in BATCH_SIZES:
        PDF_OP_CACHE.reset()
        modes[("batched", size)] = [
            t for b in make_plan(False).batches(size) for t in b.tuples
        ]
        PDF_OP_CACHE.reset()
        modes[("columnar", size)] = [
            t for b in make_plan(True).batches(size) for t in b.tuples
        ]
    return scalar, modes


PRED = And([Comparison("v", ">", 2.0), Comparison("v", "<", 7.5)])


def test_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return Filter(RelationScan(rel, columnar=columnar), PRED, rel.store, cfg)

    scalar, modes = _three_ways(make_plan)
    assert len(scalar) > 0
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_threshold_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return ThresholdFilter(
            RelationScan(rel, columnar=columnar), ["v"], ">", 0.3, rel.store, cfg
        )

    scalar, modes = _three_ways(make_plan)
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_prob_filter_columnar_equivalence_all_families():
    rel = _all_families_relation()

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return ProbFilter(
            RelationScan(rel, columnar=columnar),
            Comparison("v", ">", 3.0),
            ">",
            0.25,
            rel.store,
            cfg,
        )

    scalar, modes = _three_ways(make_plan)
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.integers(0, 15), min_size=0, max_size=24),
    lo=st.floats(-2, 8),
    width=st.floats(0.5, 8),
    size=st.sampled_from(BATCH_SIZES),
)
def test_filter_columnar_equivalence_property(kinds, lo, width, size):
    rel = ProbabilisticRelation(_schema(), name="r")
    for i, kind in enumerate(kinds):
        rel.insert(certain={"sid": i}, uncertain={"v": _pdf_for(kind)})
    pred = And([Comparison("v", ">", lo), Comparison("v", "<", lo + width)])

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return Filter(RelationScan(rel, columnar=columnar), pred, rel.store, cfg)

    PDF_OP_CACHE.reset()
    scalar = list(make_plan(False))
    PDF_OP_CACHE.reset()
    columnar_rows = [t for b in make_plan(True).batches(size) for t in b.tuples]
    _assert_bitwise_equal(scalar, columnar_rows)


def test_explain_analyze_reports_columnar_stats():
    rel = _all_families_relation()
    cfg = ModelConfig(columnar=True)
    plan = Filter(RelationScan(rel, columnar=True), PRED, rel.store, cfg)
    for _ in plan.batches(16):
        pass
    text = plan.explain()
    assert "columnar_batches=" in text
    assert "columnar_rows=" in text
    assert "kernels=" in text
    assert "GaussianPdf" in text


def test_columnar_switch_off_yields_plain_batches():
    rel = _all_families_relation(16)
    for batch in RelationScan(rel, columnar=False).batches(8):
        assert type(batch) is TupleBatch
    for batch in RelationScan(rel, columnar=True).batches(8):
        assert type(batch) is ColumnarBatch


def test_project_identity_preserves_columnar_batches():
    rel = _all_families_relation(16)
    plan = Project(RelationScan(rel, columnar=True), ["sid", "v"])
    batches = list(plan.batches(8))
    assert all(type(b) is ColumnarBatch for b in batches)
    assert [t.tuple_id for b in batches for t in b.tuples] == [
        t.tuple_id for t in rel.tuples
    ]


def test_segment_cache_invalidated_on_mutation():
    rel = _all_families_relation(8)
    seg = rel.columnar_segment()
    assert rel.columnar_segment() is seg  # cached
    rel.insert(certain={"sid": 99}, uncertain={"v": GaussianPdf(0, 1, attr="v")})
    seg2 = rel.columnar_segment()
    assert seg2 is not seg
    assert seg2.n == len(rel.tuples)
    # Scans after the mutation see the new row.
    rows = [t for b in RelationScan(rel, columnar=True).batches(4) for t in b.tuples]
    assert rows[-1].certain["sid"] == 99


def test_stale_segment_falls_back_to_none():
    """A batch whose cached segment no longer matches returns None from
    attr_column, forcing callers onto the reference path."""
    rel = _all_families_relation(8)
    (batch,) = list(RelationScan(rel, columnar=True).batches(16))
    seg = batch.segment
    assert seg is not None
    # Shrink the snapshot under the batch: offset+len now exceeds seg.n.
    batch.offset = seg.n - len(batch.tuples) + 1
    assert batch.attr_column(frozenset({"v"})) is None


# ---------------------------------------------------------------------------
# Columnar hash join / GROUP BY / Compute equivalence
# ---------------------------------------------------------------------------


def _join_relations(n=48, keys=None, null_pdfs=True):
    """Uncertain readings (all pdf families, NULL join keys) + certain dim.

    ``null_pdfs=False`` skips the NULL-pdf rotation slot — EXPECTED over a
    NULL attribute is a QueryError by design, so aggregate workloads need
    the zoo without it.
    """
    store = HistoryStore()
    readings = ProbabilisticRelation(
        ProbabilisticSchema(
            [
                Column("rid", DataType.INT),
                Column("site", DataType.INT),
                Column("v", DataType.REAL),
            ],
            [{"v"}],
        ),
        store=store,
        name="readings",
    )
    for i in range(n):
        if keys is not None:
            site = keys[i % len(keys)]
        else:
            site = None if i % 11 == 10 else i % 6
        kind = i % 15 if not null_pdfs else i
        readings.insert(
            certain={"rid": i, "site": site}, uncertain={"v": _pdf_for(kind)}
        )
    sites = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("site_id", DataType.INT), Column("region", DataType.INT)]
        ),
        store=store,
        name="sites",
    )
    for s in range(6):
        sites.insert(certain={"site_id": s, "region": s % 2})
    return store, readings, sites


def _modes_with_id_reset(store, make_plan):
    """Scalar/batched/columnar rows with the id counter pinned per run.

    Joins and aggregates mint fresh tuple ids; resetting the store's
    counter to the same snapshot before every run makes the id streams —
    and therefore the bitwise comparison — exact, not modulo renumbering.
    """
    id0 = store._next_tuple_id

    def fresh(columnar):
        store._next_tuple_id = id0
        PDF_OP_CACHE.reset()
        return make_plan(columnar)

    scalar = list(fresh(False))
    modes = {}
    for size in BATCH_SIZES:
        modes[("batched", size)] = [
            t for b in fresh(False).batches(size) for t in b.tuples
        ]
        modes[("columnar", size)] = [
            t for b in fresh(True).batches(size) for t in b.tuples
        ]
    store._next_tuple_id = id0
    return scalar, modes


def _make_join(store, readings, sites, predicate=None):
    def make(columnar):
        cfg = ModelConfig(columnar=columnar)
        return HashJoin(
            RelationScan(readings, columnar=columnar),
            RelationScan(sites, columnar=columnar),
            "site",
            "site_id",
            predicate
            if predicate is not None
            else Comparison("site", "=", col("site_id")),
            store,
            cfg,
        )

    return make


def test_hash_join_columnar_equivalence_null_keys():
    store, readings, sites = _join_relations()
    make_plan = _make_join(store, readings, sites)
    scalar, modes = _modes_with_id_reset(store, make_plan)
    # NULL keys never match, everything else does: n minus the NULL rows.
    assert len(scalar) == sum(
        1 for t in readings.tuples if t.certain["site"] is not None
    )
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_hash_join_uncertain_residual_predicate():
    """A probabilistic residual rides along with the key equality."""
    store, readings, sites = _join_relations()
    pred = And(
        [Comparison("site", "=", col("site_id")), Comparison("v", ">", 3.0)]
    )
    make_plan = _make_join(store, readings, sites, predicate=pred)
    scalar, modes = _modes_with_id_reset(store, make_plan)
    assert 0 < len(scalar)
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_hash_join_string_keys_fall_back():
    """TEXT keys cannot ride the float64 probe; the dict path must kick in."""
    store = HistoryStore()
    left = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("rid", DataType.INT), Column("tag", DataType.TEXT)]
        ),
        store=store,
        name="left",
    )
    for i in range(12):
        left.insert(certain={"rid": i, "tag": f"t{i % 3}"})
    right = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("tag_id", DataType.TEXT), Column("label", DataType.TEXT)]
        ),
        store=store,
        name="right",
    )
    for s in range(3):
        right.insert(certain={"tag_id": f"t{s}", "label": f"L{s}"})

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return HashJoin(
            RelationScan(left, columnar=columnar),
            RelationScan(right, columnar=columnar),
            "tag",
            "tag_id",
            Comparison("tag", "=", col("tag_id")),
            store,
            cfg,
        )

    scalar, modes = _modes_with_id_reset(store, make_plan)
    assert len(scalar) == 12
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)
    store._next_tuple_id += 1000
    plan = make_plan(True)
    list(plan.batches(8))
    assert plan.join_probe_kernels == 0  # fell back, never vectorized


def test_hash_join_huge_int_keys_fall_back():
    """Keys >= 2**53 lose bits in float64; the probe must not use them."""
    big = 2**53
    store, readings, sites = _join_relations(keys=[big, big + 1, big + 2])
    sites2 = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("site_id", DataType.INT), Column("region", DataType.INT)]
        ),
        store=store,
        name="sites2",
    )
    for s in range(3):
        sites2.insert(certain={"site_id": big + s, "region": s})
    make_plan = _make_join(store, readings, sites2)
    scalar, modes = _modes_with_id_reset(store, make_plan)
    assert len(scalar) == len(readings.tuples)
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_hash_join_empty_inputs():
    store = HistoryStore()
    readings = ProbabilisticRelation(
        ProbabilisticSchema(
            [
                Column("rid", DataType.INT),
                Column("site", DataType.INT),
                Column("v", DataType.REAL),
            ],
            [{"v"}],
        ),
        store=store,
        name="readings",
    )
    sites = ProbabilisticRelation(
        ProbabilisticSchema(
            [Column("site_id", DataType.INT), Column("region", DataType.INT)]
        ),
        store=store,
        name="sites",
    )
    make_plan = _make_join(store, readings, sites)
    assert list(make_plan(False)) == []
    assert [t for b in make_plan(True).batches(4) for t in b.tuples] == []


def test_hash_join_explain_probe_kernels():
    store, readings, sites = _join_relations()
    plan = _make_join(store, readings, sites)(True)
    list(plan.batches(16))
    assert plan.join_probe_kernels > 0
    assert f"join_probe_kernels={plan.join_probe_kernels}" in plan.explain()


def _make_groupby(store, readings, sites):
    join = _make_join(store, readings, sites)

    def make(columnar):
        cfg = ModelConfig(columnar=columnar)
        return GroupAggregate(
            join(columnar),
            ["region"],
            [AggSpec("count"), AggSpec("expected", "v")],
            store,
            cfg,
        )

    return make


def test_group_aggregate_columnar_equivalence():
    """COUNT + EXPECTED per region over the all-families join stream."""
    store, readings, sites = _join_relations(null_pdfs=False)
    make_plan = _make_groupby(store, readings, sites)
    scalar, modes = _modes_with_id_reset(store, make_plan)
    assert len(scalar) == 2  # two regions
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_group_aggregate_null_group_keys():
    """NULL grouping keys form their own group, as in SQL."""
    store = HistoryStore()
    rel = ProbabilisticRelation(_schema(), store=store, name="r")
    for i in range(24):
        rel.insert(
            certain={"sid": None if i % 5 == 4 else i % 3},
            uncertain={"v": _pdf_for(i % 15)},  # no NULL pdfs: EXPECTED rejects them
        )

    def make_plan(columnar):
        cfg = ModelConfig(columnar=columnar)
        return GroupAggregate(
            RelationScan(rel, columnar=columnar),
            ["sid"],
            [AggSpec("count"), AggSpec("expected", "v")],
            store,
            cfg,
        )

    scalar, modes = _modes_with_id_reset(store, make_plan)
    assert len(scalar) == 4  # 0, 1, 2, NULL
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_group_aggregate_explain_groups():
    store, readings, sites = _join_relations(null_pdfs=False)
    plan = _make_groupby(store, readings, sites)(True)
    list(plan.batches(16))
    assert plan.groupby_groups > 0
    assert f"groupby_groups={plan.groupby_groups}" in plan.explain()


def _make_compute(store, readings):
    # rid / site divides by zero for site == 0 and hits NULL site rows:
    # both must come back NULL, bitwise-identically, on every path.
    items = [
        (ColExpr("rid") / ColExpr("site"), "ratio"),
        (ColExpr("rid") * 2.0 + 1.0, "shifted"),
    ]

    def make(columnar):
        cfg = ModelConfig(columnar=columnar)
        return Compute(RelationScan(readings, columnar=columnar), items, store, cfg)

    return make


def test_compute_columnar_equivalence_nulls_div_zero():
    store, readings, _ = _join_relations()
    make_plan = _make_compute(store, readings)
    scalar, modes = _modes_with_id_reset(store, make_plan)
    by_rid = {t.certain["rid"]: t for t in scalar}
    assert by_rid[0].certain["ratio"] is None  # 0 / 0 -> NULL
    assert by_rid[10].certain["ratio"] is None  # NULL site -> NULL
    assert by_rid[7].certain["ratio"] == 7.0  # 7 / 1
    for rows in modes.values():
        _assert_bitwise_equal(scalar, rows)


def test_compute_explain_kernels():
    store, readings, _ = _join_relations()
    plan = _make_compute(store, readings)(True)
    list(plan.batches(16))
    assert plan.compute_kernels > 0
    assert f"compute_kernels={plan.compute_kernels}" in plan.explain()


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 5)), st.integers(0, 14)
        ),
        min_size=0,
        max_size=24,
    ),
    size=st.sampled_from(BATCH_SIZES),
)
def test_join_groupby_columnar_equivalence_property(data, size):
    """Random key/pdf mixes: join + GROUP BY agree scalar vs columnar."""
    store, readings, sites = _join_relations(n=0)
    for i, (site, kind) in enumerate(data):
        readings.insert(
            certain={"rid": i, "site": site}, uncertain={"v": _pdf_for(kind)}
        )
    make_plan = _make_groupby(store, readings, sites)
    id0 = store._next_tuple_id
    PDF_OP_CACHE.reset()
    scalar = list(make_plan(False))
    store._next_tuple_id = id0
    PDF_OP_CACHE.reset()
    columnar_rows = [t for b in make_plan(True).batches(size) for t in b.tuples]
    _assert_bitwise_equal(scalar, columnar_rows)


# ---------------------------------------------------------------------------
# Direct page -> segment decoding (SeqScan)
# ---------------------------------------------------------------------------


def _seq_table():
    catalog = Catalog()
    t = catalog.create_table("readings", _schema())
    for i in range(32):
        t.insert(certain={"sid": i}, uncertain={"v": _pdf_for(i)})
    return t


def test_seqscan_direct_decode_counter():
    t = _seq_table()
    scan = SeqScan(t, columnar=True)
    rows = [tp for b in scan.batches(8) for tp in b.tuples]
    assert len(rows) == 32
    assert scan.direct_decode_rows > 0
    assert f"direct_decode_rows={scan.direct_decode_rows}" in scan.explain()


def test_seqscan_direct_decode_off_when_not_columnar():
    t = _seq_table()
    scan = SeqScan(t, columnar=False)
    rows = [tp for b in scan.batches(8) for tp in b.tuples]
    assert len(rows) == 32
    assert scan.direct_decode_rows == 0
    assert "direct_decode_rows=" not in scan.explain()


def test_seqscan_direct_decode_matches_reference():
    t = _seq_table()
    reference = [tp for b in SeqScan(t, columnar=False).batches(8) for tp in b.tuples]
    direct = [tp for b in SeqScan(t, columnar=True).batches(8) for tp in b.tuples]
    _assert_bitwise_equal(reference, direct)
