"""Serialization round-trip tests for values, every pdf kind, and tuples."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import AncestorLink, AncestorRef, fresh_lineage
from repro.core.model import ModelConfig, ProbabilisticTuple
from repro.engine.database import Database
from repro.engine.executor.spill import SpillFile
from repro.engine.storage.serialize import (
    decode_pdf,
    decode_prefix,
    decode_tuple,
    decode_value,
    encode_pdf,
    encode_tuple,
    encode_value,
    pdf_size,
)
from repro.errors import ReproError, SerializationError
from repro.pdf import (
    BernoulliPdf,
    BinomialPdf,
    BoxRegion,
    CategoricalPdf,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    IntervalSet,
    JointDiscretePdf,
    JointGaussianPdf,
    PoissonPdf,
    ProductPdf,
    TriangularPdf,
    UniformPdf,
)


class TestValues:
    @pytest.mark.parametrize(
        "value", [None, 0, -5, 2**40, 3.14159, -0.0, True, False, "", "héllo 'quoted'"]
    )
    def test_roundtrip(self, value):
        data = encode_value(value)
        out, offset = decode_value(data)
        assert out == value
        assert type(out) is type(value)
        assert offset == len(data)

    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(object())

    def test_bad_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode_value(b"\xff")


ALL_PDFS = [
    GaussianPdf(20, 5, attr="value"),
    UniformPdf(-3, 7, attr="u"),
    TriangularPdf(0, 1, 4, attr="t"),
    BernoulliPdf(0.25, attr="flag"),
    BinomialPdf(12, 0.4, attr="n"),
    PoissonPdf(6.5, attr="p"),
    GeometricPdf(0.1, attr="geo"),
    DiscretePdf({0: 0.1, 1: 0.9}, attr="d"),
    DiscretePdf({-2.5: 0.3, 1e6: 0.2}, attr="partial"),
    CategoricalPdf({"cat": 0.7, "dog": 0.3}, attr="animal"),
    HistogramPdf([0, 1, 3, 7], [0.2, 0.3, 0.5], attr="h"),
    FlooredPdf(GaussianPdf(5, 1, attr="f"), IntervalSet.less_than(5)),
    FlooredPdf(
        GaussianPdf(0, 1, attr="f2"),
        IntervalSet.between(-1, 0).union(IntervalSet.greater_than(2)),
    ),
    JointDiscretePdf(("a", "b"), {(0, 1): 0.06, (0, 2): 0.04, (1, 2): 0.36}),
    JointGaussianPdf(("x", "y"), [1, 2], [[2, 0.5], [0.5, 1]]),
    GaussianPdf(0, 1, attr="gg").to_grid(),
    DiscretePdf({1: 0.5, 2: 0.5}, attr="k").to_grid(),
    ProductPdf(
        [GaussianPdf(0, 1, attr="x"), DiscretePdf({1: 0.5, 2: 0.5}, attr="k")],
        weight=0.75,
    ),
]


@pytest.mark.parametrize("pdf", ALL_PDFS, ids=lambda p: f"{type(p).__name__}:{p.attrs}")
class TestPdfRoundtrip:
    def test_roundtrip_equality(self, pdf):
        data = encode_pdf(pdf)
        out, offset = decode_pdf(data)
        assert offset == len(data)
        assert out.attrs == pdf.attrs
        assert type(out) is type(pdf)
        assert out.mass() == pytest.approx(pdf.mass(), abs=1e-12)

    def test_roundtrip_density(self, pdf):
        """The decoded pdf is the same distribution: its op-cache identity,
        or its equality where the family has no fingerprint."""
        out, _ = decode_pdf(encode_pdf(pdf))
        if pdf.fingerprint() is None:
            assert out == pdf
        else:
            assert out.fingerprint() == pdf.fingerprint()


class TestPdfEdgeCases:
    def test_null_pdf(self):
        out, offset = decode_pdf(encode_pdf(None))
        assert out is None and offset == 1

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode_pdf(b"\xfe")

    @pytest.mark.parametrize(
        "tag,family",
        [(12, "EXPONENTIAL"), (14, "GAMMA"), (15, "LOGNORMAL"), (16, "BETA"), (17, "WEIBULL")],
    )
    def test_retired_tag_names_the_removed_family(self, tag, family):
        """A record written when the family existed: tag, attribute name,
        one or two IEEE doubles.  Decoding refuses it by name."""
        name = b"v"
        record = bytes([tag]) + struct.pack("<H", len(name)) + name + struct.pack("<2d", 2.0, 1.0)
        with pytest.raises(SerializationError, match=family):
            decode_pdf(record)
        # ... also as a factor nested in a product record
        product = encode_pdf(ProductPdf([GaussianPdf(0, 1, attr="w"), UniformPdf(0, 1)]))
        nested = product[: -len(encode_pdf(UniformPdf(0, 1)))] + record
        with pytest.raises(SerializationError, match=family):
            decode_pdf(nested)

    def test_pdf_size_ordering(self):
        """The storage claim behind Figure 5: symbolic < hist-5 < discrete-25."""
        from repro.pdf import discretize, to_histogram

        g = GaussianPdf(50, 4, attr="value")
        symbolic = pdf_size(g)
        hist5 = pdf_size(to_histogram(g, 5))
        disc25 = pdf_size(discretize(g, 25))
        assert symbolic < hist5 < disc25

    def test_pdf_size_is_pinned(self):
        """Figure 5's per-pdf bytes: a tag, the inline name ``value`` (u16
        length + 5), then two doubles / 6 edges + 5 masses / 25 values + 25
        probabilities, each array behind a u32 count."""
        from repro.pdf import discretize, to_histogram

        g = GaussianPdf(50, 4, attr="value")
        assert pdf_size(g) == 1 + 7 + 2 * 8 == 24
        assert pdf_size(to_histogram(g, 5)) == 1 + 7 + (4 + 6 * 8) + (4 + 5 * 8) == 104
        assert pdf_size(discretize(g, 25)) == 1 + 7 + 2 * (4 + 25 * 8) == 416

    def test_floored_roundtrip_preserves_intervals(self):
        allowed = IntervalSet.between(1, 2, closed_lo=False).union(
            IntervalSet.greater_than(5, inclusive=True)
        )
        f = FlooredPdf(UniformPdf(0, 10, attr="x"), allowed)
        out, _ = decode_pdf(encode_pdf(f))
        assert out.allowed == allowed

    def test_categorical_roundtrip_labels(self):
        c = CategoricalPdf({"alpha": 0.5, "beta": 0.5}, attr="tag")
        out, _ = decode_pdf(encode_pdf(c))
        assert dict(out.label_items()) == pytest.approx(dict(c.label_items()))


class TestTupleRoundtrip:
    def _tuple(self):
        dep = frozenset({"value"})
        ref = AncestorRef(7, dep)
        link = AncestorLink.identity(ref).renamed({"value": "v2"})
        return ProbabilisticTuple(
            42,
            {"id": 1, "name": "sensor-1", "ok": True, "note": None},
            {dep: GaussianPdf(20, 5, attr="value"), frozenset({"w"}): None},
            {dep: frozenset({link}), frozenset({"w"}): frozenset()},
        )

    def test_roundtrip_full(self):
        t = self._tuple()
        out, offset = decode_tuple(encode_tuple(t))
        assert offset == len(encode_tuple(t))
        assert out.tuple_id == 42
        assert out.certain == t.certain
        assert out.pdfs[frozenset({"value"})] == t.pdfs[frozenset({"value"})]
        assert out.pdfs[frozenset({"w"})] is None
        assert out.lineage == t.lineage

    def test_without_lineage(self):
        t = self._tuple()
        out, _ = decode_tuple(encode_tuple(t, store_lineage=False))
        assert out.lineage[frozenset({"value"})] == frozenset()

    def test_lineage_makes_records_bigger(self):
        t = self._tuple()
        assert len(encode_tuple(t)) > len(encode_tuple(t, store_lineage=False))


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.dictionaries(
        st.floats(min_value=-1e6, max_value=1e6).map(lambda x: round(x, 6)),
        st.floats(min_value=0.001, max_value=1.0),
        min_size=1,
        max_size=12,
    )
)
def test_discrete_roundtrip_property(pairs):
    total = sum(pairs.values())
    d = DiscretePdf({k: v / total for k, v in pairs.items()}, attr="v")
    out, _ = decode_pdf(encode_pdf(d))
    assert out == d


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(min_value=-1e6, max_value=1e6),
    var=st.floats(min_value=1e-6, max_value=1e6),
)
def test_gaussian_roundtrip_property(mean, var):
    g = GaussianPdf(mean, var, attr="v")
    out, _ = decode_pdf(encode_pdf(g))
    assert out == g


# ---------------------------------------------------------------------------
# Heap record format v6: every name once per record, a base pdf's history a marker
# ---------------------------------------------------------------------------


def assert_roundtrip(t, **kwargs):
    """``decode(encode(t)) == t``, field by field (tuples have no ``__eq__``)."""
    record = encode_tuple(t, **kwargs)
    out, end = decode_tuple(record)
    assert end == len(record)
    assert out.tuple_id == t.tuple_id
    assert out.certain == t.certain
    assert [type(v) for v in out.certain.values()] == [type(t.certain[k]) for k in out.certain]
    assert {dep: encode_pdf(pdf) for dep, pdf in out.pdfs.items()} == {
        dep: encode_pdf(pdf) for dep, pdf in t.pdfs.items()
    }
    if kwargs.get("store_lineage", True):
        assert out.lineage == t.lineage
    assert encode_tuple(out, **kwargs) == record  # one canonical encoding
    return record


_NAMES = st.text(
    st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)


@st.composite
def _tuples(draw):
    """A tuple over arbitrary (non-ASCII included) names: certain columns,
    single and joint sets, NULL and partial pdfs, and base, empty or derived
    histories -- renamed links and links that only resemble a base one."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=9, unique=True))
    n_certain = draw(st.integers(0, len(names)))
    certain = {name: draw(_VALUES) for name in names[:n_certain]}
    tuple_id = draw(st.integers(1, 2**40))
    pdfs, lineage = {}, {}
    rest = names[n_certain:]
    while rest:
        size = draw(st.integers(1, min(2, len(rest))))
        attrs, rest = tuple(rest[:size]), rest[size:]
        dep = frozenset(attrs)
        if draw(st.booleans()) and draw(st.booleans()):
            pdfs[dep], lineage[dep] = None, frozenset()
            continue
        if size == 1:
            pdf = GaussianPdf(draw(st.floats(-1e3, 1e3)), draw(st.floats(0.1, 10)), attr=attrs[0])
            if draw(st.booleans()):  # a partial pdf
                pdf = FlooredPdf(pdf, IntervalSet.less_than(draw(st.floats(-1e3, 1e3))))
        else:
            pdf = JointDiscretePdf(attrs, {(0.0, 1.0): 0.25, (2.0, 3.0): 0.75})
        pdfs[dep] = pdf
        kind = draw(st.sampled_from(["base", "none", "derived", "lookalike"]))
        if kind == "base":
            lineage[dep] = fresh_lineage(AncestorRef(tuple_id, dep))
        elif kind == "none":
            lineage[dep] = frozenset()
        elif kind == "lookalike":  # own id and set, but renamed: not a base history
            ref = AncestorRef(tuple_id, dep)
            lineage[dep] = frozenset({AncestorLink.identity(ref).renamed({attrs[0]: attrs[0] + "'"})})
        else:
            links = set()
            for _ in range(draw(st.integers(1, 3))):
                bases = draw(st.lists(_NAMES, min_size=len(attrs), max_size=len(attrs), unique=True))
                ref = AncestorRef(draw(st.integers(1, 2**40)), frozenset(bases))
                links.add(AncestorLink(ref, tuple(sorted(zip(bases, attrs)))))
            lineage[dep] = frozenset(links)
    return ProbabilisticTuple(tuple_id, certain, pdfs, lineage)


@settings(max_examples=150, deadline=None)
@given(t=_tuples())
def test_record_roundtrip_property(t):
    assert_roundtrip(t)
    assert_roundtrip(t, store_lineage=False)


def test_base_record_names_each_attribute_once():
    """Every name is in the table once; outside it and the pdf payload's own
    name a record holds no name text, and a base history is 2 bytes."""
    dep = frozenset({"l_quantity"})
    t = ProbabilisticTuple(
        9,
        {"l_orderkey": 1, "l_comment": None},
        {dep: DiscretePdf({44: 0.2, 45: 0.8}, attr="l_quantity")},
        {dep: fresh_lineage(AncestorRef(9, dep))},
    )
    record = assert_roundtrip(t)
    assert decode_prefix(record).names == ("l_comment", "l_orderkey", "l_quantity")
    assert record.count(b"l_orderkey") == 1
    assert record.count(b"l_quantity") == 2  # the table and the pdf payload
    no_history = encode_tuple(t, store_lineage=False)
    assert len(record) == len(no_history)  # the marker is as long as an empty history


def test_engine_rows_roundtrip():
    """Base rows with NULL pdfs and NULL certain values, a joint set, an
    updated row, phantom sets (CTAS of a projection) and a CTAS of a
    self-join whose links are renamed: every stored record round-trips."""
    db = Database()
    db.execute("CREATE TABLE s (id INT, label TEXT, x REAL, y REAL, v REAL UNCERTAIN, DEPENDENCY (x, y))")
    db.execute("INSERT INTO s VALUES (1, 'é', JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]]), GAUSSIAN(1, 2))")
    db.execute("INSERT INTO s VALUES (2, NULL, JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1), NULL)")
    db.execute("UPDATE s SET v = GAUSSIAN(21, 1) WHERE id = 1")
    db.execute("CREATE TABLE p AS SELECT id, x FROM s WHERE x > 1")
    db.execute("CREATE TABLE j AS SELECT a.id, b.id, a.v, b.v FROM s a, s b WHERE a.id <= b.id")
    assert db.table("p").schema.phantom_attrs == {"y"}
    renamed = [
        link
        for _rid, t in db.table("j").scan()
        for lin in t.lineage.values()
        for link in lin
        if link.mapping != tuple((a, a) for a in sorted(link.ref.attrs))
    ]
    assert renamed
    for name in ("s", "p", "j"):
        rows = list(db.table(name).scan())
        assert rows
        for _rid, t in rows:
            assert_roundtrip(t)


def test_spilled_join_rows_roundtrip(tmp_path):
    """Join result rows carry renamed histories; a spill file gives them
    back equal, and a join spilled under ``work_mem=1`` equals the
    in-memory one row for row."""
    sql = "SELECT a.rid, b.rid, a.v, b.v FROM r a, r b WHERE a.k = b.k"
    results = []
    for work_mem in (None, 1):
        db = Database(config=ModelConfig(work_mem=work_mem))
        db.execute("CREATE TABLE r (rid INT, k INT, v REAL UNCERTAIN)")
        for i in range(12):
            pdf = "NULL" if i % 5 == 0 else f"GAUSSIAN({i}, 1)"
            db.execute(f"INSERT INTO r VALUES ({i}, {i % 3}, {pdf})")
        results.append(db.execute(sql).rows)
    in_memory, spilled = results
    assert len(in_memory) == len(spilled) == 48
    spill = SpillFile(str(tmp_path / "run"))
    for seq, t in enumerate(in_memory):
        spill.append(seq, t)
    back = list(spill.read())
    for (seq, out, _extra), t, s in zip(back, in_memory, spilled):
        assert encode_tuple(out) == encode_tuple(t) == encode_tuple(s)
        assert out.lineage == t.lineage == s.lineage
        assert_roundtrip(t)


def _wide(n_certain, links=()):
    dep = frozenset({"v"})
    lineage = frozenset(links) or fresh_lineage(AncestorRef(1, dep))
    return ProbabilisticTuple(
        1,
        {f"c{i}": i for i in range(n_certain)},
        {dep: GaussianPdf(0, 1, attr="v")},
        {dep: lineage},
    )


def test_255_names_fit_256_are_refused():
    assert_roundtrip(_wide(254))  # 254 certain columns + v
    with pytest.raises(SerializationError, match="at most 255"):
        encode_tuple(_wide(255))


def test_names_added_by_a_history_count_toward_the_limit():
    base = [f"b{i}" for i in range(3)]
    link = AncestorLink(AncestorRef(5, frozenset(base)), tuple((b, "v") for b in base))
    assert_roundtrip(_wide(251, [link]))  # 251 + v + 3 base names
    with pytest.raises(SerializationError, match="at most 255"):
        encode_tuple(_wide(252, [link]))


def test_a_wide_table_is_refused_by_insert_and_left_empty():
    db = Database()
    columns = ", ".join(f"c{i} INT" for i in range(256))
    db.execute(f"CREATE TABLE wide ({columns})")
    with pytest.raises(ReproError):
        db.execute(f"INSERT INTO wide VALUES ({', '.join(['1'] * 256)})")
    assert db.execute("SELECT * FROM wide").rows == []


def test_nul_in_a_name_is_refused():
    t = ProbabilisticTuple(1, {"a\x00b": 1}, {}, {})
    with pytest.raises(SerializationError, match="NUL"):
        encode_tuple(t)
