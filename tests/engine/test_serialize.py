"""Serialization round-trip tests for values, every pdf kind, and tuples."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import AncestorLink, AncestorRef
from repro.core.model import ProbabilisticTuple
from repro.engine.storage.serialize import (
    decode_pdf,
    decode_tuple,
    decode_value,
    encode_pdf,
    encode_tuple,
    encode_value,
    pdf_size,
)
from repro.errors import SerializationError
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
        out, _ = decode_pdf(encode_pdf(pdf))
        support = pdf.support()
        points = {
            a: np.linspace(lo, hi, 7) for a, (lo, hi) in support.items()
        }
        assert np.allclose(out.density(points), pdf.density(points), atol=1e-12)


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
