"""The relabel contract of ``Pdf.with_attrs`` / ``Pdf.rename``.

A relabel is not a rebuild: it returns ``self`` when the names are
unchanged and otherwise a clone that shares every parameter array and
parameter dict.  For every kind of pdf the clone must be indistinguishable
from the pdf rebuilt through its validating public constructor under the
new names — which is what ``with_attrs`` used to do, and what
:func:`_rebuilt` keeps as the reference.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine.storage.serialize import encode_pdf
from repro.errors import DimensionMismatchError
from repro.pdf import (
    BoxRegion,
    CategoricalPdf,
    ContinuousAxis,
    DiscreteAxis,
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    HistogramPdf,
    Interval,
    IntervalSet,
    JointDiscretePdf,
    JointGaussianPdf,
    JointGridPdf,
    ProductPdf,
    UniformPdf,
)
from repro.pdf.continuous import ContinuousPdf
from repro.pdf.discrete import SymbolicDiscretePdf

from ..engine.test_columnar_equivalence import ZOO_KINDS, _pdf_for


def _zoo():
    """The univariate kinds of the columnar zoo, then the kinds it lacks."""
    pdfs = [_pdf_for(i) for i in range(ZOO_KINDS - 1)]
    pdfs.append(CategoricalPdf({"cat": 0.5, "dog": 0.25}, attr="v"))
    pdfs.append(JointDiscretePdf(("a", "b"), {(0, 1): 0.06, (0, 2): 0.04, (1, 2): 0.36}))
    pdfs.append(JointGaussianPdf(("a", "b"), [0.0, 1.0], [[1.0, 0.5], [0.5, 2.0]]))
    pdfs.append(
        JointGridPdf(
            (ContinuousAxis("a", [0.0, 1.0, 2.5]), DiscreteAxis("b", [1.0, 4.0, 9.0])),
            np.array([[0.1, 0.2, 0.05], [0.3, 0.05, 0.1]]),
        )
    )
    floored = GaussianPdf(0, 1, attr="b").restrict(
        BoxRegion({"b": IntervalSet([Interval(-1.0, 2.0)])})
    )
    pdfs.append(ProductPdf([UniformPdf(0, 2, attr="a"), floored], weight=0.5))
    return pdfs


ZOO = _zoo()
_IDS = [type(p).__name__ for p in ZOO]


def _names(pdf, prefix="n"):
    return [f"{prefix}{i}" for i in range(pdf.arity)]


def _rebuilt(pdf, names):
    """``pdf`` built again through its public constructor over ``names``."""
    if isinstance(pdf, (ContinuousPdf, SymbolicDiscretePdf)):
        return type(pdf)(attr=names[0], **pdf.params)
    if isinstance(pdf, CategoricalPdf):
        return CategoricalPdf(dict(pdf.label_items()), attr=names[0])
    if isinstance(pdf, DiscretePdf):
        return DiscretePdf(dict(pdf.items()), attr=names[0])
    if isinstance(pdf, HistogramPdf):
        return HistogramPdf(pdf.edges, pdf.masses, attr=names[0])
    if isinstance(pdf, FlooredPdf):
        return FlooredPdf(_rebuilt(pdf.base, names), pdf.allowed)
    if isinstance(pdf, JointDiscretePdf):
        return JointDiscretePdf(names, pdf.table)
    if isinstance(pdf, JointGaussianPdf):
        return JointGaussianPdf(names, pdf.mean_vec, pdf.cov)
    if isinstance(pdf, JointGridPdf):
        axes = [
            ContinuousAxis(n, a.edges) if isinstance(a, ContinuousAxis) else DiscreteAxis(n, a.values)
            for a, n in zip(pdf.axes, names)
        ]
        return JointGridPdf(axes, pdf.masses)
    assert isinstance(pdf, ProductPdf)
    mapping = dict(zip(pdf.attrs, names))
    return ProductPdf(
        [_rebuilt(f, [mapping[a] for a in f.attrs]) for f in pdf.factors], weight=pdf.weight
    )


def _same(a, b) -> bool:
    if isinstance(a, ProductPdf):  # the one kind without __eq__
        return (
            isinstance(b, ProductPdf)
            and a.attrs == b.attrs
            and a.weight == b.weight
            and all(_same(x, y) for x, y in zip(a.factors, b.factors))
        )
    return a == b


def _arrays(pdf):
    """Every parameter array a pdf holds (recursively), in a fixed order."""
    if isinstance(pdf, FlooredPdf):
        return _arrays(pdf.base)
    if isinstance(pdf, ProductPdf):
        return [arr for f in pdf.factors for arr in _arrays(f)]
    if isinstance(pdf, JointGridPdf):
        cells = [a.edges if isinstance(a, ContinuousAxis) else a.values for a in pdf.axes]
        return [pdf.masses, *cells]
    names = ("_values", "_probs", "_edges", "_masses", "mean_vec", "cov")
    return [getattr(pdf, n) for n in names if hasattr(pdf, n)]


def _handles(pdf):
    """Shared non-array state: parameter dicts and tuples, tables."""
    if isinstance(pdf, FlooredPdf):
        return [pdf.allowed, *_handles(pdf.base)]
    if isinstance(pdf, ProductPdf):
        return [h for f in pdf.factors for h in _handles(f)]
    names = ("_params", "_args", "_table")
    return [pdf.__dict__[n] for n in names if n in pdf.__dict__]


@pytest.mark.parametrize("pdf", ZOO, ids=_IDS)
class TestRelabel:
    def test_equals_the_rebuilt_pdf(self, pdf):
        names = _names(pdf)
        clone = pdf.with_attrs(names)
        assert clone.attrs == tuple(names)
        assert type(clone) is type(pdf)
        assert _same(clone, _rebuilt(pdf, names))
        assert encode_pdf(clone) == encode_pdf(_rebuilt(pdf, names))
        assert pdf.attrs != tuple(names)  # the original is untouched

    def test_shares_parameters(self, pdf):
        clone = pdf.with_attrs(_names(pdf))
        arrays = _arrays(pdf)
        assert len(arrays) == len(_arrays(clone))
        for mine, theirs in zip(arrays, _arrays(clone)):
            assert np.shares_memory(mine, theirs)
        handles = _handles(pdf)
        assert arrays or handles
        for mine, theirs in zip(handles, _handles(clone)):
            assert mine is theirs

    def test_unchanged_names_return_self(self, pdf):
        assert pdf.with_attrs(pdf.attrs) is pdf
        assert pdf.with_attrs(list(pdf.attrs)) is pdf
        assert pdf.rename({"unrelated": "z"}) is pdf

    def test_rename_maps_by_name(self, pdf):
        mapping = {pdf.attrs[0]: "renamed"}
        out = pdf.rename(mapping)
        assert out.attrs == ("renamed", *pdf.attrs[1:])
        assert _same(out, pdf.with_attrs(out.attrs))

    def test_fingerprint_follows_the_names(self, pdf):
        pdf.fingerprint()  # memoised on the original before the clone is cut
        clone = pdf.with_attrs(_names(pdf))
        back = clone.with_attrs(pdf.attrs)
        assert back is not pdf
        assert back.fingerprint() == pdf.fingerprint()
        assert clone.fingerprint() == _rebuilt(pdf, _names(pdf)).fingerprint()
        if pdf.fingerprint() is not None:
            assert clone.fingerprint() != pdf.fingerprint()

    def test_operations_are_bitwise_those_of_the_rebuilt_pdf(self, pdf):
        names = _names(pdf)
        clone, rebuilt = pdf.with_attrs(names), _rebuilt(pdf, names)
        assert clone.mass() == rebuilt.mass()
        assert clone.support() == rebuilt.support()
        lo, hi = rebuilt.support()[names[0]]
        region = BoxRegion({names[0]: IntervalSet([Interval(lo, (lo + hi) / 2.0)])})
        assert encode_pdf(clone.restrict(region)) == encode_pdf(rebuilt.restrict(region))
        assert clone.prob(region) == rebuilt.prob(region)
        assert encode_pdf(clone.marginalize(names[:1])) == encode_pdf(
            rebuilt.marginalize(names[:1])
        )

    def test_wrong_arity_and_duplicate_names_raise(self, pdf):
        with pytest.raises(DimensionMismatchError):
            pdf.with_attrs([*pdf.attrs, "extra"])
        with pytest.raises(DimensionMismatchError):
            pdf.with_attrs(pdf.attrs[:-1])
        if pdf.arity > 1:
            with pytest.raises(DimensionMismatchError):
                pdf.with_attrs(["same"] * pdf.arity)

    def test_names_are_coerced_to_str(self, pdf):
        clone = pdf.with_attrs(range(pdf.arity))
        assert clone.attrs == tuple(str(i) for i in range(pdf.arity))

    def test_relabelled_pdf_pickles(self, pdf):
        clone = pickle.loads(pickle.dumps(pdf.with_attrs(_names(pdf))))
        assert _same(clone, _rebuilt(pdf, _names(pdf)))
        if isinstance(pdf, ContinuousPdf):
            assert float(clone.cdf(pdf.mean())) == float(pdf.cdf(pdf.mean()))
