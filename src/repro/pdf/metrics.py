"""Mixture construction.

For the data-cleansing use case from the paper's introduction ("multiple
alternatives for an incorrect value" — naturally a *mixture* of candidate
distributions): :func:`mixture` is the convex combination of alternative
pdfs, exact for discrete inputs, histogram-based for continuous ones.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import PdfError
from .base import UnivariatePdf
from .convert import to_histogram
from .discrete import DiscretePdf
from .histogram import HistogramPdf

__all__ = ["mixture"]


def mixture(
    pdfs: Sequence[UnivariatePdf],
    weights: Sequence[float],
    bins: int = 128,
    attr: str = None,
) -> UnivariatePdf:
    """The convex combination Σ w_i · p_i of alternative distributions.

    Weights must be non-negative and sum to at most 1 (a deficit models
    "none of the alternatives", yielding a partial pdf).  All-discrete
    inputs mix exactly; otherwise the result is a ``bins``-bucket histogram
    over the union of supports.
    """
    if not pdfs:
        raise PdfError("mixture of zero pdfs is undefined")
    if len(pdfs) != len(weights):
        raise PdfError(f"{len(pdfs)} pdfs but {len(weights)} weights")
    weights = [float(w) for w in weights]
    if any(w < 0 for w in weights):
        raise PdfError("mixture weights must be non-negative")
    if sum(weights) > 1.0 + 1e-9:
        raise PdfError(f"mixture weights sum to {sum(weights)} > 1")
    name = attr or pdfs[0].attr

    if all(p.is_discrete for p in pdfs):
        combined: Dict[float, float] = {}
        for pdf, w in zip(pdfs, weights):
            if w == 0:
                continue
            discrete = pdf if isinstance(pdf, DiscretePdf) else None
            if discrete is None:
                materialize = getattr(pdf, "materialize", None)
                if materialize is None:
                    raise PdfError(
                        f"cannot mix discrete pdf of type {type(pdf).__name__}"
                    )
                discrete = materialize()
            for v, p_val in discrete.items():
                combined[v] = combined.get(v, 0.0) + w * p_val
        if not combined:
            raise PdfError("mixture has zero total weight")
        return DiscretePdf(combined, attr=name)

    lo = min(p.support()[p.attr][0] for p in pdfs)
    hi = max(p.support()[p.attr][1] for p in pdfs)
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    masses = np.zeros(bins)
    for pdf, w in zip(pdfs, weights):
        if w == 0:
            continue
        h = to_histogram(pdf, bins, lo=lo, hi=hi)
        masses += w * h.masses
    return HistogramPdf(edges, np.clip(masses, 0.0, None), attr=name)
