"""Approximation and conversion between pdf representations.

The paper's Figure 4/5 experiments compare three representations of the same
underlying symbolic pdf:

* the **symbolic** original (exact, constant size),
* a **histogram** approximation with ``b`` buckets (:func:`to_histogram`),
* a **discrete sampling** approximation with ``n`` points
  (:func:`discretize`) — the representation forced on tuple-uncertainty
  models that only support discrete data.

Both approximations preserve total mass exactly; what differs is how range
probabilities degrade, which is precisely what Figure 4 measures.
"""

from __future__ import annotations

import numpy as np

from ..errors import PdfError
from .base import UnivariatePdf
from .discrete import DiscretePdf
from .histogram import HistogramPdf

__all__ = [
    "discretize",
    "to_histogram",
]


def _support_bounds(pdf: UnivariatePdf) -> tuple:
    (lo, hi) = pdf.support()[pdf.attr]
    if hi <= lo:
        hi = lo + 1e-9
    return lo, hi


def discretize(pdf: UnivariatePdf, n: int, lo: float = None, hi: float = None) -> DiscretePdf:
    """Approximate a pdf by ``n`` equally spaced value:probability points.

    The domain is split into ``n`` equal-width cells; each sample point sits
    at a cell center and carries the exact probability mass of its cell, so
    the approximation integrates to the original mass.  This mirrors how a
    discrete-only uncertainty model would ingest a continuous sensor pdf.
    """
    if n < 1:
        raise PdfError(f"need at least 1 sample point, got {n}")
    if lo is None or hi is None:
        slo, shi = _support_bounds(pdf)
        lo = slo if lo is None else lo
        hi = shi if hi is None else hi
    edges = np.linspace(lo, hi, n + 1)
    cdf_vals = pdf.cdf(edges)
    masses = np.diff(cdf_vals)
    masses[0] += float(cdf_vals[0])
    masses[-1] += float(pdf.mass() - cdf_vals[-1])
    centers = (edges[:-1] + edges[1:]) / 2.0
    pairs = {float(c): max(float(m), 0.0) for c, m in zip(centers, masses)}
    return DiscretePdf(pairs, attr=pdf.attr)


def to_histogram(
    pdf: UnivariatePdf,
    bins: int,
    lo: float = None,
    hi: float = None,
    method: str = "equiwidth",
) -> HistogramPdf:
    """Approximate a pdf by a ``bins``-bucket histogram.

    ``method="equiwidth"`` (the paper's representation) uses equally spaced
    bucket edges; ``method="equidepth"`` places edges at mass quantiles so
    every bucket holds the same probability.  Equi-depth bounds the error
    of *point/selectivity* estimates by ``mass/bins`` per bucket, but for
    range probabilities over smooth unimodal pdfs equal-width is usually
    more accurate (equi-depth's tail buckets get very wide); measure for
    your workload.  Bucket masses are exact either way (computed from the
    cdf); the only information lost is the shape of the density *within*
    each bucket.
    """
    if bins < 1:
        raise PdfError(f"need at least 1 bucket, got {bins}")
    if lo is None or hi is None:
        slo, shi = _support_bounds(pdf)
        lo = slo if lo is None else lo
        hi = shi if hi is None else hi
    if method == "equiwidth":
        edges = np.linspace(lo, hi, bins + 1)
    elif method == "equidepth":
        total = pdf.mass()
        targets = np.linspace(0.0, total, bins + 1)[1:-1]
        quantile = getattr(pdf, "quantile", None)
        if quantile is not None:
            inner = np.asarray(quantile(targets / total * 1.0), dtype=float)
            # quantile() inverts the conditional cdf only when mass == 1;
            # for partial pdfs fall back to bisection below.
            if abs(total - 1.0) > 1e-9:
                inner = np.array([_invert_cdf(pdf, t, lo, hi) for t in targets])
        else:
            inner = np.array([_invert_cdf(pdf, t, lo, hi) for t in targets])
        inner = np.clip(inner, lo, hi)
        edges = np.unique(np.concatenate([[lo], inner, [hi]]))
        if len(edges) < 2:
            edges = np.array([lo, hi if hi > lo else lo + 1e-9])
    else:
        raise PdfError(f"unknown histogram method {method!r}")
    cdf_vals = pdf.cdf(edges)
    masses = np.diff(cdf_vals)
    masses[0] += float(cdf_vals[0])
    masses[-1] += float(pdf.mass() - cdf_vals[-1])
    return HistogramPdf(edges, np.clip(masses, 0.0, None), attr=pdf.attr)


def _invert_cdf(pdf: UnivariatePdf, target: float, lo: float, hi: float) -> float:
    """Bisection inverse of the unconditional cdf on [lo, hi]."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(pdf.cdf(mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
