"""Arithmetic over independent uncertain attributes (aggregate support).

Section I of the paper observes that aggregates over discrete uncertain
attributes can have *exponentially many* possible result values, while a
continuous approximation stays constant-size — "one can save space as well
as time by approximating with a continuous pdf.  This is exactly what our
model proposes."  This module provides both paths:

* exact discrete convolution (:func:`convolve_discrete`) — the blow-up,
* closed-form Gaussian addition and CLT moment matching
  (:func:`sum_independent` with ``method="gaussian"``) — the paper's fix,
* grid convolution for histograms (:func:`convolve_histograms`).

Only *historically independent* inputs may be summed this way; the model
layer enforces that before calling in.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from ..errors import PdfError, UnsupportedOperationError
from .base import UnivariatePdf
from .continuous import GaussianPdf
from .discrete import DiscretePdf, SymbolicDiscretePdf
from .histogram import HistogramPdf

__all__ = [
    "convolve_discrete",
    "convolve_histograms",
    "sum_independent",
]


def convolve_discrete(pdfs: Sequence[DiscretePdf], attr: str = "sum") -> DiscretePdf:
    """Exact distribution of the sum of independent discrete pdfs.

    The support can grow as the product of the input supports — the
    exponential blow-up the paper warns about (exercised by the aggregate
    ablation benchmark).
    """
    if not pdfs:
        raise PdfError("cannot convolve zero pdfs")
    acc: Dict[float, float] = dict(pdfs[0].items())
    for pdf in pdfs[1:]:
        nxt: Dict[float, float] = {}
        for v1, p1 in acc.items():
            for v2, p2 in pdf.items():
                key = v1 + v2
                nxt[key] = nxt.get(key, 0.0) + p1 * p2
        acc = nxt
    return DiscretePdf(acc, attr=attr)


def convolve_histograms(
    pdfs: Sequence[UnivariatePdf], bins: int = 128, attr: str = "sum"
) -> HistogramPdf:
    """Grid convolution of independent pdfs via FFT on a common lattice.

    Each input is first collapsed to a histogram on a shared cell width;
    the output is an equal-width histogram of the sum with ``bins`` buckets.
    """
    from .convert import to_histogram

    if not pdfs:
        raise PdfError("cannot convolve zero pdfs")
    supports = [p.support()[p.attr] for p in pdfs]
    total_lo = sum(s[0] for s in supports)
    total_hi = sum(s[1] for s in supports)
    if total_hi <= total_lo:
        total_hi = total_lo + 1e-9
    cell = (total_hi - total_lo) / bins
    acc = None
    acc_lo = 0.0
    for pdf, (lo, hi) in zip(pdfs, supports):
        n_cells = max(int(math.ceil((hi - lo) / cell)), 1)
        hist = to_histogram(pdf, n_cells, lo=lo, hi=lo + n_cells * cell)
        masses = hist.masses
        if acc is None:
            acc, acc_lo = masses, lo
        else:
            acc = np.convolve(acc, masses)
            acc_lo += lo
    assert acc is not None
    edges = acc_lo + cell * np.arange(len(acc) + 1)
    fine = HistogramPdf(edges, np.clip(acc, 0.0, None), attr=attr)
    # Re-bucket down to the requested resolution.
    out_edges = np.linspace(edges[0], edges[-1], bins + 1)
    out_masses = np.diff(fine.cdf(out_edges))
    return HistogramPdf(out_edges, np.clip(out_masses, 0.0, None), attr=attr)


def sum_independent(
    pdfs: Sequence[UnivariatePdf], method: str = "auto", attr: str = "sum"
) -> UnivariatePdf:
    """Distribution of the sum of independent uncertain attributes.

    ``method``:

    * ``"exact"`` — exact discrete convolution; all inputs must be discrete.
    * ``"gaussian"`` — CLT moment matching: a Gaussian with the summed means
      and variances (closed form when all inputs are Gaussian anyway).
    * ``"histogram"`` — grid convolution.
    * ``"auto"`` — Gaussians add in closed form; all-discrete inputs convolve
      exactly while the support stays small, else fall back to moment
      matching.
    """
    pdfs = list(pdfs)
    if not pdfs:
        raise PdfError("cannot sum zero pdfs")
    if len(pdfs) == 1:
        return pdfs[0].with_attrs([attr])

    def _gaussian() -> GaussianPdf:
        mean = sum(p.mean() for p in pdfs)
        var = sum(p.variance() for p in pdfs)
        if var <= 0:
            raise UnsupportedOperationError("sum has zero variance; not representable")
        return GaussianPdf(mean, var, attr=attr)

    def _materialize(p: UnivariatePdf) -> DiscretePdf:
        if isinstance(p, SymbolicDiscretePdf):
            return p.materialize()
        if isinstance(p, DiscretePdf):
            return p
        raise UnsupportedOperationError(
            f"{type(p).__name__} is not discrete; use gaussian/histogram method"
        )

    if method == "gaussian":
        return _gaussian()
    if method == "exact":
        return convolve_discrete([_materialize(p) for p in pdfs], attr=attr)
    if method == "histogram":
        return convolve_histograms(pdfs, attr=attr)
    if method != "auto":
        raise PdfError(f"unknown sum method {method!r}")

    if all(isinstance(p, GaussianPdf) for p in pdfs):
        return _gaussian()
    if all(p.is_discrete for p in pdfs):
        support_product = 1
        for p in pdfs:
            size = len(_materialize(p).values)
            support_product *= size
            if support_product > 100_000:
                return _gaussian()
        return convolve_discrete([_materialize(p) for p in pdfs], attr=attr)
    return _gaussian()
