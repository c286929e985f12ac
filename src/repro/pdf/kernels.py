"""Vectorized selection kernels over the parameter arrays of a column view.

A column view (:class:`repro.core.columnar.AttrColumn`) gathers same-type
pdfs into numpy arrays once, and :func:`floored_masses` evaluates every
row's ``pdf.restrict(BoxRegion({attr: allowed})).mass()`` under one shared
interval set in a few array sweeps instead of N per-pdf calls:

* the continuous symbolic families (Gaussian, Uniform, Triangular) as
  parameter arrays (:data:`FAMILY_PARAMS`), swept by
  :func:`interval_probs_params`.  Scalar ``prob_interval`` accumulates
  ``total += float(cdf(hi) - cdf(lo))`` per interval from ``0.0`` and
  clamps with ``min(max(total, 0), 1)``; the kernel evaluates the same
  elementwise cdf ufuncs in the same order and clamps with ``np.clip``
  (Triangular: scipy's *class-level* ``stats.triang.cdf`` on both paths);
* explicit ``DiscretePdf`` (exact type) and ``HistogramPdf`` as *ragged*
  groups (:data:`RAGGED_PARAMS`): row offsets plus the concatenated values
  and probabilities, or bucket edges and masses.  A row's mass is numpy's
  pairwise sum of its kept (for a histogram, boundary-scaled) elements,
  reproduced per row by :func:`_row_sums`.

Both are *bitwise-identical* to the scalar path.  A histogram under two or
more intervals (the scalar floor cuts buckets), a categorical, a symbolic
discrete family, a floor and a joint have no array form: a column view lists
those rows as ``other_rows`` (or :func:`floored_masses` returns ``None`` for
the group) and they take the scalar reference (:meth:`SelectionPlan.apply`,
:func:`~repro.core.threshold.probability_of`) one tuple at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy import special, stats

from .base import UnivariatePdf
from .continuous import GaussianPdf, TriangularPdf, UniformPdf
from .discrete import DiscretePdf
from .histogram import HistogramPdf
from .regions import IntervalSet

__all__ = ["FAMILY_PARAMS", "RAGGED_PARAMS", "interval_probs_params", "floored_masses",
           "ragged_masses"]


def _gaussian_params(pdfs: Sequence[GaussianPdf]) -> Tuple[np.ndarray, ...]:
    return (
        np.array([p._mu for p in pdfs]),
        np.array([p._sd for p in pdfs]),
    )


def _gaussian_cdf_arrays(params: Tuple[np.ndarray, ...], xs) -> np.ndarray:
    mu, sd = params
    return special.ndtr((xs - mu) / sd)


def _uniform_params(pdfs: Sequence[UniformPdf]) -> Tuple[np.ndarray, ...]:
    return (
        np.array([p._lo for p in pdfs]),
        np.array([p._hi for p in pdfs]),
    )


def _uniform_cdf_arrays(params: Tuple[np.ndarray, ...], xs) -> np.ndarray:
    lo, hi = params
    return np.clip((xs - lo) / (hi - lo), 0.0, 1.0)


def _triangular_params(pdfs: Sequence[TriangularPdf]) -> Tuple[np.ndarray, ...]:
    lo = np.array([p._params["lo"] for p in pdfs])
    mode = np.array([p._params["mode"] for p in pdfs])
    hi = np.array([p._params["hi"] for p in pdfs])
    # The scalar pdf calls stats.triang.cdf(x, c, loc=lo, scale=hi - lo); elementwise
    # IEEE subtraction/division reproduce its parameters exactly.
    return ((mode - lo) / (hi - lo), lo, hi - lo)


def _triangular_cdf_arrays(params: Tuple[np.ndarray, ...], xs) -> np.ndarray:
    c, loc, scale = params
    return np.asarray(stats.triang.cdf(xs, c, loc=loc, scale=scale))


#: family type -> gather of the parameter arrays its cdf takes
FAMILY_PARAMS: Dict[type, Callable[[Sequence[UnivariatePdf]], Tuple[np.ndarray, ...]]] = {
    GaussianPdf: _gaussian_params,
    UniformPdf: _uniform_params,
    TriangularPdf: _triangular_params,
}

#: family type -> array-native cdf over (parameter arrays, points)
_FAMILY_CDF: Dict[type, Callable[[Tuple[np.ndarray, ...], object], np.ndarray]] = {
    GaussianPdf: _gaussian_cdf_arrays,
    UniformPdf: _uniform_cdf_arrays,
    TriangularPdf: _triangular_cdf_arrays,
}


def interval_probs_params(
    fam: type, params: Tuple[np.ndarray, ...], allowed: IntervalSet
) -> np.ndarray:
    """``P(X_i in allowed)`` for rows given as parameter arrays of one family.

    The columnar fast path: every row shares the *same* interval set (the
    selection region), so the cdf sweeps broadcast scalar endpoints against
    the cached parameter arrays.  Bitwise-identical to per-row
    ``prob_interval``: intervals accumulate left-to-right from ``0.0`` and
    the final clamp is the same ``min(max(total, 0), 1)``.
    """
    cdf = _FAMILY_CDF[fam]
    n = len(params[0])
    ivs = allowed.intervals
    if not ivs:
        return np.zeros(n)
    if len(ivs) == 1:
        iv = ivs[0]
        totals = cdf(params, iv.hi) - cdf(params, iv.lo)
    else:
        totals = np.zeros(n)
        for iv in ivs:
            totals += cdf(params, iv.hi) - cdf(params, iv.lo)
    return np.clip(totals, 0.0, 1.0)


# Ragged groups: ``(starts, counts, points, weights)`` — row ``r`` owns
# ``weights[starts[r] : starts[r] + counts[r]]`` and the aligned values of a
# discrete pdf, or the ``counts[r] + 1`` bucket edges of a histogram from
# ``points[starts[r] + r]`` on.


def _ragged(points: Sequence[np.ndarray], weights: Sequence[np.ndarray]):
    counts = np.fromiter(map(len, weights), np.intp, len(weights))
    return np.cumsum(counts) - counts, counts, np.concatenate(points), np.concatenate(weights)


def _row_sums(weights: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``float(weights[s : s + c].sum())`` per row, bit for bit.  numpy sums
    up to 128 elements with eight running sums over whole 8-element blocks,
    then the rest one by one, so zeros that complete no block change nothing:
    rows of ``8b .. 8b + 7`` elements share one zero-padded block of width
    ``8b + 7``, whose ``.sum(axis=1)`` is that summation per row; longer rows
    are grouped by length.  (A masked ``np.add.reduceat`` adds one by one.)"""
    padded = np.concatenate((weights, (0.0,)))
    keys = np.where(counts <= 128, counts // 8, counts + 128)
    groups = set(keys.tolist())
    out = np.empty(len(starts))
    for key in groups:
        rows = np.flatnonzero(keys == key) if len(groups) > 1 else slice(None)
        cols = np.arange(min(8 * key + 7, 128) if key <= 16 else key - 128)
        at = np.where(cols < counts[rows, None], starts[rows, None] + cols, len(weights))
        out[rows] = padded[at].sum(axis=1)
    return out


def _gather(points: np.ndarray, firsts: np.ndarray, counts: np.ndarray):
    """``points[f : f + c]`` of every row, concatenated, and each row's start in it."""
    starts = np.cumsum(counts) - counts
    return points[np.repeat(firsts - starts, counts) + np.arange(counts.sum())], starts


def _views(points, a, b, weights, c, d):
    """``part(j)``: row ``j``'s slices ``[a:b]`` / ``[c:d]`` (views) of the
    concatenated floored points and weights."""
    a, b, c, d = a.tolist(), b.tolist(), c.tolist(), d.tolist()
    return lambda j: (points[a[j] : b[j]], weights[c[j] : d[j]])


def _discrete_floored(params: Tuple[np.ndarray, ...], allowed: IntervalSet):
    """``DiscretePdf.restrict``: the values inside ``allowed`` and their
    probabilities, whose sum is the mass."""
    starts, counts, values, probs = params
    inside = allowed.contains_array(values)
    kept = np.concatenate(([0], np.cumsum(inside)))
    lo, hi = kept[starts], kept[starts + counts]
    kept_probs = probs[inside]
    part = _views(values[inside], lo, hi, kept_probs, lo, hi)
    return _row_sums(kept_probs, lo, hi - lo), part


def _histogram_floored(params: Tuple[np.ndarray, ...], allowed: IntervalSet):
    """``HistogramPdf._restrict_single``: the buckets it keeps, the two boundary
    buckets scaled by their kept fraction, whose sum is the mass.  ``None``
    under two or more intervals, where the scalar floor cuts buckets."""
    starts, counts, edges, masses = params
    if len(allowed.intervals) > 1:
        return None
    if not allowed.intervals:  # every row is floored away
        return np.zeros(len(starts)), None
    (iv,) = allowed.intervals
    first = starts + np.arange(len(starts))  # each row's first edge
    e0, en = edges[first], edges[first + counts]
    # Python's max(iv.lo, e0) / min(iv.hi, en), ties resolved the same way
    lo = np.where(e0 > iv.lo, e0, iv.lo)
    hi = np.where(en < iv.hi, en, iv.hi)
    # per-row searchsorted; lo >= e0 and hi <= en make _restrict_single's clamps no-ops
    owner = np.repeat(np.arange(len(starts)), counts + 1)
    below = np.concatenate(([0], np.cumsum(edges <= lo[owner])))
    under = np.concatenate(([0], np.cumsum(edges < hi[owner])))
    i_lo = below[first + counts + 1] - below[first] - 1
    span = np.where(hi > lo, under[first + counts + 1] - under[first] - i_lo, 0)
    kept, k_starts = _gather(masses, starts + i_lo, span)
    one = np.flatnonzero(span == 1)
    a = first[one] + i_lo[one]  # the kept bucket's left edge
    kept[k_starts[one]] *= (hi[one] - lo[one]) / (edges[a + 1] - edges[a])
    many = np.flatnonzero(span > 1)
    a = first[many] + i_lo[many]  # the first kept bucket's left edge
    b = a + span[many] - 1  # the last one's
    first_frac = (edges[a + 1] - lo[many]) / (edges[a + 1] - edges[a])
    last_frac = (hi[many] - edges[b]) / (edges[b + 1] - edges[b])
    kept[k_starts[many]] *= np.where(1.0 < first_frac, 1.0, first_frac)
    kept[k_starts[many] + span[many] - 1] *= np.where(1.0 < last_frac, 1.0, last_frac)
    live = np.flatnonzero(span > 0)
    kept_edges, e_starts = _gather(edges, first + i_lo, np.where(span > 0, span + 1, 0))
    kept_edges[e_starts[live]] = lo[live]
    kept_edges[e_starts[live] + span[live]] = hi[live]
    part = _views(kept_edges, e_starts, e_starts + span + 1, kept, k_starts, k_starts + span)
    return _row_sums(kept, k_starts, span), part


#: exact pdf type -> gather of its ragged ``(starts, counts, points, weights)``
RAGGED_PARAMS: Dict[type, Callable[[Sequence[UnivariatePdf]], Tuple[np.ndarray, ...]]] = {
    DiscretePdf: lambda pdfs: _ragged([p._values for p in pdfs], [p._probs for p in pdfs]),
    HistogramPdf: lambda pdfs: _ragged([p._edges for p in pdfs], [p._masses for p in pdfs]),
}

_RAGGED_FLOORED = {DiscretePdf: _discrete_floored, HistogramPdf: _histogram_floored}


def floored_masses(fam: type, params: Tuple[np.ndarray, ...], allowed: IntervalSet):
    """Per row, ``pdf.restrict(BoxRegion({attr: allowed})).mass()`` bit for bit.

    Returns ``(masses, part)``: for a ragged group ``part(j)`` is row ``j``'s
    floor as the two arrays ``fam._from_arrays`` takes, for a row of positive
    mass (``None`` for a symbolic family, whose floor is a ``FlooredPdf``).
    ``None`` for a histogram group under two or more intervals.
    """
    if fam in _RAGGED_FLOORED:
        return _RAGGED_FLOORED[fam](params, allowed)
    return interval_probs_params(fam, params, allowed), None


def ragged_masses(params: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Per row of a ragged group, ``pdf.mass()`` bit for bit: the row's
    probabilities or bucket masses summed (below 1 for a partial pdf)."""
    starts, counts, _points, weights = params
    return _row_sums(weights, starts, counts)
