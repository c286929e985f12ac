"""Vectorized interval-probability kernels for the continuous symbolic families.

A column view (:class:`repro.core.columnar.AttrColumn`) gathers the
parameters of same-family symbolic pdfs — Gaussian, Uniform, Triangular —
into numpy arrays once (:data:`FAMILY_PARAMS`), and
:func:`interval_probs_params` evaluates every row's probability of one
shared interval set with one ufunc sweep per interval endpoint instead of
N per-pdf calls.  The kernels are
*bitwise-identical* to the scalar path:

* scalar :meth:`ContinuousPdf.prob_interval` accumulates
  ``total += float(cdf(hi) - cdf(lo))`` per interval, left to right, then
  clamps with ``min(max(total, 0), 1)``;
* the kernels evaluate the same elementwise cdf ufuncs against the
  parameter arrays, accumulate the intervals in the same order from
  ``0.0``, and clamp with ``np.clip`` — the same IEEE operations in the same
  order;
* Triangular has no closed form here: both paths call scipy's
  *class-level* ``stats.triang.cdf`` ufunc, so the batched values equal the
  scalar ``.cdf()`` results bit for bit.

Every other pdf type (floored, histogram, discrete, joint) has no
parameter-array form: a column view lists those rows as ``other_rows`` and
they take the scalar reference (:meth:`SelectionPlan.apply`,
:func:`~repro.core.threshold.probability_of`) one tuple at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy import special, stats

from .base import UnivariatePdf
from .continuous import GaussianPdf, TriangularPdf, UniformPdf
from .regions import IntervalSet

__all__ = ["FAMILY_PARAMS", "interval_probs_params"]


# Each family is split into two layers so a column view can cache the
# gathered parameter arrays:
#
# * a *gather* (``FAMILY_PARAMS``): pdf objects -> tuple of parameter arrays
#   in the parameterization its cdf takes;
# * an array-native cdf (``_FAMILY_CDF``): (params, xs) -> cdf values, pure
#   ufunc work, no pdf objects involved.


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
