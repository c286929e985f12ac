"""The x-bound ladder of the probability-threshold (PROB) index.

A simplified take on the PTI of Cheng et al. (VLDB 2004, the paper's
reference [6]): for every record of a PROB-indexed attribute the page
synopsis keeps a small ladder of **x-bounds** of the attribute's pdf, as
columns of its :class:`~repro.engine.storage.synopsis.PageRows`.  A query
``P(x in [a, b]) >= p`` drops a record whenever ``b < lo(p')`` or
``a > hi(p')`` for the largest ladder threshold ``p' <= p``: below
``lo(p')`` the cdf stays under ``p'``, above ``hi(p')`` lies less than
``p'`` of the mass, so ``P(x in [a, b]) <= min(P(x <= b), P(x >= a)) < p``.
Both bounds sit :data:`SLACK` inside the exact quantiles, so a record whose
probability equals the threshold is kept wherever its cdf jumps or stays
flat.  Level 0 is the support hull (``P(...) > 0`` and value conjuncts).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...pdf.base import Pdf, UnivariatePdf

__all__ = ["LADDER", "SLACK", "ladder", "quantile_of"]

#: Thresholds at which x-bounds are materialised (0: the support hull).
LADDER: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
_LEVELS = np.array(LADDER[1:])

#: Probability margin between an x-bound and the exact quantile: it absorbs
#: rounding differences between the cdf and the executor's probabilities.
SLACK = 1e-9

#: the ladder of a NULL pdf: NaN fails every test
_NO_LADDER = (float("nan"),) * (2 * len(LADDER))


def quantile_of(pdf: UnivariatePdf, q) -> Tuple[np.ndarray, np.ndarray]:
    """A bracket ``(below, above)`` of the least x with ``cdf(x) >= q``
    (scalar or array ``q``) inside the support hull: ``cdf(x) < q`` for
    every x below ``below`` and ``cdf(above) >= q``.

    A continuous family's closed-form quantile is both ends; other pdfs
    bisect their unconditional cdf 64 times.
    """
    qs = np.asarray(q, dtype=float)
    lo, hi = pdf.support()[pdf.attr]
    quantile = getattr(pdf, "quantile", None)
    if quantile is not None:
        x = np.clip(quantile(qs), lo, hi)
        return x, x
    below = np.full(qs.shape, lo)
    above = np.where(pdf.cdf(below) >= qs, lo, hi)
    for _ in range(64):
        mid = 0.5 * (below + above)
        reached = pdf.cdf(mid) >= qs
        above = np.where(reached, mid, above)
        below = np.where(reached, below, mid)
    return below, above


def ladder(pdf: Optional[Pdf], attr: str) -> Tuple[float, ...]:
    """``(lo_0, hi_0, lo_1, hi_1, ...)``: ``attr``'s x-bounds in ``pdf`` (the
    pdf of the set holding it), one pair per :data:`LADDER` level.

    A marginal that is not univariate (a joint grid's) gets its support
    hull at every level; a NULL pdf gets NaN, which fails every test.
    """
    if pdf is None:
        return _NO_LADDER
    marginal = pdf.marginalize([attr])
    hull = tuple(marginal.support()[attr])
    if not isinstance(marginal, UnivariatePdf):
        return hull * len(LADDER)
    lower, _ = quantile_of(marginal, _LEVELS - SLACK)
    _, upper = quantile_of(marginal, marginal.mass() - _LEVELS + SLACK)
    return hull + tuple(np.stack((lower, upper), 1).ravel().tolist())
