"""Probability-threshold index over uncertain attributes.

A simplified in-memory take on the PTI of Cheng et al. (VLDB 2004, the
paper's reference [6]): for every record, keyed by page and slot, the index
stores a small ladder of **x-bounds** of the attribute's pdf.  A query
``P(x in [a, b]) >= p`` drops a record whenever ``b < lo(p')`` or
``a > hi(p')`` for the largest ladder threshold ``p' <= p``: below
``lo(p')`` the cdf stays under ``p'``, above ``hi(p')`` lies less than
``p'`` of the mass, so ``P(x in [a, b]) <= min(P(x <= b), P(x >= a)) < p``.
Both bounds sit :data:`SLACK` inside the exact quantiles, so a record whose
probability equals the threshold is kept wherever its cdf jumps or stays
flat.  Level 0 is the support hull (``P(...) > 0`` and value conjuncts).
The pruned ``SeqScan`` reads only the slots :meth:`admitted` returns and
its filters verify them exactly.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

import numpy as np

from ...pdf.base import UnivariatePdf
from ..storage.heapfile import RID

__all__ = ["ProbabilityThresholdIndex", "LADDER", "quantile_of"]

#: Thresholds at which x-bounds are materialised (0: the support hull).
LADDER: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
_LEVELS = np.array(LADDER[1:])

#: Probability margin between an x-bound and the exact quantile: it absorbs
#: rounding differences between the cdf and the executor's probabilities.
SLACK = 1e-9


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


class ProbabilityThresholdIndex:
    """X-bound ladder index for probabilistic range queries on one attribute."""

    def __init__(self, attr: str):
        self.attr = attr
        #: page id -> slot -> ``(lo_0, hi_0, lo_1, hi_1, ...)``, one pair per level
        self._pages: Dict[int, Dict[int, Tuple[float, ...]]] = {}

    def insert(self, rid: RID, pdf: UnivariatePdf) -> None:
        """Index one record's pdf for this attribute."""
        lower, _ = quantile_of(pdf, _LEVELS - SLACK)
        _, upper = quantile_of(pdf, pdf.mass() - _LEVELS + SLACK)
        bounds = list(pdf.support()[pdf.attr])
        for pair in zip(lower.tolist(), upper.tolist()):
            bounds.extend(pair)
        self._pages.setdefault(rid.page_id, {})[rid.slot] = tuple(bounds)

    def delete(self, rid: RID) -> None:
        self._pages.get(rid.page_id, {}).pop(rid.slot, None)

    def admitted(self, page_id: int, lo: float, hi: float, threshold: float) -> List[int]:
        """The slots of ``page_id``, ascending, whose records *may* satisfy
        ``P(attr in [lo, hi]) >= threshold`` (``threshold`` >= 0): sound,
        not complete."""
        i = 2 * (bisect.bisect_right(LADDER, threshold) - 1)
        page = self._pages.get(page_id, {})
        return sorted(slot for slot, b in page.items() if b[i] <= hi and b[i + 1] >= lo)
