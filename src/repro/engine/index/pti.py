"""Probability-threshold index over uncertain attributes.

A simplified in-memory take on the PTI of Cheng et al. (VLDB 2004, the
paper's reference [6]): for every record the index stores a small ladder of
**x-bounds** — quantiles of the attribute's pdf.  A probabilistic range
query ``P(x in [a, b]) >= p`` can then prune records *without touching
their pages*, using the bound

    P(x in [a, b]) <= min(P(x <= b), P(x >= a)) = min(cdf(b), 1 - cdf(a)),

so a record is prunable whenever ``b < q(p')`` or ``a > q(1 - p')`` for the
largest ladder threshold ``p' <= p``.  Survivors are verified exactly by
the executor against the full pdf.

The ladder also stores the support hull (threshold 0), which doubles as a
plain interval index for ``P(...) > 0`` queries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...errors import IndexError_
from ...pdf.base import UnivariatePdf
from ..storage.heapfile import RID

__all__ = ["ProbabilityThresholdIndex", "DEFAULT_LADDER", "quantile_of"]

#: Thresholds at which x-bounds are materialised.
DEFAULT_LADDER: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)


def quantile_of(pdf: UnivariatePdf, q: float, tol: float = 1e-9) -> float:
    """The q-quantile of an arbitrary 1-D pdf, by bisection on its cdf.

    Uses the *unconditional* cdf, so for partial pdfs the upper quantiles
    may sit at the support's upper edge (all remaining mass is "absent").
    """
    quantile = getattr(pdf, "quantile", None)
    if quantile is not None:
        return float(quantile(q))
    lo, hi = pdf.support()[pdf.attr]
    if q <= float(pdf.cdf(lo)):
        return lo
    if q >= float(pdf.cdf(hi)):
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if float(pdf.cdf(mid)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class _Entry:
    rid: RID
    #: per ladder threshold p: (q(p), q(1-p)) under the unconditional cdf.
    bounds: Tuple[Tuple[float, float], ...]


class ProbabilityThresholdIndex:
    """X-bound ladder index for probabilistic range queries on one attribute."""

    def __init__(self, attr: str, ladder: Sequence[float] = DEFAULT_LADDER):
        ladder = tuple(sorted(set(float(p) for p in ladder)))
        if not ladder or ladder[0] < 0.0 or ladder[-1] >= 1.0:
            raise IndexError_("ladder thresholds must lie in [0, 1)")
        self.attr = attr
        self.ladder = ladder
        self._entries: Dict[RID, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- maintenance -----------------------------------------------------------

    def insert(self, rid: RID, pdf: UnivariatePdf) -> None:
        """Index one record's pdf for this attribute."""
        lo, hi = pdf.support()[pdf.attr]
        bounds: List[Tuple[float, float]] = []
        mass = pdf.mass()
        for p in self.ladder:
            if p == 0.0:
                bounds.append((lo, hi))
            else:
                qlo = quantile_of(pdf, p) if p < mass else hi
                qhi = quantile_of(pdf, mass - p) if p < mass else lo
                bounds.append((qlo, qhi))
        self._entries[rid] = _Entry(rid, tuple(bounds))

    def delete(self, rid: RID) -> bool:
        return self._entries.pop(rid, None) is not None

    # -- queries ------------------------------------------------------------------

    def _ladder_level(self, threshold: float) -> int:
        """Index of the largest ladder threshold <= requested threshold."""
        idx = bisect.bisect_right(list(self.ladder), threshold) - 1
        return max(idx, 0)

    def candidates(self, lo: float, hi: float, threshold: float = 0.0) -> List[RID]:
        """RIDs that *may* satisfy ``P(attr in [lo, hi]) >= threshold``.

        Sound (never prunes a qualifying record), not complete — survivors
        must be verified against the exact pdf.
        """
        if hi < lo:
            return []
        level = self._ladder_level(threshold)
        out: List[RID] = []
        for entry in self._entries.values():
            support_lo, support_hi = entry.bounds[0]
            if hi < support_lo or lo > support_hi:
                continue
            if threshold > 0.0 and level > 0:
                qlo, qhi = entry.bounds[level]
                # P(x <= hi) < p when hi < q(p); P(x >= lo) < p when lo > q(1-p)
                if hi < qlo or lo > qhi:
                    continue
            out.append(entry.rid)
        return out
