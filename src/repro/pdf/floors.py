"""Symbolic floors: selection residue kept in closed form.

Applying a range predicate to a symbolic pdf produces, in general, a
non-standard partial pdf.  Rather than collapsing to a histogram, the paper
stores *symbolic floors* alongside the original distribution — e.g. applying
``x < 5`` to ``Gaus(5, 1)`` yields ``[Gaus(5,1), Floor{[5, inf]}]``
(Section III-A).  :class:`FlooredPdf` is that representation: a base
symbolic pdf plus the :class:`~repro.pdf.regions.IntervalSet` of *allowed*
values (the complement of the floored region).

Successive axis-aligned floors compose by interval-set intersection, which is
why floor order never matters (the property behind Theorem 1).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import PdfError
from .base import GRID_RESOLUTION, MASS_TOLERANCE, ArrayLike, UnivariatePdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = ["FlooredPdf"]

#: Rejection-sampling batches give up after this many rounds without a hit.
_MAX_REJECTION_ROUNDS = 1000


class FlooredPdf(UnivariatePdf):
    """A symbolic 1-D pdf restricted to an interval set.

    Its mass over a region is the base pdf's mass over the part of the
    region inside ``allowed``, so the total mass is generally below 1: the
    floored-away mass is exactly the probability that the owning tuple
    failed the selection.
    """

    symbol = "FLOORED"

    # Floors are allocated per-survivor on the columnar selection hot path;
    # slots route the three stores past the instance dict.  The base classes
    # are slotless, so lazy attributes (``_fp_memo``) still work.
    __slots__ = ("attrs", "_base", "_allowed")

    def __init__(self, base: UnivariatePdf, allowed: IntervalSet):
        super().__init__(base.attr)
        if isinstance(base, FlooredPdf):
            allowed = allowed.intersect(base.allowed)
            base = base.base
        self._base = base
        self._allowed = allowed

    @classmethod
    def _from_parts(cls, base: UnivariatePdf, allowed: IntervalSet) -> "FlooredPdf":
        """Constructor for hot paths whose ``base`` is already unfloored.

        Skips the ``isinstance`` unwrap of :meth:`__init__`; callers must
        guarantee ``base`` is not itself a :class:`FlooredPdf`.
        """
        self = object.__new__(cls)
        self.attrs = base.attrs
        self._base = base
        self._allowed = allowed
        return self

    @property
    def base(self) -> UnivariatePdf:
        """The unfloored symbolic distribution."""
        return self._base

    @property
    def allowed(self) -> IntervalSet:
        """Values that survived all floors so far."""
        return self._allowed

    @property
    def is_discrete(self) -> bool:
        return self._base.is_discrete

    def _relabelled(self, names: Tuple[str, ...]) -> "FlooredPdf":
        return FlooredPdf._from_parts(self._base.with_attrs(names), self._allowed)

    def __repr__(self) -> str:
        floored = self._allowed.complement()
        return f"[{self._base!r}, Floor{{{floored!r}}}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlooredPdf):
            return NotImplemented
        return self._base == other._base and self._allowed == other._allowed

    def _fingerprint(self):
        base_fp = self._base.fingerprint()
        if base_fp is None:
            return None
        return ("floor", base_fp, self._allowed)

    # -- probabilistic core ------------------------------------------------------

    def mass(self) -> float:
        return self._base_prob(self._allowed)

    def _base_prob(self, allowed: IntervalSet) -> float:
        return float(self._base.prob_interval(allowed))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        flat = np.atleast_1d(xs)
        out = np.array(
            [
                self._base_prob(self._allowed.intersect(IntervalSet.less_than(v, inclusive=True)))
                for v in flat
            ]
        )
        return out[0] if scalar else out.reshape(xs.shape)

    def prob_interval(self, allowed: IntervalSet) -> float:
        return self._base_prob(self._allowed.intersect(allowed))

    def restrict(self, region: Region):
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return FlooredPdf(self._base, self._allowed.intersect(region.interval_set(self.attr)))
        return self.to_grid().restrict(region)

    def marginalize(self, attrs: Sequence[str]) -> "FlooredPdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self

    # -- support / conversion --------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        (base_lo, base_hi) = self._base.support()[self.attr]
        clipped = self._allowed.intersect(IntervalSet.between(base_lo, base_hi))
        lo, hi = clipped.bounds()
        if lo > hi:
            # All mass floored away; return a degenerate point at the base lo.
            return {self.attr: (base_lo, base_lo)}
        return {self.attr: (lo, hi)}

    def to_grid(self):
        from .joint import ContinuousAxis, JointGridPdf

        if self._base.is_discrete:
            return self._base.restrict(BoxRegion({self.attr: self._allowed})).to_grid()
        lo, hi = self.support()[self.attr]
        if hi <= lo:
            hi = lo + 1e-9
        cut_points = {float(lo), float(hi)}
        for iv in self._allowed.intervals:
            for endpoint in (iv.lo, iv.hi):
                if lo < endpoint < hi and np.isfinite(endpoint):
                    cut_points.add(float(endpoint))
        cut_points.update(np.linspace(lo, hi, GRID_RESOLUTION + 1).tolist())
        edges = np.array(sorted(cut_points), dtype=float)
        masses = np.array(
            [
                self.prob_interval(IntervalSet.between(edges[i], edges[i + 1]))
                for i in range(len(edges) - 1)
            ]
        )
        # Fold clipped tails (support truncation of unbounded bases) into the
        # boundary cells so the grid preserves the floored pdf's total mass.
        masses[0] += self.prob_interval(IntervalSet.less_than(float(edges[0])))
        masses[-1] += self.prob_interval(IntervalSet.greater_than(float(edges[-1])))
        return JointGridPdf((ContinuousAxis(self.attr, edges),), masses)

    # -- moments / sampling ---------------------------------------------------------------

    def mean(self) -> float:
        if self._base.is_discrete:
            return self._base.restrict(BoxRegion({self.attr: self._allowed})).mean()
        grid = self.to_grid()
        return grid.mean(self.attr)

    def variance(self) -> float:
        if self._base.is_discrete:
            return self._base.restrict(BoxRegion({self.attr: self._allowed})).variance()
        grid = self.to_grid()
        return grid.variance(self.attr)

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        if self.mass() <= MASS_TOLERANCE:
            raise PdfError("cannot sample a fully-floored pdf")
        out = np.empty(0, dtype=float)
        for _ in range(_MAX_REJECTION_ROUNDS):
            batch = self._base.sample(rng, max(n, 64))[self.attr]
            kept = batch[self._allowed.contains_array(batch)]
            out = np.concatenate([out, kept])
            if len(out) >= n:
                return {self.attr: out[:n]}
        raise PdfError(
            "rejection sampling failed: the allowed region has too little mass"
        )
