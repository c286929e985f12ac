"""One-dimensional histogram pdfs (the paper's generic ``Hist`` type).

When data does not follow a standard symbolic distribution the paper falls
back to a histogram: buckets over the domain with a probability density per
bucket (Section II-A).  The number of buckets is the accuracy/efficiency
knob studied in Figure 4 — a 5-bucket histogram matches the accuracy of a
25-point discrete sampling.

Internally we store *mass per bucket* (density times width) so that partial
pdfs and floors are uniform across representations.  Probabilities over
interval sets are exact (the density is constant within a bucket, so the cdf
is piecewise linear); axis-aligned floors are exact as well, implemented by
splitting buckets at the floor boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..errors import InvalidDistributionError, PdfError
from .base import MASS_TOLERANCE, ArrayLike, UnivariatePdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = ["HistogramPdf"]


class HistogramPdf(UnivariatePdf):
    """A piecewise-constant pdf over contiguous buckets.

    ``edges`` are the ``n + 1`` bucket boundaries (strictly increasing) and
    ``masses`` the probability mass inside each of the ``n`` buckets (the
    paper's per-bucket density times the bucket width).
    """

    symbol = "HISTOGRAM"

    def __init__(self, edges: Iterable[float], masses: Iterable[float], attr: str = "x"):
        super().__init__(attr)
        edges_arr = np.asarray(list(edges), dtype=float)
        masses_arr = np.asarray(list(masses), dtype=float)
        if edges_arr.ndim != 1 or len(edges_arr) < 2:
            raise InvalidDistributionError("a histogram needs at least two bucket edges")
        if len(masses_arr) != len(edges_arr) - 1:
            raise InvalidDistributionError(
                f"{len(edges_arr)} edges require {len(edges_arr) - 1} masses, "
                f"got {len(masses_arr)}"
            )
        if np.any(np.diff(edges_arr) <= 0):
            raise InvalidDistributionError("histogram edges must be strictly increasing")
        if np.any(masses_arr < -MASS_TOLERANCE):
            raise InvalidDistributionError("histogram masses must be non-negative")
        masses_arr = np.clip(masses_arr, 0.0, None)
        total = float(masses_arr.sum())
        if total > 1.0 + 1e-6:
            raise InvalidDistributionError(f"histogram masses sum to {total} > 1")
        self._edges = edges_arr
        self._masses = masses_arr

    @classmethod
    def _from_arrays(
        cls, edges: np.ndarray, masses: np.ndarray, attr: str
    ) -> "HistogramPdf":
        """Trusted fast constructor (no validation) for internal hot paths."""
        pdf = cls.__new__(cls)
        UnivariatePdf.__init__(pdf, attr)
        pdf._edges = edges
        pdf._masses = masses
        return pdf

    # -- structural -----------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        return self._edges.copy()

    @property
    def masses(self) -> np.ndarray:
        return self._masses.copy()

    @property
    def num_buckets(self) -> int:
        return len(self._masses)

    @property
    def is_discrete(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"Histogram({self.num_buckets} buckets on "
            f"[{self._edges[0]:g}, {self._edges[-1]:g}], mass={self.mass():.4g})@{self.attr}"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramPdf):
            return NotImplemented
        return (
            self.attrs == other.attrs
            and np.array_equal(self._edges, other._edges)
            and np.allclose(self._masses, other._masses, atol=1e-12)
        )

    def _fingerprint(self):
        return ("hist", self.attrs, self._edges.tobytes(), self._masses.tobytes())

    # -- probabilistic core ------------------------------------------------------

    def mass(self) -> float:
        return float(self._masses.sum())

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        flat = np.atleast_1d(xs).astype(float)
        cum = np.concatenate([[0.0], np.cumsum(self._masses)])
        idx = np.clip(np.searchsorted(self._edges, flat, side="right") - 1, 0, None)
        idx = np.minimum(idx, len(self._masses) - 1)
        left = self._edges[idx]
        width = np.diff(self._edges)[idx]
        frac = np.clip((flat - left) / width, 0.0, 1.0)
        out = cum[idx] + frac * self._masses[idx]
        out = np.where(flat <= self._edges[0], 0.0, out)
        out = np.where(flat >= self._edges[-1], cum[-1], out)
        return out[0] if scalar else out.reshape(xs.shape)

    def prob_interval(self, allowed: IntervalSet) -> float:
        total = 0.0
        for iv in allowed.intervals:
            total += float(self.cdf(iv.hi) - self.cdf(iv.lo))
        return max(total, 0.0)

    def restrict(self, region: Region) -> "HistogramPdf":
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return self._restrict_intervals(region.interval_set(self.attr))
        centers = (self._edges[:-1] + self._edges[1:]) / 2.0
        inside = np.asarray(region.contains({self.attr: centers}), dtype=bool)
        return HistogramPdf(self._edges, np.where(inside, self._masses, 0.0), attr=self.attr)

    def _restrict_intervals(self, allowed: IntervalSet) -> "HistogramPdf":
        """Exact axis-aligned floor: split buckets at the floor boundaries."""
        if len(allowed.intervals) == 1:
            return self._restrict_single(allowed.intervals[0])
        lo, hi = self._edges[0], self._edges[-1]
        cuts = [
            float(endpoint)
            for iv in allowed.intervals
            for endpoint in (iv.lo, iv.hi)
            if lo < endpoint < hi and np.isfinite(endpoint)
        ]
        if cuts:
            new_edges = np.unique(np.concatenate([self._edges, np.asarray(cuts)]))
        else:
            new_edges = self._edges
        centers = (new_edges[:-1] + new_edges[1:]) / 2.0
        parent = np.clip(
            np.searchsorted(self._edges, centers, side="right") - 1,
            0,
            len(self._masses) - 1,
        )
        densities = self._masses / np.diff(self._edges)
        widths = np.diff(new_edges)
        keep = allowed.contains_array(centers)
        new_masses = np.where(keep, densities[parent] * widths, 0.0)
        return HistogramPdf._from_arrays(new_edges, new_masses, self.attr)

    def _restrict_single(self, iv) -> "HistogramPdf":
        """Fast path for the overwhelmingly common single-interval floor."""
        edges = self._edges
        lo = max(float(iv.lo), float(edges[0]))
        hi = min(float(iv.hi), float(edges[-1]))
        if hi <= lo or iv.is_empty():
            # Fully floored: a zero-mass single bucket keeps the type valid.
            return HistogramPdf._from_arrays(edges[:2].copy(), np.zeros(1), self.attr)
        i_lo = int(np.searchsorted(edges, lo, side="right")) - 1
        i_hi = int(np.searchsorted(edges, hi, side="left"))
        i_lo = max(i_lo, 0)
        i_hi = min(max(i_hi, i_lo + 1), len(edges) - 1)
        new_edges = edges[i_lo : i_hi + 1].copy()
        new_masses = self._masses[i_lo:i_hi].copy()
        widths = edges[i_lo + 1 : i_hi + 1] - edges[i_lo:i_hi]
        # Scale the boundary buckets by the kept fraction.
        first_frac = (new_edges[1] - lo) / widths[0]
        last_frac = (hi - new_edges[-2]) / widths[-1]
        if len(new_masses) == 1:
            new_masses[0] *= (hi - lo) / widths[0]
        else:
            new_masses[0] *= min(first_frac, 1.0)
            new_masses[-1] *= min(last_frac, 1.0)
        new_edges[0] = lo
        new_edges[-1] = hi
        return HistogramPdf._from_arrays(new_edges, new_masses, self.attr)

    def marginalize(self, attrs: Sequence[str]) -> "HistogramPdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self

    # -- support / conversion --------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return {self.attr: (float(self._edges[0]), float(self._edges[-1]))}

    def to_grid(self):
        from .joint import ContinuousAxis, JointGridPdf

        return JointGridPdf((ContinuousAxis(self.attr, self._edges),), self._masses.copy())

    # -- moments / sampling ---------------------------------------------------------------

    def mean(self) -> float:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("mean of a zero-mass pdf is undefined")
        centers = (self._edges[:-1] + self._edges[1:]) / 2.0
        return float((centers * self._masses).sum() / m)

    def variance(self) -> float:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("variance of a zero-mass pdf is undefined")
        centers = (self._edges[:-1] + self._edges[1:]) / 2.0
        widths = np.diff(self._edges)
        mu = self.mean()
        # Within-bucket uniform spread contributes width^2 / 12.
        second = ((centers - mu) ** 2 + widths**2 / 12.0) * self._masses
        return float(second.sum() / m)

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("cannot sample a zero-mass pdf")
        bucket = rng.choice(len(self._masses), size=n, p=self._masses / m)
        left = self._edges[:-1][bucket]
        width = np.diff(self._edges)[bucket]
        return {self.attr: left + width * rng.random(n)}
