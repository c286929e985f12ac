"""Symbolic continuous distributions.

The paper stores standard distributions *symbolically* in the database
(Section II-A): a Gaussian is kept as ``Gaus(mean, variance)`` rather than as
samples, which gives exact range probabilities and constant-size storage.
This module implements the symbolic continuous family:

* :class:`GaussianPdf` — ``Gaus(mean, variance)`` exactly as in Table I,
* :class:`UniformPdf` and :class:`TriangularPdf`.

Each family computes its values from its own parameters: Gaussian and
Uniform in closed form (``scipy.special``), Triangular through scipy's
class-level ``stats.triang`` functions.  No pdf holds a scipy frozen
distribution, so deserializing a page of symbolic tuples costs a few struct
unpacks and a pdf pickles as its parameters.

Flooring a symbolic pdf with an axis-aligned region keeps it symbolic (a
:class:`~repro.pdf.floors.FlooredPdf`); flooring with an arbitrary predicate
region collapses it to grid form.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Mapping, Tuple

import numpy as np
from scipy import special, stats

from ..errors import InvalidDistributionError
from .base import GRID_RESOLUTION, TAIL_MASS, ArrayLike, SymbolicPdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = [
    "ContinuousPdf",
    "GaussianPdf",
    "UniformPdf",
    "TriangularPdf",
]


class ContinuousPdf(SymbolicPdf):
    """Base class for 1-D symbolic continuous distributions.

    Subclasses provide a ``symbol`` (the SQL-visible name, e.g.
    ``GAUSSIAN``), their parameter dictionary and their density, cdf,
    quantile, raw support, moments and sampler; everything else — exact
    interval probabilities, symbolic floors, grid collapse — is shared here.
    """

    symbol: str = "CONTINUOUS"

    @property
    def is_discrete(self) -> bool:
        return False

    # -- per-family values -----------------------------------------------------

    @abc.abstractmethod
    def quantile(self, q: ArrayLike) -> np.ndarray:
        """Inverse cdf (used for grid bounds and sampling)."""

    @abc.abstractmethod
    def _raw_support(self) -> Tuple[float, float]:
        """Support bounds before tail clipping; may be infinite."""

    # -- probabilistic core ----------------------------------------------------

    def prob_interval(self, allowed: IntervalSet) -> float:
        """Exact P(X in allowed); endpoint openness is immaterial here."""
        total = 0.0
        for iv in allowed.intervals:
            total += float(self.cdf(iv.hi) - self.cdf(iv.lo))
        return min(max(total, 0.0), 1.0)

    def prob(self, region: Region) -> float:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return self.prob_interval(region.interval_set(self.attr))
        return self.to_grid().prob(region)

    def restrict(self, region: Region):
        from .floors import FlooredPdf

        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return FlooredPdf(self, region.interval_set(self.attr))
        return self.to_grid().restrict(region)

    # -- support / conversion ---------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        """The raw support, each infinite end clipped at its ``TAIL_MASS`` quantile."""
        lo, hi = self._raw_support()
        if math.isinf(lo):
            lo = float(self.quantile(TAIL_MASS))
        if math.isinf(hi):
            hi = float(self.quantile(1.0 - TAIL_MASS))
        if hi <= lo:
            hi = lo + 1e-9
        return {self.attr: (float(lo), float(hi))}

    def to_grid(self):
        from .joint import ContinuousAxis, JointGridPdf

        lo, hi = self.support()[self.attr]
        edges = np.linspace(lo, hi, GRID_RESOLUTION + 1)
        masses = np.diff(self.cdf(edges))
        # Fold the clipped tails into the boundary cells so mass is preserved.
        masses[0] += float(self.cdf(edges[0]))
        masses[-1] += float(1.0 - self.cdf(edges[-1]))
        return JointGridPdf((ContinuousAxis(self.attr, edges),), masses)


class GaussianPdf(ContinuousPdf):
    """The paper's ``Gaus(mean, variance)`` distribution (Table I).

    Note the second parameter is the **variance**, matching the paper's
    notation, not the standard deviation.  All hot paths are closed-form.
    """

    symbol = "GAUSSIAN"

    def __init__(self, mean: float, variance: float, attr: str = "x"):
        if variance <= 0:
            raise InvalidDistributionError(f"Gaussian variance must be > 0, got {variance}")
        sd = math.sqrt(variance)
        super().__init__({"mean": mean, "variance": variance}, attr)
        self._mu = float(mean)
        self._sd = sd

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        z = (xs - self._mu) / self._sd
        return np.exp(-0.5 * z * z) / (self._sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        return special.ndtr((xs - self._mu) / self._sd)

    def quantile(self, q: ArrayLike) -> np.ndarray:
        qs = np.asarray(q, dtype=float)
        return self._mu + self._sd * special.ndtri(qs)

    def _raw_support(self) -> Tuple[float, float]:
        return (float("-inf"), float("inf"))

    def mean(self) -> float:
        return self._mu

    def variance(self) -> float:
        return self._sd**2

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        return {self.attr: rng.normal(self._mu, self._sd, size=n)}


class UniformPdf(ContinuousPdf):
    """Uniform distribution over ``[lo, hi]`` (closed-form hot paths)."""

    symbol = "UNIFORM"

    def __init__(self, lo: float, hi: float, attr: str = "x"):
        if hi <= lo:
            raise InvalidDistributionError(f"Uniform requires lo < hi, got [{lo}, {hi}]")
        super().__init__({"lo": lo, "hi": hi}, attr)
        self._lo = float(lo)
        self._hi = float(hi)

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        inside = (xs >= self._lo) & (xs <= self._hi)
        return np.where(inside, 1.0 / (self._hi - self._lo), 0.0)

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        return np.clip((xs - self._lo) / (self._hi - self._lo), 0.0, 1.0)

    def quantile(self, q: ArrayLike) -> np.ndarray:
        qs = np.asarray(q, dtype=float)
        return self._lo + qs * (self._hi - self._lo)

    def _raw_support(self) -> Tuple[float, float]:
        return (self._lo, self._hi)

    def mean(self) -> float:
        return 0.5 * (self._lo + self._hi)

    def variance(self) -> float:
        return (self._hi - self._lo) ** 2 / 12.0

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        return {self.attr: rng.uniform(self._lo, self._hi, size=n)}


class TriangularPdf(ContinuousPdf):
    """Triangular distribution over ``[lo, hi]`` peaking at ``mode``.

    Values come from scipy's class-level ``stats.triang`` functions — the
    ones a frozen ``stats.triang(c, loc=lo, scale=hi - lo)`` delegates to,
    so every cdf, quantile and moment is bit for bit that frozen value.
    """

    symbol = "TRIANGULAR"

    def __init__(self, lo: float, mode: float, hi: float, attr: str = "x"):
        if not (lo <= mode <= hi) or lo == hi:
            raise InvalidDistributionError(
                f"Triangular requires lo <= mode <= hi with lo < hi, got ({lo}, {mode}, {hi})"
            )
        super().__init__({"lo": lo, "mode": mode, "hi": hi}, attr)
        self._lo = float(lo)
        self._hi = float(hi)
        self._c = (mode - lo) / (hi - lo)
        self._width = hi - lo

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        return np.asarray(stats.triang.pdf(xs, self._c, loc=self._lo, scale=self._width))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        return np.asarray(stats.triang.cdf(xs, self._c, loc=self._lo, scale=self._width))

    def quantile(self, q: ArrayLike) -> np.ndarray:
        qs = np.asarray(q, dtype=float)
        return np.asarray(stats.triang.ppf(qs, self._c, loc=self._lo, scale=self._width))

    def _raw_support(self) -> Tuple[float, float]:
        return (self._lo, self._hi)

    def mean(self) -> float:
        return float(stats.triang.mean(self._c, loc=self._lo, scale=self._width))

    def variance(self) -> float:
        return float(stats.triang.var(self._c, loc=self._lo, scale=self._width))

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        draws = stats.triang.rvs(self._c, loc=self._lo, scale=self._width, size=n, random_state=rng)
        return {self.attr: np.asarray(draws)}
