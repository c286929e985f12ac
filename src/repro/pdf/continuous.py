"""Symbolic continuous distributions.

The paper stores standard distributions *symbolically* in the database
(Section II-A): a Gaussian is kept as ``Gaus(mean, variance)`` rather than as
samples, which gives exact range probabilities and constant-size storage.
This module implements the symbolic continuous family:

* :class:`GaussianPdf` — ``Gaus(mean, variance)`` exactly as in Table I,
* :class:`UniformPdf`, :class:`ExponentialPdf`, :class:`TriangularPdf`,
  :class:`GammaPdf`, :class:`LognormalPdf`.

Gaussian, Uniform, and Exponential — the hot paths of every benchmark —
use closed-form cdf/quantile implementations (``scipy.special``), and the
scipy *frozen distribution* backing the generic machinery is constructed
lazily: deserializing a page of symbolic tuples costs a few struct unpacks,
not thousands of scipy object constructions.

Flooring a symbolic pdf with an axis-aligned region keeps it symbolic (a
:class:`~repro.pdf.floors.FlooredPdf`); flooring with an arbitrary predicate
region collapses it to grid form.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import special, stats

from ..errors import InvalidDistributionError
from .base import DEFAULT_GRID, ArrayLike, GridSpec, UnivariatePdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = [
    "ContinuousPdf",
    "GaussianPdf",
    "UniformPdf",
    "ExponentialPdf",
    "TriangularPdf",
    "GammaPdf",
    "LognormalPdf",
    "BetaPdf",
    "WeibullPdf",
]


class ContinuousPdf(UnivariatePdf):
    """Base class for 1-D symbolic continuous distributions.

    Subclasses provide a factory for a frozen scipy distribution (built
    lazily, cached), a ``symbol`` (the SQL-visible name, e.g. ``GAUSSIAN``)
    and their parameter dictionary; everything else — exact interval
    probabilities, symbolic floors, grid collapse — is shared here.
    Subclasses with cheap closed forms override the scalar hot paths.
    """

    symbol: str = "CONTINUOUS"

    def __init__(
        self,
        dist_factory: Callable[[], object],
        params: Mapping[str, float],
        attr: str = "x",
    ):
        super().__init__(attr)
        self._dist_factory = dist_factory
        self._dist_cache: Optional[object] = None
        self._params: Dict[str, float] = {k: float(v) for k, v in params.items()}

    @property
    def _dist(self):
        """The frozen scipy distribution, constructed on first use."""
        if self._dist_cache is None:
            self._dist_cache = self._dist_factory()
        return self._dist_cache

    # -- structural ---------------------------------------------------------

    @property
    def params(self) -> Dict[str, float]:
        """Distribution parameters, for display and serialization."""
        return dict(self._params)

    @property
    def is_discrete(self) -> bool:
        return False

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self._params.values())
        return f"{self.symbol}({inner})@{self.attr}"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.attrs == other.attrs and self._params == other._params

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.attrs, tuple(sorted(self._params.items()))))

    def __getstate__(self):
        # The scipy factory is a closure and cannot be pickled; it is
        # rebuilt from the parameters on unpickle.
        state = self.__dict__.copy()
        state["_dist_factory"] = None
        state["_dist_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._dist_factory = type(self)(**self._params)._dist_factory

    def _fingerprint(self):
        return (
            "cont",
            type(self).__name__,
            self.attrs,
            tuple(sorted(self._params.items())),
        )

    # -- probabilistic core ----------------------------------------------------

    def mass(self) -> float:
        return 1.0

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        return np.asarray(self._dist.pdf(np.asarray(assignment[self.attr], dtype=float)))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        return np.asarray(self._dist.cdf(np.asarray(x, dtype=float)))

    def quantile(self, q: ArrayLike) -> np.ndarray:
        """Inverse cdf (used for grid bounds and sampling)."""
        return np.asarray(self._dist.ppf(np.asarray(q, dtype=float)))

    def _raw_support(self) -> Tuple[float, float]:
        """Support bounds before tail clipping; may be infinite."""
        lo, hi = self._dist.support()
        return float(lo), float(hi)

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

    def marginalize(self, attrs: Sequence[str]) -> "ContinuousPdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise InvalidDistributionError(
                "cannot marginalize a 1-D pdf to an empty attribute list"
            )
        return self

    # -- support / conversion ---------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return {self.attr: self._grid_bounds(DEFAULT_GRID)}

    def to_grid(self, spec: GridSpec = DEFAULT_GRID):
        from .joint import ContinuousAxis, JointGridPdf

        lo, hi = self._grid_bounds(spec)
        edges = np.linspace(lo, hi, spec.resolution + 1)
        masses = np.diff(self.cdf(edges))
        # Fold the clipped tails into the boundary cells so mass is preserved.
        masses[0] += float(self.cdf(edges[0]))
        masses[-1] += float(1.0 - self.cdf(edges[-1]))
        return JointGridPdf((ContinuousAxis(self.attr, edges),), masses)

    def _grid_bounds(self, spec: GridSpec) -> Tuple[float, float]:
        lo, hi = self._raw_support()
        if math.isinf(lo):
            lo = float(self.quantile(spec.tail_mass))
        if math.isinf(hi):
            hi = float(self.quantile(1.0 - spec.tail_mass))
        if hi <= lo:
            hi = lo + 1e-9
        return float(lo), float(hi)

    # -- moments / sampling -------------------------------------------------------

    def mean(self) -> float:
        return float(self._dist.mean())

    def variance(self) -> float:
        return float(self._dist.var())

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        return {self.attr: np.asarray(self._dist.rvs(size=n, random_state=rng))}


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
        super().__init__(
            lambda: stats.norm(loc=mean, scale=sd),
            {"mean": mean, "variance": variance},
            attr,
        )
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
        super().__init__(
            lambda: stats.uniform(loc=lo, scale=hi - lo), {"lo": lo, "hi": hi}, attr
        )
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


class ExponentialPdf(ContinuousPdf):
    """Exponential distribution with the given ``rate`` (closed-form hot paths)."""

    symbol = "EXPONENTIAL"

    def __init__(self, rate: float, attr: str = "x"):
        if rate <= 0:
            raise InvalidDistributionError(f"Exponential rate must be > 0, got {rate}")
        super().__init__(lambda: stats.expon(scale=1.0 / rate), {"rate": rate}, attr)
        self._rate = float(rate)

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        return np.where(xs >= 0.0, self._rate * np.exp(-self._rate * xs), 0.0)

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        return np.where(xs <= 0.0, 0.0, 1.0 - np.exp(-self._rate * np.maximum(xs, 0.0)))

    def quantile(self, q: ArrayLike) -> np.ndarray:
        qs = np.asarray(q, dtype=float)
        return -np.log1p(-qs) / self._rate

    def _raw_support(self) -> Tuple[float, float]:
        return (0.0, float("inf"))

    def mean(self) -> float:
        return 1.0 / self._rate

    def variance(self) -> float:
        return 1.0 / self._rate**2

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        return {self.attr: rng.exponential(1.0 / self._rate, size=n)}


class TriangularPdf(ContinuousPdf):
    """Triangular distribution over ``[lo, hi]`` peaking at ``mode``."""

    symbol = "TRIANGULAR"

    def __init__(self, lo: float, mode: float, hi: float, attr: str = "x"):
        if not (lo <= mode <= hi) or lo == hi:
            raise InvalidDistributionError(
                f"Triangular requires lo <= mode <= hi with lo < hi, got ({lo}, {mode}, {hi})"
            )
        c = (mode - lo) / (hi - lo)
        super().__init__(
            lambda: stats.triang(c, loc=lo, scale=hi - lo),
            {"lo": lo, "mode": mode, "hi": hi},
            attr,
        )
        self._lo = float(lo)
        self._hi = float(hi)

    def _raw_support(self) -> Tuple[float, float]:
        # Closed form: freezing the scipy dist just to learn [lo, hi] costs
        # ~1ms per pdf (doc construction) and dominates bulk-load encoding.
        return (self._lo, self._hi)


class GammaPdf(ContinuousPdf):
    """Gamma distribution with ``shape`` k and ``rate`` lambda."""

    symbol = "GAMMA"

    def __init__(self, shape: float, rate: float, attr: str = "x"):
        if shape <= 0 or rate <= 0:
            raise InvalidDistributionError(
                f"Gamma requires shape > 0 and rate > 0, got ({shape}, {rate})"
            )
        super().__init__(
            lambda: stats.gamma(shape, scale=1.0 / rate),
            {"shape": shape, "rate": rate},
            attr,
        )


class LognormalPdf(ContinuousPdf):
    """Lognormal distribution: ``log X ~ N(mu, sigma^2)``."""

    symbol = "LOGNORMAL"

    def __init__(self, mu: float, sigma: float, attr: str = "x"):
        if sigma <= 0:
            raise InvalidDistributionError(f"Lognormal sigma must be > 0, got {sigma}")
        super().__init__(
            lambda: stats.lognorm(s=sigma, scale=math.exp(mu)),
            {"mu": mu, "sigma": sigma},
            attr,
        )


class BetaPdf(ContinuousPdf):
    """Beta distribution on [0, 1] (confidence scores, match degrees)."""

    symbol = "BETA"

    def __init__(self, alpha: float, beta: float, attr: str = "x"):
        if alpha <= 0 or beta <= 0:
            raise InvalidDistributionError(
                f"Beta requires alpha > 0 and beta > 0, got ({alpha}, {beta})"
            )
        super().__init__(
            lambda: stats.beta(alpha, beta), {"alpha": alpha, "beta": beta}, attr
        )


class WeibullPdf(ContinuousPdf):
    """Weibull distribution with ``shape`` k and ``scale`` lambda (lifetimes)."""

    symbol = "WEIBULL"

    def __init__(self, shape: float, scale: float, attr: str = "x"):
        if shape <= 0 or scale <= 0:
            raise InvalidDistributionError(
                f"Weibull requires shape > 0 and scale > 0, got ({shape}, {scale})"
            )
        super().__init__(
            lambda: stats.weibull_min(shape, scale=scale),
            {"shape": shape, "scale": scale},
            attr,
        )
