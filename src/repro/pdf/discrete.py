"""Discrete distributions: explicit value-probability pairs and symbolic families.

The paper supports discrete uncertainty both as *discrete sampling* (an
enumerated list of value:probability pairs, the representation used by the
tuple-uncertainty literature) and as *symbolic* standard distributions such
as Binomial and Bernoulli (Section II-A).  Explicit discrete pdfs are also
the universal target when a symbolic continuous pdf is "discretized" for the
accuracy experiments (Figure 4).

``DiscretePdf`` may be *partial* (probabilities summing to less than 1),
which is how missing tuples are encoded (Table IV, second block).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np
from scipy import stats

from ..errors import InvalidDistributionError, PdfError
from .base import DEFAULT_GRID, ArrayLike, GridSpec, MASS_TOLERANCE, UnivariatePdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = [
    "DiscretePdf",
    "CategoricalPdf",
    "SymbolicDiscretePdf",
    "BernoulliPdf",
    "BinomialPdf",
    "PoissonPdf",
    "GeometricPdf",
]

PairsLike = Union[Mapping[float, float], Iterable[Tuple[float, float]]]


class DiscretePdf(UnivariatePdf):
    """An explicit (possibly partial) discrete pdf: value -> probability.

    This is the paper's *discrete sampling* representation, e.g.
    ``Discrete(0: 0.1, 1: 0.9)`` from the Section III-C example.  Values are
    kept sorted and unique; probabilities must be non-negative and sum to at
    most 1 (within tolerance).
    """

    symbol = "DISCRETE"

    def __init__(self, pairs: PairsLike, attr: str = "x"):
        super().__init__(attr)
        items = dict(pairs) if isinstance(pairs, Mapping) else dict(pairs)
        if not items:
            raise InvalidDistributionError("a discrete pdf needs at least one value")
        values = np.array(sorted(items), dtype=float)
        probs = np.array([items[v] for v in sorted(items)], dtype=float)
        if np.any(probs < -MASS_TOLERANCE):
            raise InvalidDistributionError("discrete probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if total > 1.0 + 1e-6:
            raise InvalidDistributionError(
                f"discrete probabilities sum to {total} > 1"
            )
        self._values = values
        self._probs = probs

    @classmethod
    def _from_arrays(cls, values: np.ndarray, probs: np.ndarray, attr: str) -> "DiscretePdf":
        """Trusted fast constructor (no validation) for internal hot paths."""
        pdf = cls.__new__(cls)
        UnivariatePdf.__init__(pdf, attr)
        pdf._values = values
        pdf._probs = probs
        return pdf

    # -- structural ----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    @property
    def probs(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def is_discrete(self) -> bool:
        return True

    def items(self) -> Iterable[Tuple[float, float]]:
        """(value, probability) pairs in value order."""
        return zip(self._values.tolist(), self._probs.tolist())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}:{p:.4g}" for v, p in self.items())
        return f"Discrete({inner})@{self.attr}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscretePdf):
            return NotImplemented
        return (
            self.attrs == other.attrs
            and np.array_equal(self._values, other._values)
            and np.allclose(self._probs, other._probs, atol=1e-12)
        )

    def __hash__(self) -> int:
        return hash((self.attrs, self._values.tobytes()))

    def _fingerprint(self):
        return (
            "disc",
            type(self).__name__,
            self.attrs,
            self._values.tobytes(),
            self._probs.tobytes(),
        )

    # -- probabilistic core -----------------------------------------------------

    def mass(self) -> float:
        return float(self._probs.sum())

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        scalar = xs.ndim == 0
        flat = np.atleast_1d(xs)
        idx = np.searchsorted(self._values, flat)
        idx = np.clip(idx, 0, len(self._values) - 1)
        hit = self._values[idx] == flat
        out = np.where(hit, self._probs[idx], 0.0)
        return out[0] if scalar else out.reshape(xs.shape)

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self._probs)])
        return cum[np.searchsorted(self._values, xs, side="right")]

    def prob_interval(self, allowed: IntervalSet) -> float:
        inside = allowed.contains_array(self._values)
        return float(self._probs[inside].sum())

    def prob(self, region: Region) -> float:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return self.prob_interval(region.interval_set(self.attr))
        inside = np.asarray(region.contains({self.attr: self._values}), dtype=bool)
        return float(self._probs[inside].sum())

    def restrict(self, region: Region) -> "DiscretePdf":
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            inside = region.interval_set(self.attr).contains_array(self._values)
        else:
            inside = np.asarray(region.contains({self.attr: self._values}), dtype=bool)
        if not inside.any():
            # Fully floored: represent as a zero-mass point pdf so that the
            # caller can detect emptiness via mass() and drop the tuple.
            return DiscretePdf._from_arrays(
                self._values[:1].copy(), np.zeros(1), self.attr
            )
        return DiscretePdf._from_arrays(
            self._values[inside], self._probs[inside], self.attr
        )

    def marginalize(self, attrs: Sequence[str]) -> "DiscretePdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self

    def _scaled(self, factor: float) -> "DiscretePdf":
        return DiscretePdf(
            {float(v): float(p) * factor for v, p in self.items()}, attr=self.attr
        )

    # -- support / conversion -------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return {self.attr: (float(self._values[0]), float(self._values[-1]))}

    def to_grid(self, spec: GridSpec = DEFAULT_GRID):
        from .joint import DiscreteAxis, JointGridPdf

        return JointGridPdf(
            (DiscreteAxis(self.attr, self._values),), self._probs.copy()
        )

    # -- moments / sampling -------------------------------------------------------------

    def mean(self) -> float:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("mean of a zero-mass pdf is undefined")
        return float((self._values * self._probs).sum() / m)

    def variance(self) -> float:
        mu = self.mean()
        m = self.mass()
        return float(((self._values - mu) ** 2 * self._probs).sum() / m)

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("cannot sample a zero-mass pdf")
        picks = rng.choice(self._values, size=n, p=self._probs / m)
        return {self.attr: picks}


#: Process-wide label interning for categorical pdfs.  Using one shared
#: code space makes codes comparable across columns, tuples and relations,
#: which is what lets `annotation = 'person'` and `a.label = b.label`
#: predicates work uniformly through the numeric region machinery.
#: Interning is locked: threads may intern new labels concurrently, and
#: check-then-append would hand out duplicate codes.
_LABEL_CODES: Dict[str, int] = {}
_LABELS: List[str] = []
_LABEL_LOCK = threading.Lock()


def label_code(label: str) -> float:
    """Intern a label and return its stable numeric code."""
    code = _LABEL_CODES.get(label)
    if code is None:
        with _LABEL_LOCK:
            code = _LABEL_CODES.get(label)
            if code is None:
                code = len(_LABELS)
                _LABEL_CODES[label] = code
                _LABELS.append(label)
    return float(code)


def code_label(code: float) -> str:
    """The label for an interned code."""
    idx = int(code)
    if idx < 0 or idx >= len(_LABELS) or idx != code:
        raise KeyError(f"unknown label code {code}")
    return _LABELS[idx]


class CategoricalPdf(DiscretePdf):
    """A discrete pdf over string labels, stored as interned integer codes.

    Used for categorical uncertainty (text annotations, data cleansing
    alternatives).  The numeric machinery operates on the codes; the global
    interning table maps codes back for display and for translating label
    predicates.
    """

    symbol = "CATEGORICAL"

    def __init__(self, pairs: Mapping[str, float], attr: str = "x"):
        if not pairs:
            raise InvalidDistributionError("a categorical pdf needs at least one label")
        code_pairs = {label_code(label): float(p) for label, p in pairs.items()}
        super().__init__(code_pairs, attr=attr)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(code_label(v) for v in self._values)

    def code_of(self, label: str) -> float:
        """The numeric code of ``label`` (interned globally)."""
        return label_code(label)

    def label_items(self) -> Iterable[Tuple[str, float]]:
        """(label, probability) pairs."""
        for value, prob in self.items():
            yield code_label(value), prob

    def prob_label(self, label: str) -> float:
        """P(X == label); 0 for labels outside the domain."""
        return float(self.density({self.attr: label_code(label)}))

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{p:.4g}" for label, p in self.label_items())
        return f"Categorical({inner})@{self.attr}"


class SymbolicDiscretePdf(UnivariatePdf):
    """Base class for symbolic discrete families (Bernoulli, Binomial, ...).

    Probabilities over intervals come straight from the scipy cdf; operations
    that change the shape of the distribution (floors, grids) first
    materialize an explicit :class:`DiscretePdf` covering all but
    ``1e-12`` of the mass.
    """

    symbol = "SYMBOLIC_DISCRETE"

    def __init__(self, dist, params: Mapping[str, float], attr: str = "x"):
        super().__init__(attr)
        self._dist = dist
        self._params: Dict[str, float] = {k: float(v) for k, v in params.items()}

    @property
    def params(self) -> Dict[str, float]:
        return dict(self._params)

    @property
    def is_discrete(self) -> bool:
        return True

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self._params.values())
        return f"{self.symbol}({inner})@{self.attr}"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.attrs == other.attrs and self._params == other._params

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.attrs, tuple(sorted(self._params.items()))))

    def _fingerprint(self):
        return (
            "symdisc",
            type(self).__name__,
            self.attrs,
            tuple(sorted(self._params.items())),
        )

    def materialize(self) -> DiscretePdf:
        """Explicit value:probability pairs covering mass >= 1 - 1e-12."""
        lo, hi = self._dist.support()
        if math.isinf(hi):
            hi = float(self._dist.ppf(1.0 - 1e-12))
        values = np.arange(int(lo), int(hi) + 1, dtype=float)
        probs = self._dist.pmf(values)
        keep = probs > 0
        return DiscretePdf(dict(zip(values[keep], probs[keep])), attr=self.attr)

    # -- probabilistic core -----------------------------------------------------

    def mass(self) -> float:
        return 1.0

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        return np.asarray(self._dist.pmf(np.asarray(assignment[self.attr], dtype=float)))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        return np.asarray(self._dist.cdf(np.asarray(x, dtype=float)))

    def prob_interval(self, allowed: IntervalSet) -> float:
        return self.materialize().prob_interval(allowed)

    def prob(self, region: Region) -> float:
        return self.materialize().prob(region)

    def restrict(self, region: Region) -> DiscretePdf:
        return self.materialize().restrict(region)

    def marginalize(self, attrs: Sequence[str]) -> "SymbolicDiscretePdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self

    # -- support / conversion -------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return self.materialize().support()

    def to_grid(self, spec: GridSpec = DEFAULT_GRID):
        return self.materialize().to_grid(spec)

    # -- moments / sampling ------------------------------------------------------------

    def mean(self) -> float:
        return float(self._dist.mean())

    def variance(self) -> float:
        return float(self._dist.var())

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        return {self.attr: np.asarray(self._dist.rvs(size=n, random_state=rng), dtype=float)}


class BernoulliPdf(SymbolicDiscretePdf):
    """Bernoulli distribution: 1 with probability ``p``, else 0."""

    symbol = "BERNOULLI"

    def __init__(self, p: float, attr: str = "x"):
        if not 0.0 <= p <= 1.0:
            raise InvalidDistributionError(f"Bernoulli p must be in [0, 1], got {p}")
        super().__init__(stats.bernoulli(p), {"p": p}, attr)


class BinomialPdf(SymbolicDiscretePdf):
    """Binomial distribution with ``n`` trials of success probability ``p``."""

    symbol = "BINOMIAL"

    def __init__(self, n: float, p: float, attr: str = "x"):
        if n < 0 or int(n) != n:
            raise InvalidDistributionError(f"Binomial n must be a non-negative int, got {n}")
        if not 0.0 <= p <= 1.0:
            raise InvalidDistributionError(f"Binomial p must be in [0, 1], got {p}")
        super().__init__(stats.binom(int(n), p), {"n": n, "p": p}, attr)


class PoissonPdf(SymbolicDiscretePdf):
    """Poisson distribution with mean ``rate``."""

    symbol = "POISSON"

    def __init__(self, rate: float, attr: str = "x"):
        if rate <= 0:
            raise InvalidDistributionError(f"Poisson rate must be > 0, got {rate}")
        super().__init__(stats.poisson(rate), {"rate": rate}, attr)


class GeometricPdf(SymbolicDiscretePdf):
    """Geometric distribution (number of trials to first success)."""

    symbol = "GEOMETRIC"

    def __init__(self, p: float, attr: str = "x"):
        if not 0.0 < p <= 1.0:
            raise InvalidDistributionError(f"Geometric p must be in (0, 1], got {p}")
        super().__init__(stats.geom(p), {"p": p}, attr)
